//! Simulation-engine throughput report.
//!
//! Runs the gated grid defined in [`rio_bench::sweep`] (every ordering
//! mode over the paper's cluster shapes, plus the figure slices) and prints
//! *host* wall-clock and simulator event throughput (events/sec) for
//! each cell. The simulated workload is pinned — seeds, thread counts
//! and group counts never vary — so the numbers track only how fast
//! the engine itself executes on this host. Nothing is written and
//! nothing is gated: host time is judged by `benchmark/` (alternating
//! pairs, a bound per metric), and this file is the only one outside
//! it that reads the wall clock.
//!
//! Usage:
//!
//! ```sh
//! cargo bench -p rio-bench --bench sim_engine
//! ```

use std::time::Instant;

use rio_bench::sweep::{cluster, specs, Cell};

fn main() {
    println!("sim_engine throughput report");
    let (mut total_wall, mut total_events) = (0.0, 0u64);
    for spec in specs() {
        let cluster = cluster(&spec);
        let started = Instant::now();
        let m = cluster.run();
        let wall_secs = started.elapsed().as_secs_f64();
        let c = Cell::measured(&spec, &m);
        println!(
            "{:>14} {:>14} t={:<2} {:>9.3}s wall  {:>12} events  {:>11.0} ev/s",
            c.figure,
            c.mode,
            c.threads,
            wall_secs,
            c.events,
            c.events as f64 / wall_secs.max(1e-12),
        );
        total_wall += wall_secs;
        total_events += c.events;
    }
    println!(
        "total: {total_wall:.3}s wall, {total_events} events, {:.0} events/sec",
        total_events as f64 / total_wall.max(1e-12)
    );
}
