//! Figure 10: block device performance — 4 KB random ordered writes.
//!
//! Four configurations: (a) one flash SSD, (b) one Optane SSD, (c) two
//! SSDs on one target, (d) four SSDs across two targets. Each thread
//! submits to its own stream. The paper reports throughput and CPU
//! efficiency normalised to the orderless stack.
//!
//! Paper's headline numbers: on flash Rio beats Linux by two orders of
//! magnitude and Horae by 2.8x on average; on Optane by 9.4x and 3.3x;
//! Rio's throughput and efficiency come close to orderless everywhere.

use rio_bench::experiment::sweep;
use rio_bench::trace_export::traced_cell;
use rio_bench::{all_modes, by_label, fig10_cfg, groups_for, kiops};
use rio_stack::{OrderingMode, RunMetrics, Workload};

fn part(part_id: char, title: &str) {
    let fig = sweep(
        &format!("Figure 10({part_id}): {title} — KIOPS of 4 KB ordered writes"),
        "mode \\ threads",
        &[2usize, 4, 8, 12],
        by_label(all_modes()),
        &[("{}", |m| kiops(m.block_iops()))],
        |&mode, &threads| {
            let cfg = fig10_cfg(part_id, mode, threads);
            // Long enough that the sustained rate dominates the
            // initial cache burst on every device.
            let groups = groups_for(
                mode,
                600,
                (cfg.total_ssds() as u64 * 40_000 / threads as u64).max(8_000),
            );
            (cfg, Workload::random_4k(threads, groups))
        },
    );
    // CPU efficiency normalised to orderless (paper's lower panels).
    fig.print_over(
        "normalised initiator CPU efficiency",
        "orderless",
        RunMetrics::initiator_efficiency,
    );
    fig.print_over(
        "normalised target CPU efficiency",
        "orderless",
        RunMetrics::target_efficiency,
    );
    // Paper-style average ratios.
    fig.print_avg("RIO", "Linux", RunMetrics::block_iops, true);
    fig.print_avg("RIO", "HORAE", RunMetrics::block_iops, true);
}

fn main() {
    // One representative traced run (RIO on Optane, part b) instead of
    // the whole sweep: the Chrome trace is per-command, so a single
    // cell is already thousands of spans.
    let rio = fig10_cfg('b', OrderingMode::Rio { merge: true }, 2);
    if traced_cell("fig10(b) RIO t=2", rio, Workload::random_4k(2, 2_000)) {
        return;
    }
    println!("Reproduction of paper Figure 10 (block device performance).");
    part('a', "1 flash SSD, 1 target");
    part('b', "1 Optane SSD, 1 target");
    part('c', "2 SSDs, 1 target");
    part('d', "4 SSDs, 2 targets");
}
