//! Lossy multi-path fabric sweep: ordering engines under packet loss.
//!
//! RIO's central claim (§4, §6) is that ordering survives a fabric
//! that does not serialize: requests fan out across queue pairs and
//! paths, arrive out of order, and the target-side ordering attributes
//! put them back together. This sweep drives the packet-level fabric
//! model — MTU segmentation, deterministic per-packet drops, go-back-N
//! recovery, asymmetric paths with per-QP pinning — through every
//! ordering engine: loss ∈ {0, 1e-5, 1e-3, 1e-2} × paths ∈ {1, 2, 4}.
//!
//! Expected shape: RIO's deep asynchronous window overlaps per-stream
//! recovery stalls, so its throughput degrades gracefully with loss
//! (and tracks orderless), while the serial Linux NVMe-oF chain pays
//! every recovery latency on its critical path and degrades sharply.
//! Multi-path spreading adds latency asymmetry that the target gate
//! absorbs without extra cost.
//!
//! Usage:
//!
//! ```sh
//! cargo bench -p rio-bench --bench fig_lossy_fabric
//! ```

use rio_bench::experiment::sweep;
use rio_bench::trace_export::traced_cell;
use rio_bench::{all_modes, by_label, groups_for, kiops, lossy_cfg};
use rio_stack::{OrderingMode, RunMetrics, Workload};

const THREADS: usize = 4;

fn main() {
    // The interesting cell: RIO under real loss, where retransmit spans
    // and gate stalls show up in the trace.
    let rio = lossy_cfg(OrderingMode::Rio { merge: true }, THREADS, 1e-3, 2);
    if traced_cell(
        "lossy-fabric RIO loss=1e-3 paths=2",
        rio,
        Workload::random_4k(THREADS, 2_000),
    ) {
        return;
    }
    println!("Lossy multi-path fabric sweep (full run).");
    let losses = [0.0, 1e-5, 1e-3, 1e-2];
    for paths in [1, 2, 4] {
        let fig = sweep(
            &format!(
                "Lossy fabric, {paths} path(s): KIOPS of 4 KB ordered writes ({THREADS} threads)"
            ),
            "mode \\ loss",
            &losses,
            by_label(all_modes()),
            &[("{}", |m| kiops(m.block_iops()))],
            |&mode, &loss| {
                let groups = groups_for(mode, 600, 20_000);
                (
                    lossy_cfg(mode, THREADS, loss, paths),
                    Workload::random_4k(THREADS, groups),
                )
            },
        );
        // Relative throughput vs the mode's own lossless run — the
        // graceful-vs-sharp degradation panel.
        fig.print_retained(
            "throughput retained vs lossless (same mode)",
            RunMetrics::block_iops,
        );
        // Fabric health counters for the highest-loss RIO cell.
        let worst = fig.runs("RIO").last().expect("at least one loss point");
        println!(
            "--- RIO @ loss={}: {} pkts, {} drops, {} retransmits, {} recovery rounds, gate buffered {} ---",
            losses[losses.len() - 1],
            worst.net.packets,
            worst.net.drops,
            worst.net.retransmits,
            worst.net.retx_rounds,
            worst.gate_buffered,
        );
        for (i, p) in worst.net.per_path.iter().enumerate() {
            println!(
                "    path {i}: {} pkts, {} drops, {} retransmits",
                p.packets, p.drops, p.retransmits
            );
        }
    }
}
