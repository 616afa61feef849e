//! Figure 12: performance with varying batch sizes (merging ablation).
//!
//! Each batch is a run of sequential 4 KB ordered writes that *can*
//! merge. With one thread (scarce CPU) merging raises Rio's throughput
//! over "RIO w/o merge"; with 12 threads the SSDs saturate and merging
//! instead preserves CPU efficiency (the paper's normalised efficiency
//! panel shows Horae *declining* with batch size while Rio holds).

use rio_bench::experiment::sweep;
use rio_bench::{by_label, gbps, groups_for};
use rio_stack::{ClusterConfig, OrderingMode, RunMetrics, Workload};

fn series(threads: usize, label: &str) {
    let modes = vec![
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
        OrderingMode::Orderless,
    ];
    let fig = sweep(
        &format!("Figure 12({label}): batch-size sweep — GB/s"),
        "mode \\ batch",
        &[2usize, 4, 8, 12, 16],
        by_label(modes),
        &[("{}", |m| gbps(m.bandwidth()))],
        |&mode, &batch| {
            let groups = groups_for(mode, 600, (160_000 / threads as u64).max(13_000));
            let cfg = ClusterConfig::four_ssd_two_targets(mode, threads);
            (cfg, Workload::seq_batched(threads, groups, batch, 1))
        },
    );
    fig.print_over(
        "normalised initiator CPU efficiency",
        "orderless",
        RunMetrics::initiator_efficiency,
    );
}

fn main() {
    println!("Reproduction of paper Figure 12 (batch sizes / merging).");
    println!("Paper: with 1 thread merging lifts Rio's throughput; with 12");
    println!("threads it preserves CPU efficiency while Horae's declines.");
    series(1, "a: 4 SSDs, 1 thread");
    series(12, "b: 4 SSDs, 12 threads");
}
