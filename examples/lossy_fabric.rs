//! Lossy fabric walkthrough: ordering survives a fabric that drops,
//! retransmits and reorders.
//!
//! The fabric model segments every message into MTU packets, samples a
//! deterministic per-packet drop, and recovers with go-back-N: the
//! sender finishes the window, waits a NAK-style recovery latency, and
//! resends from the lost packet. A retransmitted command is overtaken
//! by its queue-pair successors — exactly the reordering Rio's
//! target-side submission gate absorbs. This example turns the loss
//! knob and spreads traffic over four asymmetric paths, then shows:
//!
//! 1. every ordering engine still completes every group exactly once;
//! 2. Rio's deep asynchronous window hides the recovery stalls
//!    (graceful degradation) while the serial Linux NVMe-oF chain pays
//!    each one on its critical path (sharp degradation);
//! 3. the fabric counters (packets, drops, retransmits, per-path load)
//!    surfaced through `RunMetrics::net`.
//!
//! Run with: `cargo run --release --example lossy_fabric`

use rio::ssd::SsdProfile;
use rio::stack::{Cluster, ClusterConfig, FabricConfig, OrderingMode, Workload};

fn run_seeded(mode: OrderingMode, loss: f64, migrate: u64, seed: u64) -> rio::stack::RunMetrics {
    let groups = if mode == OrderingMode::LinuxNvmf {
        2_000
    } else {
        8_000
    };
    let mut cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 4);
    cfg.seed = seed;
    // Rio's whole design is a deep asynchronous pipeline; give every
    // engine the same window so the comparison is fair.
    cfg.max_inflight_per_stream = 64;
    // 4 asymmetric paths (bandwidth split evenly, staggered latency),
    // per-QP path pinning, and packet loss. The headline ladder keeps
    // migration off: drop-triggered failover re-seats a serial
    // engine's QPs across the asymmetric paths, which moves its
    // throughput a couple of percent in either direction and muddies
    // the loss trend (try it: set `migrate` nonzero below).
    cfg.net = FabricConfig::lossy(loss, 4);
    cfg.net.migrate_every = migrate;
    Cluster::new(cfg, Workload::random_4k(4, groups)).run()
}

/// Mean throughput over a few seeds: each run is deterministic, but
/// the serial engines ride jittered asymmetric paths, so a single seed
/// is noisy at low loss rates.
fn mean_iops(mode: OrderingMode, loss: f64) -> f64 {
    let seeds = [42, 1337, 9001];
    seeds
        .iter()
        .map(|&s| run_seeded(mode, loss, 0, s).block_iops())
        .sum::<f64>()
        / seeds.len() as f64
}

fn main() {
    println!("Lossy multi-path fabric: 4 KB ordered writes, 4 threads,");
    println!("4 asymmetric paths, per-QP path pinning (mean of 3 seeds)\n");
    let losses = [0.0, 1e-3, 1e-2];
    for mode in [
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
        OrderingMode::Orderless,
    ] {
        let series: Vec<f64> = losses.iter().map(|&l| mean_iops(mode, l)).collect();
        let base = series[0];
        print!("{:>14}:", mode.label());
        for iops in &series {
            print!(" {:>8.1}K ({:>5.1}%)", iops / 1e3, 100.0 * iops / base);
        }
        println!();
    }
    println!("                 loss=0      loss=1e-3    loss=1e-2  (abs, % of lossless)\n");

    // Zoom into Rio at 1% loss, now with migration every 256 messages
    // (plus failover on timeout): what the fabric actually did.
    let m = run_seeded(OrderingMode::Rio { merge: true }, 1e-2, 256, 42);
    println!(
        "RIO @ 1% loss: {} groups done exactly once, {} packets, {} drops,",
        m.groups_done, m.net.packets, m.net.drops
    );
    println!(
        "{} retransmits over {} recovery rounds; the gate buffered {} commands",
        m.net.retransmits, m.net.retx_rounds, m.gate_buffered
    );
    println!("that retransmission delivered after their successors.");
    for (i, p) in m.net.per_path.iter().enumerate() {
        println!(
            "    path {i}: {:>6} pkts  {:>4} drops  {:>4} retransmits",
            p.packets, p.drops, p.retransmits
        );
    }
}
