//! Crash recovery, two ways: the §6.5 one-shot experiment and a
//! survivable mid-flight fault.
//!
//! Part 1 drives 8 threads of ordered writes under Rio, crashes both
//! target servers mid-flight, then runs the recovery algorithm: scan
//! the PMR logs, rebuild the global ordering list, and roll back the
//! blocks that disobey the storage order.
//!
//! Part 2 crashes only one of the two targets — over a lossy two-path
//! fabric, with retransmissions in flight — and lets the run *survive*:
//! recovery happens inside the event loop, rolled-back groups are
//! re-queued, and the workload resumes to completion.
//!
//! Run with: `cargo run --release --example crash_recovery`

use rio::sim::SimTime;
use rio::ssd::SsdProfile;
use rio::stack::{Cluster, ClusterConfig, FabricConfig, FaultPlan, OrderingMode, Workload};

fn base_cfg() -> ClusterConfig {
    ClusterConfig {
        seed: 2023,
        cores: 8,
        max_inflight_per_stream: 32,
        ..ClusterConfig::new(
            OrderingMode::Rio { merge: true },
            vec![vec![SsdProfile::optane905p()], vec![SsdProfile::pm981()]],
            8,
        )
    }
}

fn main() {
    // ---- Part 1: the classic §6.5 report -------------------------------
    let wl = Workload::random_4k(8, 1_000_000);
    println!("Running 8 threads of 4 KB ordered writes over 2 targets,");
    println!("then pulling the power at t = 3 ms...\n");
    let mut cfg = base_cfg();
    cfg.faults = FaultPlan::crash_all_at(SimTime::from_nanos(3_000_000));
    let report = &Cluster::new(cfg, wl).run().recoveries[0];

    println!("Crash at {}", report.crashed_at);
    println!(
        "Phase 1 (order rebuild): {:.2} ms — scanned {} PMR records",
        report.order_rebuild.as_secs_f64() * 1e3,
        report.records_scanned
    );
    println!(
        "Phase 2 (data recovery): {:.2} ms — {} out-of-order blocks discarded",
        report.data_recovery.as_secs_f64() * 1e3,
        report.discards
    );
    println!("\nPer-stream valid prefixes (the D1 <- ... <- Dk of the proof):");
    for sp in report.plan.streams.iter().take(8) {
        println!(
            "  stream {:>2}: global order intact through seq {}",
            sp.stream.0, sp.valid_through.0
        );
    }
    println!("\nEvery stream recovered to a prefix of its submitted order —");
    println!("no out-of-order persistence survives (paper §4.8).");

    // ---- Part 2: a survivable crash on a lossy fabric ------------------
    println!("\n----------------------------------------------------------");
    println!("Now the same cluster survives its crash: loss = 1e-3 over");
    println!("2 paths, target 1 power-fails mid-flight, and the run");
    println!("recovers in place and finishes the workload.\n");

    let mut cfg = base_cfg();
    cfg.net = FabricConfig::lossy(1e-3, 2);
    cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(1_500_000), vec![1]);
    let m = Cluster::new(cfg, Workload::random_4k(8, 600)).run();

    let r = &m.recoveries[0];
    println!(
        "Crash at {} -> resumed at {} (rebuild {:.2} ms + discard {:.2} ms)",
        r.crashed_at,
        r.resumed_at,
        r.order_rebuild.as_secs_f64() * 1e3,
        r.data_recovery.as_secs_f64() * 1e3,
    );
    let requeued: u64 = r.streams.iter().map(|s| s.requeued).sum();
    let redelivered: u64 = r.streams.iter().map(|s| s.redelivered).sum();
    println!("{requeued} groups rolled back and re-executed, {redelivered} redelivered");
    println!(
        "Groups completed: {} of {} (exactly once)",
        m.groups_done,
        8 * 600
    );
    for (i, e) in m.epochs.iter().enumerate() {
        println!(
            "  epoch {i}: {:>6} groups, {:>8.1} KIOPS",
            e.groups_done,
            e.block_iops() / 1e3
        );
    }
}
