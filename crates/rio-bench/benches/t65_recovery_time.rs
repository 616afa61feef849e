//! §6.5: recovery time after a target crash, plus the survivable
//! fault-injection sweep.
//!
//! Part 1 reproduces the paper's table: 36 threads issue 4 KB ordered
//! writes continuously; a fault crashes the target servers; the
//! initiator reconnects and recovers. The paper reports ~55 ms for Rio
//! to reconstruct the global order (dominated by reading the 2 MB PMR)
//! plus ~125 ms of data recovery (discarding the out-of-order blocks),
//! over 30 trials; Horae reloads its smaller metadata in ~38 ms and
//! repairs data in ~101 ms.
//!
//! Part 2 goes beyond the paper: the crash composes with the lossy
//! multi-path fabric and the run *survives* it. For every loss rate ×
//! crash pattern × Rio mode cell, one target subset (or a single NIC)
//! fails mid-flight, recovery runs inside the event loop, and the
//! workload resumes — the table reports both recovery phases, the
//! groups rolled back and re-queued, and the post-crash throughput
//! retention (epoch-1 KIOPS ÷ epoch-0 KIOPS).
//!
//! Usage:
//!
//! ```sh
//! cargo bench -p rio-bench --bench t65_recovery_time            # full
//! cargo bench -p rio-bench --bench t65_recovery_time -- --smoke # CI-sized
//! ```

use rio_bench::recovery;
use rio_bench::{header, kiops, row};
use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    Cluster, ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode, Workload,
};

/// Part 1: the paper's one-shot recovery-time table.
fn paper_table(smoke: bool) {
    let threads = if smoke { 8 } else { 36 };
    let trials: u64 = if smoke { 3 } else { 30 };
    header(&format!(
        "§6.5: mean over {trials} crash trials, {threads} threads, 4 SSDs, 2 targets"
    ));

    let mut rebuild_ms = 0.0;
    let mut data_ms = 0.0;
    let mut records = 0usize;
    let mut discards = 0usize;
    for trial in 0..trials {
        let report = recovery::trial(trial, threads);
        rebuild_ms += report.order_rebuild.as_secs_f64() * 1e3;
        data_ms += report.data_recovery.as_secs_f64() * 1e3;
        records += report.records_scanned;
        discards += report.discards;
    }
    let n = trials as f64;
    row(
        "RIO (sim)",
        &[
            format!("order rebuild {:.1} ms", rebuild_ms / n),
            format!("data recovery {:.1} ms", data_ms / n),
            format!("{} records", records / trials as usize),
            format!("{} discards", discards / trials as usize),
        ],
    );
    row(
        "RIO (paper)",
        &[
            "order rebuild ~55 ms".into(),
            "data recovery ~125 ms".into(),
        ],
    );
    // Horae's ordering metadata is smaller (~60% of Rio's attribute,
    // per the paper's relative reload times); its scan scales with the
    // same PMR region. We report the scaled estimate for reference.
    row(
        "HORAE (model)",
        &[
            format!("order rebuild {:.1} ms", rebuild_ms / n * 38.0 / 55.0),
            format!("data recovery {:.1} ms", data_ms / n * 101.0 / 125.0),
        ],
    );
    row(
        "HORAE (paper)",
        &[
            "order rebuild ~38 ms".into(),
            "data recovery ~101 ms".into(),
        ],
    );
}

fn sweep_cfg(mode: OrderingMode, loss: f64, threads: usize) -> ClusterConfig {
    let optane = || vec![SsdProfile::optane905p()];
    ClusterConfig {
        seed: 77,
        net: FabricConfig {
            migrate_every: 64,
            ..FabricConfig::lossy(loss, 2)
        },
        cores: 8,
        max_inflight_per_stream: 64,
        ..ClusterConfig::new(mode, vec![optane(), optane()], threads)
    }
}

/// Part 2: the survivable loss × crash-pattern × mode sweep.
fn survivable_sweep(smoke: bool) {
    let threads = 4usize;
    let groups: u64 = if smoke { 800 } else { 4_000 };
    let losses: &[f64] = if smoke {
        &[0.0, 1e-3]
    } else {
        &[0.0, 1e-3, 1e-2]
    };
    let patterns: &[(&str, FaultKind)] = &[
        (
            "crash both",
            FaultKind::PowerFail {
                targets: Vec::new(),
            },
        ),
        ("crash one", FaultKind::PowerFail { targets: vec![1] }),
        ("nic reset", FaultKind::NicReset { target: 0 }),
    ];
    let modes = [
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
    ];

    for mode in modes {
        header(&format!(
            "Survivable faults, {}: mid-flight fault at half the crash-free span, \
             2 paths, {threads} threads",
            mode.label()
        ));
        row(
            "loss / fault",
            &[
                "rebuild".into(),
                "discard".into(),
                "requeued".into(),
                "epoch0".into(),
                "epoch1".into(),
                "retention".into(),
            ],
        );
        for &loss in losses {
            let baseline = Cluster::new(
                sweep_cfg(mode.clone(), loss, threads),
                Workload::seq_batched(threads, groups, 4, 1),
            )
            .run();
            let crash_at = SimTime::from_nanos(baseline.finished_at.as_nanos() / 2);
            for (label, kind) in patterns {
                let mut cfg = sweep_cfg(mode.clone(), loss, threads);
                cfg.faults = FaultPlan {
                    events: vec![FaultEvent {
                        at: crash_at,
                        kind: kind.clone(),
                        resume: true,
                    }],
                };
                let m =
                    Cluster::new(cfg, Workload::seq_batched(threads, groups, 4, 1)).run();
                assert_eq!(
                    m.groups_done,
                    threads as u64 * groups,
                    "{label}: groups lost or doubled"
                );
                let r = &m.recoveries[0];
                let requeued: u64 = r.streams.iter().map(|s| s.requeued).sum();
                let e0 = m.epochs[0].block_iops();
                let e1 = m.epochs[1].block_iops();
                row(
                    &format!("{loss:.0e} {label}"),
                    &[
                        format!("{:.1} ms", r.order_rebuild.as_secs_f64() * 1e3),
                        format!("{:.2} ms", r.data_recovery.as_secs_f64() * 1e3),
                        format!("{requeued}"),
                        kiops(e0),
                        kiops(e1),
                        format!("{:.1}%", if e0 > 0.0 { e1 / e0 * 100.0 } else { 0.0 }),
                    ],
                );
            }
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("Reproduction of paper §6.5 (recovery time) + survivable fault sweep.");
    println!("Paper: Rio ~55 ms order rebuild + ~125 ms data recovery;");
    println!("Horae ~38 ms + ~101 ms (smaller ordering metadata).");
    paper_table(smoke);
    survivable_sweep(smoke);
}
