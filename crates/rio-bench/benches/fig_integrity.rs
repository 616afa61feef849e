//! End-to-end data-integrity sweep: corruption × crash × ordering
//! modes.
//!
//! With integrity on, every command carries real payload bytes (a
//! splitmix64 stream per 4 KB block) and a CRC-32C digest stamped at
//! submission; the fabric corrupts packets at a configurable rate;
//! receivers catch every corruption by digest and NAK it into the
//! go-back-N window, so corrupted payloads are re-fetched and never
//! reach media. Part 1 sweeps the wire corruption rate through every
//! ordering engine and reports the goodput cost plus the full
//! detection ledger.
//!
//! Part 2 composes corruption with crashes: a power failure that tears
//! the in-flight media write, then at-rest bit rot, both under ongoing
//! wire corruption. The post-quiesce scrub detects every bad record by
//! its media seal, repairs what a durable-but-unacked group still
//! covers (discard + redeliver, exactly-once preserved), and reports
//! the rest as honest data loss. The run survives and completes every
//! group exactly once.
//!
//! Usage:
//!
//! ```sh
//! cargo bench -p rio-bench --bench fig_integrity            # full sweep
//! cargo bench -p rio-bench --bench fig_integrity -- --smoke # CI-sized
//! ```

use rio_bench::{all_modes, header, kiops, lossy_cfg, row, run};
use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    Cluster, ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode,
    RunMetrics, Workload,
};

const THREADS: usize = 4;

fn config(mode: OrderingMode, corrupt: f64) -> ClusterConfig {
    let mut cfg = lossy_cfg(mode, THREADS, 0.0, 2);
    cfg.net.corrupt_rate = corrupt;
    // corrupt == 0 still runs with payload bytes and digests: the
    // integrity flag isolates the checksum machinery's cost from the
    // corruption-recovery cost.
    cfg.integrity = true;
    cfg
}

fn groups_for(mode: &OrderingMode, smoke: bool) -> u64 {
    let scale = if smoke { 10 } else { 1 };
    match mode {
        OrderingMode::LinuxNvmf => 600 / scale,
        _ => 8_000 / scale,
    }
}

/// Part 1: wire corruption rate × ordering engine.
fn corruption_sweep(smoke: bool) {
    let rates: &[f64] = if smoke {
        &[0.0, 1e-3]
    } else {
        &[0.0, 1e-5, 1e-3]
    };
    header(&format!(
        "Wire corruption sweep: KIOPS of 4 KB ordered writes ({THREADS} threads, \
         2 paths, payload bytes + CRC-32C digests end to end)"
    ));
    row(
        "mode \\ rate",
        &rates.iter().map(|r| format!("{r}")).collect::<Vec<_>>(),
    );
    let mut results: Vec<(String, Vec<RunMetrics>)> = Vec::new();
    for mode in all_modes() {
        let series: Vec<RunMetrics> = rates
            .iter()
            .map(|&rate| {
                let cfg = config(mode.clone(), rate);
                let wl = Workload::random_4k(THREADS, groups_for(&mode, smoke));
                let m = run(cfg, wl);
                assert_eq!(
                    m.integrity.wire_injected, m.integrity.wire_detected,
                    "an injected corruption escaped the digest check"
                );
                assert!(m.integrity.balanced(), "integrity ledger out of balance");
                m
            })
            .collect();
        row(
            mode.label(),
            &series
                .iter()
                .map(|m| kiops(m.block_iops()))
                .collect::<Vec<_>>(),
        );
        results.push((mode.label().to_string(), series));
    }
    println!("--- goodput retained vs corruption-free (same mode) ---");
    for (label, series) in &results {
        let base = series[0].block_iops();
        let cells: Vec<String> = series
            .iter()
            .map(|m| format!("{:.1}%", 100.0 * m.block_iops() / base.max(1e-12)))
            .collect();
        row(label, &cells);
    }
    println!("--- detection ledger at the highest rate (per mode) ---");
    row(
        "mode",
        &[
            "injected".into(),
            "detected".into(),
            "refetched".into(),
            "retx rounds".into(),
        ],
    );
    for (label, series) in &results {
        let worst = &series.last().expect("at least one rate").integrity;
        let rounds = series.last().expect("non-empty").net.retx_rounds;
        row(
            label,
            &[
                format!("{}", worst.wire_injected),
                format!("{}", worst.wire_detected),
                format!("{}", worst.wire_refetched),
                format!("{rounds}"),
            ],
        );
    }
}

fn crash_cfg(mode: OrderingMode, corrupt: f64, ssd: fn() -> SsdProfile) -> ClusterConfig {
    ClusterConfig {
        seed: 77,
        net: FabricConfig {
            corrupt_rate: corrupt,
            ..FabricConfig::lossy(0.0, 2)
        },
        cores: 8,
        max_inflight_per_stream: 64,
        integrity: true,
        ..ClusterConfig::new(mode, vec![vec![ssd()], vec![ssd()]], THREADS)
    }
}

/// Part 2: corruption × crash (Rio only: recovery needs the persisted
/// attributes). Two media-fault cells per corruption rate:
///
/// * **torn write** on volatile-cache SSDs (`pm981`) — the cache is
///   essentially never empty mid-run, so the power cut reliably tears
///   the in-flight media write; the torn block usually backed an
///   already-acknowledged group, so the scrub reports honest loss.
/// * **bit rot** on PLP SSDs (`optane905p`) — media fills quickly, so
///   at-rest flips land on sealed blocks and the scrub catches every
///   single-bit error by its CRC-32C seal.
fn crash_sweep(smoke: bool) {
    let rates: &[f64] = if smoke { &[1e-3] } else { &[0.0, 1e-3] };
    let modes = if smoke {
        vec![OrderingMode::Rio { merge: true }]
    } else {
        vec![
            OrderingMode::Rio { merge: true },
            OrderingMode::Rio { merge: false },
        ]
    };
    let groups: u64 = if smoke { 400 } else { 2_000 };
    type FaultCell = (&'static str, fn() -> SsdProfile, FaultKind);
    let cells: &[FaultCell] = &[
        (
            "torn write",
            SsdProfile::pm981,
            FaultKind::TornWrite {
                targets: Vec::new(),
            },
        ),
        (
            "bit rot",
            SsdProfile::optane905p,
            FaultKind::BitRot {
                targets: Vec::new(),
                flips: 3,
            },
        ),
    ];
    for mode in modes {
        header(&format!(
            "Corruption × crash, {}: media fault at half span, survivable, \
             {THREADS} threads",
            mode.label()
        ));
        row(
            "rate / fault",
            &[
                "rebuild".into(),
                "scrub+disc".into(),
                "injected".into(),
                "detected".into(),
                "repaired".into(),
                "lost".into(),
                "retention".into(),
            ],
        );
        for &rate in rates {
            for (label, ssd, kind) in cells {
                let baseline = Cluster::new(
                    crash_cfg(mode.clone(), rate, *ssd),
                    Workload::seq_batched(THREADS, groups, 4, 1),
                )
                .run();
                let crash_at = SimTime::from_nanos(baseline.finished_at.as_nanos() / 2);
                let mut cfg = crash_cfg(mode.clone(), rate, *ssd);
                cfg.faults = FaultPlan {
                    events: vec![FaultEvent {
                        at: crash_at,
                        kind: kind.clone(),
                        resume: true,
                    }],
                };
                let m = Cluster::new(cfg, Workload::seq_batched(THREADS, groups, 4, 1)).run();
                assert_eq!(
                    m.groups_done,
                    THREADS as u64 * groups,
                    "{label}: corruption or crash broke exactly-once"
                );
                assert!(
                    m.integrity.balanced(),
                    "{label}: integrity ledger out of balance"
                );
                let i = &m.integrity;
                let r = &m.recoveries[0];
                let e0 = m.epochs.first().expect("epoch 0").block_iops();
                let e_last = m.epochs.last().expect("final epoch").block_iops();
                row(
                    &format!("{rate:.0e} {label}"),
                    &[
                        format!("{:.1} ms", r.order_rebuild.as_secs_f64() * 1e3),
                        format!("{:.2} ms", r.data_recovery.as_secs_f64() * 1e3),
                        format!("{}", i.torn_injected + i.rot_injected),
                        format!("{}", i.media_detected),
                        format!("{}", i.media_repaired),
                        format!("{}", i.media_unrepairable),
                        format!(
                            "{:.1}%",
                            if e0 > 0.0 { e_last / e0 * 100.0 } else { 0.0 }
                        ),
                    ],
                );
            }
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "End-to-end integrity sweep ({} run): corruption x crash x ordering modes.",
        if smoke { "smoke" } else { "full" }
    );
    corruption_sweep(smoke);
    crash_sweep(smoke);
}
