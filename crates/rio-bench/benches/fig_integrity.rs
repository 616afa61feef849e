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
//! cargo bench -p rio-bench --bench fig_integrity
//! ```

use rio_bench::experiment::{fault_cfg, half_span_faults, sweep};
use rio_bench::{all_modes, by_label, groups_for, header, kiops, lossy_cfg, row};
use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, FabricConfig, FaultKind, OrderingMode, RunMetrics, Workload};

const THREADS: usize = 4;

/// Part 1: wire corruption rate × ordering engine.
fn corruption_sweep() {
    let fig = sweep(
        &format!(
            "Wire corruption sweep: KIOPS of 4 KB ordered writes ({THREADS} threads, \
             2 paths, payload bytes + CRC-32C digests end to end)"
        ),
        "mode \\ rate",
        &[0.0, 1e-5, 1e-3],
        by_label(all_modes()),
        &[("{}", |m| kiops(m.block_iops()))],
        |&mode, &rate| {
            let mut cfg = lossy_cfg(mode, THREADS, 0.0, 2);
            cfg.net.corrupt_rate = rate;
            // rate == 0 still runs with payload bytes and digests: the
            // integrity flag isolates the checksum machinery's cost
            // from the corruption-recovery cost.
            cfg.integrity = true;
            let groups = groups_for(mode, 600, 8_000);
            (cfg, Workload::random_4k(THREADS, groups))
        },
    );
    for m in fig.series.iter().flat_map(|(_, runs)| runs) {
        let i = &m.integrity;
        assert_eq!(
            i.wire_injected, i.wire_detected,
            "an injected corruption escaped the digest check"
        );
        assert!(i.balanced(), "integrity ledger out of balance");
    }
    fig.print_retained(
        "goodput retained vs corruption-free (same mode)",
        RunMetrics::block_iops,
    );
    println!("--- detection ledger at the highest rate (per mode) ---");
    let columns = ["injected", "detected", "refetched", "retx rounds"];
    row("mode", &columns);
    for (label, runs) in &fig.series {
        let worst = runs.last().expect("at least one rate");
        let i = &worst.integrity;
        let counts = [
            i.wire_injected,
            i.wire_detected,
            i.wire_refetched,
            worst.net.retx_rounds,
        ];
        row(label, &counts);
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
fn crash_sweep() {
    let cells = [
        (
            "torn write",
            SsdProfile::pm981 as fn() -> SsdProfile,
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
    for mode in [
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
    ] {
        header(&format!(
            "Corruption × crash, {}: media fault at half span, survivable, \
             {THREADS} threads",
            mode.label()
        ));
        let columns = [
            "rebuild",
            "scrub+disc",
            "injected",
            "detected",
            "repaired",
            "lost",
            "retention",
        ];
        row("rate / fault", &columns);
        for rate in [0.0, 1e-3] {
            for (label, ssd, kind) in &cells {
                let wl = Workload::seq_batched(THREADS, 2_000, 4, 1);
                let net = FabricConfig {
                    corrupt_rate: rate,
                    ..FabricConfig::lossy(0.0, 2)
                };
                let cfg = ClusterConfig {
                    integrity: true,
                    ..fault_cfg(mode, *ssd, THREADS, net)
                };
                let fault = vec![(format!("{rate:.0e} {label}"), kind.clone())];
                half_span_faults(cfg, wl, fault, |m| {
                    let i = &m.integrity;
                    let counts = [
                        i.torn_injected + i.rot_injected,
                        i.media_detected,
                        i.media_repaired,
                        i.media_unrepairable,
                    ];
                    counts.map(|c| c.to_string()).to_vec()
                });
            }
        }
    }
}

fn main() {
    println!("End-to-end integrity sweep (full run): corruption x crash x ordering modes.");
    corruption_sweep();
    crash_sweep();
}
