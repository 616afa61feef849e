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
//! cargo bench -p rio-bench --bench t65_recovery_time
//! ```

use rio_bench::experiment::{fault_cfg, half_span_faults};
use rio_bench::{header, kiops, recovery, row};
use rio_ssd::SsdProfile;
use rio_stack::{FabricConfig, FaultKind, OrderingMode, Workload};

/// Part 1: the paper's one-shot recovery-time table.
fn paper_table() {
    let (threads, trials) = (36, 30);
    header(&format!(
        "§6.5: mean over {trials} crash trials, {threads} threads, 4 SSDs, 2 targets"
    ));
    let (mut rebuild_ms, mut data_ms, mut records, mut discards) = (0.0, 0.0, 0, 0);
    for trial in 0..trials {
        let report = recovery::trial(trial, threads);
        rebuild_ms += report.order_rebuild.as_secs_f64() * 1e3;
        data_ms += report.data_recovery.as_secs_f64() * 1e3;
        records += report.records_scanned;
        discards += report.discards;
    }
    let (rebuild_ms, data_ms) = (rebuild_ms / trials as f64, data_ms / trials as f64);
    row(
        "RIO (sim)",
        &[
            format!("order rebuild {rebuild_ms:.1} ms"),
            format!("data recovery {data_ms:.1} ms"),
            format!("{} records", records / trials as usize),
            format!("{} discards", discards / trials as usize),
        ],
    );
    row(
        "RIO (paper)",
        &["order rebuild ~55 ms", "data recovery ~125 ms"],
    );
    // Horae's ordering metadata is smaller (~60% of Rio's attribute,
    // per the paper's relative reload times); its scan scales with the
    // same PMR region. We report the scaled estimate for reference.
    row(
        "HORAE (model)",
        &[
            format!("order rebuild {:.1} ms", rebuild_ms * 38.0 / 55.0),
            format!("data recovery {:.1} ms", data_ms * 101.0 / 125.0),
        ],
    );
    row(
        "HORAE (paper)",
        &["order rebuild ~38 ms", "data recovery ~101 ms"],
    );
}

/// Part 2: the survivable loss × crash-pattern × mode sweep.
fn survivable_sweep() {
    let threads = 4;
    let patterns = [
        (
            "crash both",
            FaultKind::PowerFail {
                targets: Vec::new(),
            },
        ),
        ("crash one", FaultKind::PowerFail { targets: vec![1] }),
        ("nic reset", FaultKind::NicReset { target: 0 }),
    ];
    for mode in [
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
    ] {
        header(&format!(
            "Survivable faults, {}: mid-flight fault at half the crash-free span, \
             2 paths, {threads} threads",
            mode.label()
        ));
        let columns = [
            "rebuild",
            "discard",
            "requeued",
            "epoch0",
            "epoch1",
            "retention",
        ];
        row("loss / fault", &columns);
        for loss in [0.0, 1e-3, 1e-2] {
            let net = FabricConfig {
                migrate_every: 64,
                ..FabricConfig::lossy(loss, 2)
            };
            let cfg = fault_cfg(mode, SsdProfile::optane905p, threads, net);
            let wl = Workload::seq_batched(threads, 4_000, 4, 1);
            let faults = patterns
                .iter()
                .map(|(label, kind)| (format!("{loss:.0e} {label}"), kind.clone()));
            half_span_faults(cfg, wl, faults.collect(), |m| {
                let requeued: u64 = m.recoveries[0].streams.iter().map(|s| s.requeued).sum();
                let epochs = m.epochs[..2].iter().map(|e| kiops(e.block_iops()));
                [requeued.to_string()].into_iter().chain(epochs).collect()
            });
        }
    }
}

fn main() {
    println!("Reproduction of paper §6.5 (recovery time) + survivable fault sweep.");
    println!("Paper: Rio ~55 ms order rebuild + ~125 ms data recovery;");
    println!("Horae ~38 ms + ~101 ms (smaller ordering metadata).");
    paper_table();
    survivable_sweep();
}
