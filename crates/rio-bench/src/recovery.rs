//! The recovery-time trajectory: the `recoveries` section of
//! `BENCH.json`.
//!
//! §6.5 recovery time is pure virtual time — `(config, seed)` fixes
//! both phases to the nanosecond: the trajectory either reproduces or
//! the recovery path's *cost model* changed. The gate fails on a >15%
//! rise in either phase of any cell; drops (improvements) and
//! sub-threshold drift only warn, flagging that the baseline should be
//! regenerated deliberately.
//!
//! The trajectory covers four crash trials at staggered instants plus
//! two integrity cells (a torn write and at-rest bit rot, both with
//! the post-quiesce scrub), so a regression in the scrub/repair pass
//! is gated alongside the classic scan/merge/discard phases.

use rio_sim::SimTime;
use rio_stack::{
    ClusterConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode, RecoveryMetrics, Workload,
};

use crate::gate::{Rule, Trajectory};
use crate::json::{Field, Record, Slot};
use crate::run;

/// Maximum tolerated rise in either deterministic recovery phase.
pub const MAX_RECOVERY_RISE: f64 = 0.15;

/// One measured recovery in the trajectory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryCell {
    /// Cell identity (`trial0`..`trial3`, `integrity`).
    pub label: String,
    /// Initiator threads during the crash.
    pub threads: usize,
    /// Phase 1 (scan + transfer + merge), virtual ms.
    pub order_rebuild_ms: f64,
    /// Phase 2 (discards; plus the scrub on integrity cells), virtual ms.
    pub data_recovery_ms: f64,
    /// PMR records scanned.
    pub records: u64,
    /// Discard commands issued.
    pub discards: u64,
}

impl Record for RecoveryCell {
    const FIELDS: &'static [Field<RecoveryCell>] = &[
        Field("label", Some("recovery "), |c| Slot::Str(&mut c.label)),
        Field("threads", Some(" t="), |c| Slot::Count(&mut c.threads)),
        Field("order_rebuild_ms", None, |c| {
            Slot::Float(&mut c.order_rebuild_ms, Some(6))
        }),
        Field("data_recovery_ms", None, |c| {
            Slot::Float(&mut c.data_recovery_ms, Some(6))
        }),
        Field("records", None, |c| Slot::Int(&mut c.records)),
        Field("discards", None, |c| Slot::Int(&mut c.discards)),
    ];
}

/// One recovery phase: a >[`MAX_RECOVERY_RISE`] rise fails, any
/// smaller movement is noted.
const fn phase(stem: &'static str, metric: fn(&RecoveryCell) -> f64) -> Rule<RecoveryCell> {
    Rule {
        drift: Some("recovery is"),
        ..Rule::new(stem, metric, MAX_RECOVERY_RISE, |x| format!("{x:.3} ms"))
    }
}

/// Recovery is deterministic virtual time: either phase is gated.
impl Trajectory for RecoveryCell {
    const SECTION: &'static str = "recoveries";
    const RULES: &'static [Rule<RecoveryCell>] = &[
        phase("order rebuild", |c| c.order_rebuild_ms),
        phase("data recovery", |c| c.data_recovery_ms),
    ];

    fn workload_drift(&self, base: &RecoveryCell) -> Option<String> {
        ((self.records, self.discards) != (base.records, base.discards)).then(|| {
            format!(
                "workload drift: {} records / {} discards vs baseline {} / {}",
                self.records, self.discards, base.records, base.discards
            )
        })
    }
}

/// The §6.5 testbed: four SSDs over two targets, `threads` cores and
/// queue pairs a side, and windows deep enough that every thread
/// submits "continuously without explicitly waiting".
fn trial_cfg(seed: u64, threads: usize) -> ClusterConfig {
    ClusterConfig {
        seed,
        cores: threads,
        max_inflight_per_stream: 96,
        ..ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, threads)
    }
}

/// One §6.5 crash trial: `threads` threads issue 4 KB ordered writes
/// continuously until every target crashes at an instant in [2, 6] ms
/// that `trial` picks; returns the initiator's recovery.
///
/// # Panics
///
/// Panics if the run breaks a run law ([`rio_stack::laws`]).
pub fn trial(trial: u64, threads: usize) -> RecoveryMetrics {
    let mut cfg = trial_cfg(1000 + trial, threads);
    let crash_ns = 2_000_000 + (trial * 137_911) % 4_000_000;
    cfg.faults = FaultPlan::crash_all_at(SimTime::from_nanos(crash_ns));
    let wl = Workload::random_4k(threads, 1_000_000);
    let what = format!("recovery trial{trial}, {threads} threads");
    run(&what, cfg, wl).recoveries.swap_remove(0)
}

/// Runs the deterministic recovery trajectory: four one-shot crash
/// trials at staggered instants, then one survivable integrity run
/// with a torn-write crash followed by at-rest bit rot, whose
/// data-recovery phases include the post-quiesce scrub and any
/// payload repairs.
pub fn trajectory() -> Vec<RecoveryCell> {
    let threads = 8;
    let mut named: Vec<(String, RecoveryMetrics)> = (0..4u64)
        .map(|t| (format!("trial{t}"), trial(t, threads)))
        .collect();
    // The integrity cell: payload bytes on the wire and on media, a
    // power failure that tears the in-flight write, bit rot injected
    // at rest, and a recovery that scrubs and repairs — survivable, so
    // the workload completes after the crash.
    let mut cfg = trial_cfg(9000, threads);
    cfg.integrity = true;
    let resumed = |ns, kind| FaultEvent {
        at: SimTime::from_nanos(ns),
        kind,
        resume: true,
    };
    let torn = resumed(
        2_500_000,
        FaultKind::TornWrite {
            targets: Vec::new(),
        },
    );
    let rot = resumed(
        5_000_000,
        FaultKind::BitRot {
            targets: Vec::new(),
            flips: 2,
        },
    );
    cfg.faults = FaultPlan {
        events: vec![torn, rot],
    };
    let mut m = run(
        "recovery integrity",
        cfg,
        Workload::fsync_append(threads, 1_500),
    );
    let labels = ["integrity-torn", "integrity-rot"].map(String::from);
    named.extend(labels.into_iter().zip(m.recoveries.drain(..2)));
    named
        .into_iter()
        .map(|(label, r)| RecoveryCell {
            label,
            threads,
            order_rebuild_ms: r.order_rebuild.as_secs_f64() * 1e3,
            data_recovery_ms: r.data_recovery.as_secs_f64() * 1e3,
            records: r.records_scanned as u64,
            discards: r.discards as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, Document};

    fn cell(label: &str, rebuild: f64, data: f64) -> RecoveryCell {
        RecoveryCell {
            label: label.into(),
            threads: 8,
            order_rebuild_ms: rebuild,
            data_recovery_ms: data,
            records: 1000,
            discards: 40,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let recoveries = vec![
            cell("trial0", 52.125, 110.5),
            cell("integrity", 12.0, 30.25),
        ];
        let doc = Document {
            recoveries,
            ..Document::default()
        }
        .padded();
        let parsed = Document::parse(&doc.render()).expect("parse").recoveries;
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].label, "integrity");
        assert!((parsed[0].order_rebuild_ms - 52.125).abs() < 1e-9);
        assert!((parsed[1].data_recovery_ms - 30.25).abs() < 1e-9);
    }

    #[test]
    fn wrong_schema_is_rejected_with_guidance() {
        let err = Document::parse("{\n \"schema\": 99,\n \"recoveries\": [\n{}\n]\n}")
            .expect_err("unknown schema must be rejected");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn gate_fails_only_beyond_the_rise_tolerance() {
        let base = vec![cell("trial0", 50.0, 100.0)];
        // 14% slower rebuild: tolerated, but noted as drift.
        let ok = vec![cell("trial0", 57.0, 100.0)];
        let out = compare(&base, &ok);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("drift"));
        // 20% slower data recovery: fails.
        let slow = vec![cell("trial0", 50.0, 120.0)];
        let out = compare(&base, &slow);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("data recovery"));
        // Faster: an improvement passes (with a drift note).
        let better = vec![cell("trial0", 40.0, 80.0)];
        assert!(!compare(&base, &better).failed());
    }

    #[test]
    fn missing_cells_always_fail() {
        let base = vec![cell("trial0", 50.0, 100.0), cell("integrity", 10.0, 20.0)];
        let partial = vec![cell("trial0", 50.0, 100.0)];
        let out = compare(&base, &partial);
        assert!(out.failed());
        assert_eq!(
            out.verdicts[1].failures,
            ["cell missing from the current recoveries"]
        );
    }
}
