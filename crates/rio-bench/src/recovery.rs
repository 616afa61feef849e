//! The `BENCH_recovery.json` recovery-time regression gate.
//!
//! §6.5 recovery time is pure virtual time — `(config, seed)` fixes
//! both phases to the nanosecond — so unlike the wall-clock engine
//! gate there is no machine factor and no retry logic: the trajectory
//! either reproduces or the recovery path's *cost model* changed. The
//! gate fails on a >15% rise in either phase of any cell; drops
//! (improvements) and sub-threshold drift only warn, flagging that the
//! baseline should be regenerated deliberately.
//!
//! The trajectory covers four crash trials at staggered instants plus
//! two integrity cells (a torn write and at-rest bit rot, both with
//! the post-quiesce scrub), so a regression in the scrub/repair pass
//! is gated alongside the classic scan/merge/discard phases.
//!
//! Regenerate with:
//!
//! ```sh
//! cargo bench -p rio-bench --bench t65_recovery_time -- --out BENCH_recovery.json
//! ```

use std::fmt::Write;

use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    Cluster, ClusterConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode, TargetConfig, Workload,
};

use crate::gate::{lookup, object_pairs, parse_f64, parse_u64, parse_usize};
use crate::gate::{CellVerdict, GateOutcome};

/// Schema version of `BENCH_recovery.json`.
pub const RECOVERY_SCHEMA: u64 = 1;

/// Maximum tolerated rise in either deterministic recovery phase.
pub const MAX_RECOVERY_RISE: f64 = 0.15;

/// One measured recovery in the trajectory.
#[derive(Debug, Clone)]
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

impl RecoveryCell {
    /// Stable comparison key.
    pub fn key(&self) -> (&str, usize) {
        (&self.label, self.threads)
    }

    /// Human-readable identity.
    pub fn key_label(&self) -> String {
        format!("recovery {} t={}", self.label, self.threads)
    }
}

/// A parsed `BENCH_recovery.json` document.
#[derive(Debug, Clone)]
pub struct RecoveryFile {
    /// Schema version (always [`RECOVERY_SCHEMA`]).
    pub schema: u64,
    /// The measured cells.
    pub cells: Vec<RecoveryCell>,
}

fn trial_cfg(seed: u64, threads: usize) -> ClusterConfig {
    ClusterConfig {
        seed,
        mode: OrderingMode::Rio { merge: true },
        initiator_cores: threads,
        targets: vec![
            TargetConfig {
                ssds: vec![SsdProfile::pm981(), SsdProfile::optane905p()],
                cores: threads,
            },
            TargetConfig {
                ssds: vec![SsdProfile::pm981(), SsdProfile::p4800x()],
                cores: threads,
            },
        ],
        fabric: rio_net::FabricProfile::connectx6(),
        net: Default::default(),
        cpu: Default::default(),
        streams: threads,
        qps_per_target: threads,
        stripe_blocks: 1,
        max_inflight_per_stream: 96,
        plug_merge: true,
        pin_stream_to_qp: true,
        integrity: false,
        faults: Default::default(),
        trace: None,
        telemetry: None,
        initiators: Vec::new(),
    }
}

/// Runs the deterministic recovery trajectory: four one-shot crash
/// trials at staggered instants, then one survivable integrity run
/// with a torn-write crash followed by at-rest bit rot, whose
/// data-recovery phases include the post-quiesce scrub and any
/// payload repairs.
pub fn trajectory() -> Vec<RecoveryCell> {
    let threads = 8;
    let mut cells = Vec::new();
    for trial in 0..4u64 {
        let mut cfg = trial_cfg(1000 + trial, threads);
        let wl = Workload::random_4k(threads, 1_000_000);
        let crash_ns = 2_000_000 + (trial * 137_911) % 4_000_000;
        cfg.faults = FaultPlan::crash_all_at(SimTime::from_nanos(crash_ns));
        let r = &Cluster::new(cfg, wl).run().recoveries[0];
        cells.push(RecoveryCell {
            label: format!("trial{trial}"),
            threads,
            order_rebuild_ms: r.order_rebuild.as_secs_f64() * 1e3,
            data_recovery_ms: r.data_recovery.as_secs_f64() * 1e3,
            records: r.records_scanned as u64,
            discards: r.discards as u64,
        });
    }
    // The integrity cell: payload bytes on the wire and on media, a
    // power failure that tears the in-flight write, bit rot injected
    // at rest, and a recovery that scrubs and repairs — survivable, so
    // the workload completes after the crash.
    let mut cfg = trial_cfg(9000, threads);
    cfg.integrity = true;
    cfg.faults = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_nanos(2_500_000),
                kind: FaultKind::TornWrite {
                    targets: Vec::new(),
                },
                resume: true,
            },
            FaultEvent {
                at: SimTime::from_nanos(5_000_000),
                kind: FaultKind::BitRot {
                    targets: Vec::new(),
                    flips: 2,
                },
                resume: true,
            },
        ],
    };
    let m = Cluster::new(cfg, Workload::fsync_append(threads, 1_500)).run();
    let named = [
        ("integrity-torn", &m.recoveries[0]),
        ("integrity-rot", &m.recoveries[1]),
    ];
    for (label, r) in named {
        cells.push(RecoveryCell {
            label: label.to_string(),
            threads,
            order_rebuild_ms: r.order_rebuild.as_secs_f64() * 1e3,
            data_recovery_ms: r.data_recovery.as_secs_f64() * 1e3,
            records: r.records_scanned as u64,
            discards: r.discards as u64,
        });
    }
    cells
}

/// Renders the cells as the `BENCH_recovery.json` document.
pub fn render_recovery_json(cells: &[RecoveryCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {RECOVERY_SCHEMA},");
    let _ = writeln!(out, "  \"harness\": \"t65_recovery_time\",");
    out.push_str("  \"recoveries\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"label\": \"{}\", \"threads\": {}, \
             \"order_rebuild_ms\": {:.6}, \"data_recovery_ms\": {:.6}, \
             \"records\": {}, \"discards\": {}}}",
            c.label, c.threads, c.order_rebuild_ms, c.data_recovery_ms, c.records, c.discards,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_recovery.json` document, rejecting unknown schemas.
pub fn parse_recovery(json: &str) -> Result<RecoveryFile, String> {
    let (head, recoveries) = json
        .split_once("\"recoveries\"")
        .ok_or("no \"recoveries\" array in document")?;
    let head_pairs = object_pairs(head);
    let schema = parse_u64(&head_pairs, "schema", "document header")?;
    if schema != RECOVERY_SCHEMA {
        return Err(format!(
            "schema mismatch: file has schema {schema}, this gate reads schema \
             {RECOVERY_SCHEMA} (regenerate with `cargo bench -p rio-bench --bench \
             t65_recovery_time -- --out BENCH_recovery.json`)"
        ));
    }
    let recoveries = recoveries
        .trim_start()
        .strip_prefix(':')
        .ok_or("malformed \"recoveries\" array")?
        .trim_start()
        .strip_prefix('[')
        .ok_or("malformed \"recoveries\" array")?;
    let mut cells = Vec::new();
    let mut rest = recoveries;
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or("unterminated cell object in \"recoveries\"")?;
        let body = &rest[open + 1..open + close];
        let pairs = object_pairs(body);
        let ctx = format!("recovery cell {}", cells.len());
        cells.push(RecoveryCell {
            label: lookup(&pairs, "label", &ctx)?.to_string(),
            threads: parse_usize(&pairs, "threads", &ctx)?,
            order_rebuild_ms: parse_f64(&pairs, "order_rebuild_ms", &ctx)?,
            data_recovery_ms: parse_f64(&pairs, "data_recovery_ms", &ctx)?,
            records: parse_u64(&pairs, "records", &ctx)?,
            discards: parse_u64(&pairs, "discards", &ctx)?,
        });
        rest = &rest[open + close + 1..];
    }
    if cells.is_empty() {
        return Err("no cells in \"recoveries\"".to_string());
    }
    Ok(RecoveryFile { schema, cells })
}

fn check_phase(v: &mut CellVerdict, phase: &str, cur: f64, base: f64) {
    if base > 0.0 && cur > base * (1.0 + MAX_RECOVERY_RISE) {
        v.failures.push(format!(
            "{phase} regression: {cur:.3} ms vs baseline {base:.3} ms \
             ({:+.1}%, tolerance +{:.0}%)",
            (cur / base - 1.0) * 100.0,
            MAX_RECOVERY_RISE * 100.0
        ));
    } else if (cur - base).abs() > 1e-6 {
        v.notes.push(format!(
            "{phase} drift: {cur:.3} ms vs baseline {base:.3} ms — recovery is \
             deterministic; regenerate the baseline deliberately"
        ));
    }
}

/// Compares current recovery cells against the baseline. Recovery is
/// deterministic virtual time: every baseline cell must be covered,
/// and a >[`MAX_RECOVERY_RISE`] rise in either phase fails.
pub fn compare_recovery(baseline: &[RecoveryCell], current: &[RecoveryCell]) -> GateOutcome {
    let mut out = GateOutcome::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.key() == base.key()) else {
            out.uncovered.push(base.key_label());
            out.verdicts.push(CellVerdict {
                key: base.key_label(),
                failures: vec!["cell missing from current trajectory".to_string()],
                notes: Vec::new(),
            });
            continue;
        };
        let mut v = CellVerdict {
            key: base.key_label(),
            failures: Vec::new(),
            notes: Vec::new(),
        };
        check_phase(&mut v, "order rebuild", cur.order_rebuild_ms, base.order_rebuild_ms);
        check_phase(&mut v, "data recovery", cur.data_recovery_ms, base.data_recovery_ms);
        if (cur.records, cur.discards) != (base.records, base.discards) {
            v.notes.push(format!(
                "workload drift: {} records / {} discards vs baseline {} / {}",
                cur.records, cur.discards, base.records, base.discards
            ));
        }
        out.verdicts.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cells = vec![cell("trial0", 52.125, 110.5), cell("integrity", 12.0, 30.25)];
        let parsed = parse_recovery(&render_recovery_json(&cells)).expect("parse");
        assert_eq!(parsed.schema, RECOVERY_SCHEMA);
        assert_eq!(parsed.cells.len(), 2);
        assert_eq!(parsed.cells[1].label, "integrity");
        assert!((parsed.cells[0].order_rebuild_ms - 52.125).abs() < 1e-9);
        assert!((parsed.cells[1].data_recovery_ms - 30.25).abs() < 1e-9);
    }

    #[test]
    fn wrong_schema_is_rejected_with_guidance() {
        let err = parse_recovery("{\n \"schema\": 99,\n \"recoveries\": [\n{}\n]\n}")
            .expect_err("unknown schema must be rejected");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn gate_fails_only_beyond_the_rise_tolerance() {
        let base = vec![cell("trial0", 50.0, 100.0)];
        // 14% slower rebuild: tolerated, but noted as drift.
        let ok = vec![cell("trial0", 57.0, 100.0)];
        let out = compare_recovery(&base, &ok);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("drift"));
        // 20% slower data recovery: fails.
        let slow = vec![cell("trial0", 50.0, 120.0)];
        let out = compare_recovery(&base, &slow);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("data recovery"));
        // Faster: an improvement passes (with a drift note).
        let better = vec![cell("trial0", 40.0, 80.0)];
        assert!(!compare_recovery(&base, &better).failed());
    }

    #[test]
    fn missing_cells_always_fail() {
        let base = vec![cell("trial0", 50.0, 100.0), cell("integrity", 10.0, 20.0)];
        let partial = vec![cell("trial0", 50.0, 100.0)];
        let out = compare_recovery(&base, &partial);
        assert!(out.failed());
        assert_eq!(out.uncovered.len(), 1);
    }
}
