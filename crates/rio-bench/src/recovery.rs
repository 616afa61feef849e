//! The §6.5 crash trial: the run behind each row of the paper's
//! recovery-time table.
//!
//! §6.5 recovery time is pure virtual time — `(config, seed)` fixes
//! both phases to the nanosecond. A trial runs through the figure's
//! [`Recorder`], so it is one grid cell whose `rebuild_ms` and
//! `data_recovery_ms` columns the gate holds to
//! [`crate::sweep::MAX_RECOVERY_RISE`], as it does every faulted run a
//! figure prints.

use rio_sim::SimTime;
use rio_stack::{ClusterConfig, FaultPlan, OrderingMode, RecoveryMetrics, Workload};

use crate::sweep::Recorder;

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
/// that `trial` picks. Files the run as the open table's cell at row
/// `RIO (sim)`, column `trial{trial}`, and returns its recovery.
///
/// # Panics
///
/// Panics if the run breaks a run law ([`rio_stack::laws`]).
pub fn trial(rec: &mut Recorder, trial: u64, threads: usize) -> RecoveryMetrics {
    let mut cfg = trial_cfg(1000 + trial, threads);
    let crash_ns = 2_000_000 + (trial * 137_911) % 4_000_000;
    cfg.faults = FaultPlan::crash_all_at(SimTime::from_nanos(crash_ns));
    let wl = Workload::random_4k(threads, 1_000_000);
    let mut m = rec.run("RIO (sim)", &format!("trial{trial}"), cfg, wl);
    m.recoveries.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use crate::gate::{compare, Document};
    use crate::json::Record;
    use crate::sweep::Cell;

    /// A §6.5 trial cell with the two phases given, in ms.
    fn cell(trial: &str, rebuild_ms: f64, data_recovery_ms: f64) -> Cell {
        Cell {
            table: "§6.5: mean over 30 crash trials".into(),
            series: "RIO (sim)".into(),
            axis: trial.into(),
            events: 90_000,
            sim_span_secs: 0.2,
            blocks_done: 20_000,
            group_p99_us: 300.0,
            kiops: 100.0,
            rebuild_ms,
            data_recovery_ms,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let grid = vec![cell("trial0", 52.125, 110.5), cell("trial1", 12.0, 30.25)];
        let parsed = Document::parse(&Document { grid }.render())
            .expect("parse")
            .grid;
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[1].key_label(),
            "§6.5: mean over 30 crash trials | RIO (sim) @ trial1"
        );
        assert!((parsed[0].rebuild_ms - 52.125).abs() < 1e-9);
        assert!((parsed[1].data_recovery_ms - 30.25).abs() < 1e-9);
    }

    #[test]
    fn wrong_schema_is_rejected_with_guidance() {
        // A schema-7 file, whose trials sat in a `recoveries` section.
        let err = Document::parse("{\n \"schema\": 7,\n \"recoveries\": [\n{}\n]\n}")
            .expect_err("a schema-7 file must be rejected");
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
        assert!(out.verdicts[0].notes[0].contains("order rebuild drift"));
        assert!(out.verdicts[0].notes[0].contains("recovery is deterministic"));
        // 20% slower data recovery: fails.
        let slow = vec![cell("trial0", 50.0, 120.0)];
        let out = compare(&base, &slow);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("data recovery regression"));
        // Faster: an improvement passes (with a drift note).
        let better = vec![cell("trial0", 40.0, 80.0)];
        assert!(!compare(&base, &better).failed());
        // A fault-free cell's zero phases are never a regression.
        let (calm, faulted) = (cell("span", 0.0, 0.0), cell("span", 1.0, 1.0));
        assert!(!compare(&[calm], &[faulted]).failed());
    }

    #[test]
    fn missing_cells_always_fail() {
        let base = vec![cell("trial0", 50.0, 100.0), cell("trial1", 10.0, 20.0)];
        let partial = vec![cell("trial0", 50.0, 100.0)];
        let out = compare(&base, &partial);
        assert!(out.failed());
        assert_eq!(
            out.verdicts[1].failures,
            ["cell missing from the current grid"]
        );
    }
}
