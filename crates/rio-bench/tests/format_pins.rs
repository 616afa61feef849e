//! Byte-level pins of the three `BENCH_*.json` document formats and
//! of the committed baselines' round trip, so a refactor of the
//! writers, readers or gates cannot move a byte or a verdict unnoticed.

use rio_bench::fig::{render_fig_json, FigCell};
use rio_bench::gate::{compare, parse};
use rio_bench::json::Record;
use rio_bench::recovery::{render_recovery_json, RecoveryCell};
use rio_bench::sweep::{render_json, Cell};

const BENCH_SIM: &str = include_str!("../../../BENCH_sim.json");
const BENCH_FIG: &str = include_str!("../../../BENCH_fig.json");
const BENCH_RECOVERY: &str = include_str!("../../../BENCH_recovery.json");

#[test]
fn sim_document_bytes_are_pinned() {
    let cells = [
        Cell {
            figure: "fig10b_optane".into(),
            mode: "RIO".into(),
            threads: 2,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            wall_secs: 0.5,
            events: 1_000,
            sim_span_secs: 0.25,
            blocks_done: 400,
            groups: 100,
            group_p99_us: 123.4567,
        },
        Cell {
            figure: "lossy_fabric".into(),
            mode: "Linux".into(),
            threads: 4,
            initiators: 1,
            loss: 0.001,
            paths: 2,
            wall_secs: 0.25,
            events: 9_602,
            sim_span_secs: 1.5,
            blocks_done: 1_200,
            groups: 1_200,
            group_p99_us: 20.25,
        },
    ];
    assert_eq!(
        render_json(&cells, true, 0.0625),
        r#"{
  "schema": 4,
  "harness": "sim_engine",
  "smoke": true,
  "calib_secs": 0.062500,
  "total_wall_secs": 0.750000,
  "total_events": 10602,
  "events_per_sec": 14136,
  "figures": [
    {"figure": "fig10b_optane", "mode": "RIO", "threads": 2, "initiators": 1, "loss": 0, "paths": 1, "wall_secs": 0.500000, "events": 1000, "events_per_sec": 2000, "sim_span_secs": 0.250000, "blocks_done": 400, "groups": 100, "group_p99_us": 123.457},
    {"figure": "lossy_fabric", "mode": "Linux", "threads": 4, "initiators": 1, "loss": 0.001, "paths": 2, "wall_secs": 0.250000, "events": 9602, "events_per_sec": 38408, "sim_span_secs": 1.500000, "blocks_done": 1200, "groups": 1200, "group_p99_us": 20.250}
  ]
}
"#
    );
}

#[test]
fn fig_document_bytes_are_pinned() {
    let cells = [
        FigCell {
            figure: "fig10a".into(),
            mode: "RIO".into(),
            threads: 2,
            initiators: 1,
            targets: 1,
            loss: 0.0,
            paths: 1,
            kiops: 704.25,
            groups: 6_000,
        },
        FigCell {
            figure: "fig_multi".into(),
            mode: "orderless".into(),
            threads: 4,
            initiators: 4,
            targets: 2,
            loss: 0.001,
            paths: 2,
            kiops: 9.1234567,
            groups: 1_600,
        },
    ];
    assert_eq!(
        render_fig_json(&cells),
        r#"{
  "schema": 1,
  "harness": "fig_trajectory",
  "figures": [
    {"figure": "fig10a", "mode": "RIO", "threads": 2, "initiators": 1, "targets": 1, "loss": 0.000000, "paths": 1, "kiops": 704.250000, "groups": 6000},
    {"figure": "fig_multi", "mode": "orderless", "threads": 4, "initiators": 4, "targets": 2, "loss": 0.001000, "paths": 2, "kiops": 9.123457, "groups": 1600}
  ]
}
"#
    );
}

#[test]
fn recovery_document_bytes_are_pinned() {
    let cells = [
        RecoveryCell {
            label: "trial0".into(),
            threads: 8,
            order_rebuild_ms: 54.151836,
            data_recovery_ms: 30.1536,
            records: 4_673,
            discards: 767,
        },
        RecoveryCell {
            label: "integrity-rot".into(),
            threads: 8,
            order_rebuild_ms: 0.5,
            data_recovery_ms: 125.0,
            records: 12,
            discards: 0,
        },
    ];
    assert_eq!(
        render_recovery_json(&cells),
        r#"{
  "schema": 1,
  "harness": "t65_recovery_time",
  "recoveries": [
    {"label": "trial0", "threads": 8, "order_rebuild_ms": 54.151836, "data_recovery_ms": 30.153600, "records": 4673, "discards": 767},
    {"label": "integrity-rot", "threads": 8, "order_rebuild_ms": 0.500000, "data_recovery_ms": 125.000000, "records": 12, "discards": 0}
  ]
}
"#
    );
}

#[test]
fn committed_fig_and_recovery_baselines_round_trip_byte_for_byte() {
    let fig = parse::<FigCell>(BENCH_FIG).expect("BENCH_fig.json parses");
    assert_eq!(fig.cells.len(), 31);
    assert_eq!(render_fig_json(&fig.cells), BENCH_FIG);
    let rec = parse::<RecoveryCell>(BENCH_RECOVERY).expect("BENCH_recovery.json parses");
    assert_eq!(rec.cells.len(), 6);
    assert_eq!(render_recovery_json(&rec.cells), BENCH_RECOVERY);
}

/// Splits a document into its text with every value of `key` blanked,
/// and those values in order.
fn mask(doc: &str, key: &str) -> (String, Vec<f64>) {
    let needle = format!("\"{key}\": ");
    let (mut text, mut values, mut rest) = (String::new(), Vec::new(), doc);
    while let Some(at) = rest.find(&needle) {
        let (head, tail) = rest.split_at(at + needle.len());
        let end = tail.find([',', '}', '\n']).expect("value ends");
        text.push_str(head);
        values.push(tail[..end].parse().expect("numeric value"));
        rest = &tail[end..];
    }
    text.push_str(rest);
    (text, values)
}

#[test]
fn committed_sim_baseline_rerenders_its_stored_fields_unchanged() {
    let file = parse::<Cell>(BENCH_SIM).expect("BENCH_sim.json parses");
    assert_eq!(file.cells.len(), 44);
    assert!(!file.header.smoke);
    let again = render_json(&file.cells, file.header.smoke, file.header.calib_secs);
    // Everything stored re-renders byte-for-byte. The derived fields
    // are recomputed from the 6-decimal `wall_secs` the file keeps, so
    // per-cell events/s may move by one unit and the totals by the
    // accumulated rounding of 44 cells.
    let (want_text, want_eps) = mask(BENCH_SIM, "events_per_sec");
    let (got_text, got_eps) = mask(&again, "events_per_sec");
    let (want_text, want_wall) = mask(&want_text, "total_wall_secs");
    let (got_text, got_wall) = mask(&got_text, "total_wall_secs");
    assert_eq!(got_text, want_text);
    assert_eq!(got_eps.len(), 45, "one header total plus one per cell");
    assert!((got_wall[0] - want_wall[0]).abs() < 44.0 * 1e-6);
    assert!((got_eps[0] / want_eps[0] - 1.0).abs() < 1e-4, "header events/s");
    for (cell, (got, want)) in file.cells.iter().zip(got_eps.iter().zip(&want_eps).skip(1)) {
        // A cell of w wall seconds stored to 6 decimals carries a
        // relative error of at most 0.5e-6 / w.
        let slack = 1.0 + want * 0.5e-6 / cell.wall_secs;
        assert!((got - want).abs() <= slack, "{}: {got} vs {want}", cell.key_label());
    }
}

#[test]
fn committed_baselines_pass_their_own_gates_without_a_note() {
    let sim = parse::<Cell>(BENCH_SIM).expect("sim").cells;
    let fig = parse::<FigCell>(BENCH_FIG).expect("fig").cells;
    let rec = parse::<RecoveryCell>(BENCH_RECOVERY).expect("recovery").cells;
    for (name, out) in [
        ("sim", compare(&sim, &sim, true, 1.0)),
        ("fig", compare(&fig, &fig, true, 1.0)),
        ("recovery", compare(&rec, &rec, true, 1.0)),
    ] {
        assert!(out.uncovered.is_empty(), "{name}");
        for v in &out.verdicts {
            assert!(v.failures.is_empty() && v.notes.is_empty(), "{name} {v:?}");
        }
    }
    assert_eq!(compare(&sim, &sim, true, 1.0).verdicts.len(), 44);
}
