//! Byte-level pins of the `BENCH.json` document format, section by
//! section, and of the committed baseline's round trip, so a refactor
//! of the writer, reader or gates cannot move a byte or a verdict
//! unnoticed.

use rio_bench::fig::FigCell;
use rio_bench::gate::{compare, Document};
use rio_bench::recovery::RecoveryCell;
use rio_bench::sweep::Cell;

const BENCH: &str = include_str!("../../../BENCH.json");

/// Two cells per section; each pin below checks its own section of the
/// one rendering.
fn document() -> Document {
    Document {
        engine: vec![
            Cell {
                figure: "fig10b_optane".into(),
                mode: "RIO".into(),
                threads: 2,
                initiators: 1,
                loss: 0.0,
                paths: 1,
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
                events: 9_602,
                sim_span_secs: 1.5,
                blocks_done: 1_200,
                groups: 1_200,
                group_p99_us: 20.25,
            },
        ],
        figures: vec![
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
        ],
        recoveries: vec![
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
        ],
    }
}

/// The text from `from` up to (not including) `to`.
fn between<'a>(doc: &'a str, from: &str, to: &str) -> &'a str {
    let start = doc.find(from).expect("section starts");
    &doc[start..start + doc[start..].find(to).expect("section ends")]
}

#[test]
fn sim_document_bytes_are_pinned() {
    // The header and the `engine` section: the document's first bytes.
    let doc = document().render();
    assert_eq!(
        between(&doc, "{", "  \"figures\""),
        r#"{
  "schema": 5,
  "harness": "bench_gate",
  "total_events": 10602,
  "engine": [
    {"figure": "fig10b_optane", "mode": "RIO", "threads": 2, "initiators": 1, "loss": 0, "paths": 1, "events": 1000, "sim_span_secs": 0.250000, "blocks_done": 400, "groups": 100, "group_p99_us": 123.457},
    {"figure": "lossy_fabric", "mode": "Linux", "threads": 4, "initiators": 1, "loss": 0.001, "paths": 2, "events": 9602, "sim_span_secs": 1.500000, "blocks_done": 1200, "groups": 1200, "group_p99_us": 20.250}
  ],
"#
    );
}

#[test]
fn fig_document_bytes_are_pinned() {
    let doc = document().render();
    assert_eq!(
        between(&doc, "  \"figures\"", "  \"recoveries\""),
        r#"  "figures": [
    {"figure": "fig10a", "mode": "RIO", "threads": 2, "initiators": 1, "targets": 1, "loss": 0.000000, "paths": 1, "kiops": 704.250000, "groups": 6000},
    {"figure": "fig_multi", "mode": "orderless", "threads": 4, "initiators": 4, "targets": 2, "loss": 0.001000, "paths": 2, "kiops": 9.123457, "groups": 1600}
  ],
"#
    );
}

#[test]
fn recovery_document_bytes_are_pinned() {
    // The `recoveries` section and the closing brace: the last bytes.
    let doc = document().render();
    assert_eq!(
        &doc[doc.find("  \"recoveries\"").expect("section starts")..],
        r#"  "recoveries": [
    {"label": "trial0", "threads": 8, "order_rebuild_ms": 54.151836, "data_recovery_ms": 30.153600, "records": 4673, "discards": 767},
    {"label": "integrity-rot", "threads": 8, "order_rebuild_ms": 0.500000, "data_recovery_ms": 125.000000, "records": 12, "discards": 0}
  ]
}
"#
    );
}

/// The committed document and its re-rendering, each split where the
/// `figures` section starts.
fn committed_and_rerendered(doc: &Document) -> [(String, String); 2] {
    [BENCH.to_string(), doc.render()].map(|text| {
        let (head, tail) = text.split_once("  \"figures\"").expect("figures section");
        (head.to_string(), tail.to_string())
    })
}

#[test]
fn committed_fig_and_recovery_baselines_round_trip_byte_for_byte() {
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    assert_eq!(doc.figures.len(), 31);
    assert_eq!(doc.recoveries.len(), 6);
    let [committed, rerendered] = committed_and_rerendered(&doc);
    assert_eq!(rerendered.1, committed.1);
}

#[test]
fn committed_sim_baseline_rerenders_its_stored_fields_unchanged() {
    // Every column is stored, none derived from a rounded one, so the
    // engine section re-renders exactly too — and so does the header
    // total, which the reader skips and the writer sums afresh.
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    assert_eq!(doc.engine.len(), 44);
    let [committed, rerendered] = committed_and_rerendered(&doc);
    assert_eq!(rerendered.0, committed.0);
}

#[test]
fn committed_baselines_pass_their_own_gates_without_a_note() {
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    for (name, out) in [
        ("engine", compare(&doc.engine, &doc.engine, true)),
        ("figures", compare(&doc.figures, &doc.figures, true)),
        ("recoveries", compare(&doc.recoveries, &doc.recoveries, true)),
    ] {
        assert!(out.uncovered.is_empty(), "{name}");
        for v in &out.verdicts {
            assert!(v.failures.is_empty() && v.notes.is_empty(), "{name} {v:?}");
        }
    }
    assert_eq!(compare(&doc.engine, &doc.engine, true).verdicts.len(), 44);
}
