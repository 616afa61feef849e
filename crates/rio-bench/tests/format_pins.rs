//! Byte-level pins of the `BENCH.json` document format, section by
//! section, and of the committed baseline's round trip, so a refactor
//! of the writer, reader or gates cannot move a byte or a verdict
//! unnoticed.

use rio_bench::gate::{compare, Document};
use rio_bench::recovery::RecoveryCell;
use rio_bench::sweep::Cell;

const BENCH: &str = include_str!("../../../BENCH.json");

/// Four grid cells (two engine cells, then two figure slices) and two
/// recoveries; each pin below checks its own part of the one rendering.
fn document() -> Document {
    let cell = |figure: &str, mode: &str, threads, initiators, loss, paths, groups| Cell {
        figure: String::from(figure),
        mode: String::from(mode),
        threads,
        initiators,
        loss,
        paths,
        groups,
        ..Cell::default()
    };
    Document {
        grid: vec![
            Cell {
                events: 1_000,
                sim_span_secs: 0.25,
                blocks_done: 400,
                group_p99_us: 123.4567,
                kiops: 1.6,
                ..cell("fig10b_optane", "RIO", 2, 1, 0.0, 1, 100)
            },
            Cell {
                events: 9_602,
                sim_span_secs: 1.5,
                blocks_done: 1_200,
                group_p99_us: 20.25,
                kiops: 0.8,
                ..cell("lossy_fabric", "Linux", 4, 1, 0.001, 2, 1_200)
            },
            Cell {
                events: 54_321,
                sim_span_secs: 0.008520,
                blocks_done: 6_000,
                group_p99_us: 41.5,
                kiops: 704.25,
                ..cell("fig10a_flash", "RIO", 2, 1, 0.0, 1, 6_000)
            },
            Cell {
                events: 77,
                sim_span_secs: 0.000012,
                blocks_done: 1_600,
                group_p99_us: 9.0,
                kiops: 9.1234567,
                ..cell("multi_initiator", "orderless", 4, 4, 0.001, 2, 1_600)
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
    // The header and the grid's engine cells: the document's first bytes.
    let doc = document().render();
    assert_eq!(
        between(&doc, "{", "    {\"figure\": \"fig10a_flash\""),
        r#"{
  "schema": 6,
  "harness": "bench_gate",
  "total_events": 65000,
  "grid": [
    {"figure": "fig10b_optane", "mode": "RIO", "threads": 2, "initiators": 1, "loss": 0, "paths": 1, "groups": 100, "events": 1000, "sim_span_secs": 0.250000, "blocks_done": 400, "group_p99_us": 123.457, "kiops": 1.600000},
    {"figure": "lossy_fabric", "mode": "Linux", "threads": 4, "initiators": 1, "loss": 0.001, "paths": 2, "groups": 1200, "events": 9602, "sim_span_secs": 1.500000, "blocks_done": 1200, "group_p99_us": 20.250, "kiops": 0.800000},
"#
    );
}

#[test]
fn fig_document_bytes_are_pinned() {
    // The figure slices are rows of the same grid, in the same format.
    let doc = document().render();
    assert_eq!(
        between(
            &doc,
            "    {\"figure\": \"fig10a_flash\"",
            "  \"recoveries\""
        ),
        r#"    {"figure": "fig10a_flash", "mode": "RIO", "threads": 2, "initiators": 1, "loss": 0, "paths": 1, "groups": 6000, "events": 54321, "sim_span_secs": 0.008520, "blocks_done": 6000, "group_p99_us": 41.500, "kiops": 704.250000},
    {"figure": "multi_initiator", "mode": "orderless", "threads": 4, "initiators": 4, "loss": 0.001, "paths": 2, "groups": 1600, "events": 77, "sim_span_secs": 0.000012, "blocks_done": 1600, "group_p99_us": 9.000, "kiops": 9.123457}
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
/// figure slices start: after the grid's 44 engine cells.
fn committed_and_rerendered(doc: &Document) -> [(String, String); 2] {
    [BENCH.to_string(), doc.render()].map(|text| {
        let at = text
            .match_indices("\n    {\"figure\"")
            .nth(44)
            .expect("figure slices")
            .0;
        (text[..at].to_string(), text[at..].to_string())
    })
}

#[test]
fn committed_fig_and_recovery_baselines_round_trip_byte_for_byte() {
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    let slices = rio_bench::fig::slices();
    assert_eq!(slices.len(), 31);
    assert!(doc.grid[44..]
        .iter()
        .map(|c| c.figure.as_str())
        .eq(slices.iter().map(|s| s.figure)));
    assert_eq!(doc.recoveries.len(), 6);
    let [committed, rerendered] = committed_and_rerendered(&doc);
    assert_eq!(rerendered.1, committed.1);
}

#[test]
fn committed_sim_baseline_rerenders_its_stored_fields_unchanged() {
    // Every column is stored, none derived from a rounded one, so the
    // engine cells re-render exactly too — and so does the header
    // total, which the reader skips and the writer sums afresh.
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    assert_eq!(doc.grid.len(), 75);
    let [committed, rerendered] = committed_and_rerendered(&doc);
    assert_eq!(rerendered.0, committed.0);
}

#[test]
fn committed_baselines_pass_their_own_gates_without_a_note() {
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    let grid = compare(&doc.grid, &doc.grid);
    let recoveries = compare(&doc.recoveries, &doc.recoveries);
    assert_eq!((grid.verdicts.len(), recoveries.verdicts.len()), (75, 6));
    for v in grid.verdicts.iter().chain(&recoveries.verdicts) {
        assert!(v.failures.is_empty() && v.notes.is_empty(), "{v:?}");
    }
}
