//! Byte-level pins of the `BENCH.json` document format, part by part,
//! and of the committed baseline's round trip, so a refactor of the
//! writer, reader or gate cannot move a byte or a verdict unnoticed.

use rio_bench::gate::{compare, Document};
use rio_bench::json::Record;
use rio_bench::sweep::Cell;

const BENCH: &str = include_str!("../../../BENCH.json");

/// The table §6.5's crash trials print under.
const T65: &str = "§6.5: mean over 30 crash trials, 36 threads, 4 SSDs, 2 targets";

/// Five grid cells (a sweep cell, a lossy one, a run that fills its
/// row, one that fills its column and a §6.5 crash trial); each pin
/// below checks its own part of the one rendering.
fn document() -> Document {
    let cell = |table: &str, series: &str, axis: &str| Cell {
        table: String::from(table),
        series: String::from(series),
        axis: String::from(axis),
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
                ..cell("Figure 10(b): 1 Optane SSD", "RIO", "2")
            },
            Cell {
                events: 9_602,
                sim_span_secs: 1.5,
                blocks_done: 1_200,
                group_p99_us: 20.25,
                kiops: 0.8,
                ..cell("Lossy fabric, 2 path(s)", "Linux", "0.001")
            },
            Cell {
                events: 54_321,
                sim_span_secs: 0.008520,
                blocks_done: 6_000,
                group_p99_us: 41.5,
                kiops: 704.25,
                ..cell("Figure 14: 1 thread", "RIOFS(sim)", "")
            },
            Cell {
                events: 77,
                sim_span_secs: 0.000012,
                blocks_done: 1_600,
                group_p99_us: 9.0,
                kiops: 9.1234567,
                ..cell("QoS weights", "", "2:1")
            },
            Cell {
                events: 40_656,
                sim_span_secs: 0.002058,
                blocks_done: 9_267,
                group_p99_us: 802.816,
                kiops: 4503.578515,
                rebuild_ms: 54.151836,
                data_recovery_ms: 30.1536,
                ..cell(T65, "RIO (sim)", "trial0")
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
    // The header and the grid's first cells: the document's first bytes.
    let doc = document().render();
    assert_eq!(
        between(&doc, "{", "    {\"table\": \"Figure 14"),
        r#"{
  "schema": 8,
  "harness": "bench_gate",
  "total_events": 105656,
  "grid": [
    {"table": "Figure 10(b): 1 Optane SSD", "series": "RIO", "axis": "2", "events": 1000, "sim_span_secs": 0.250000, "blocks_done": 400, "group_p99_us": 123.457, "kiops": 1.600000, "rebuild_ms": 0.000000, "data_recovery_ms": 0.000000},
    {"table": "Lossy fabric, 2 path(s)", "series": "Linux", "axis": "0.001", "events": 9602, "sim_span_secs": 1.500000, "blocks_done": 1200, "group_p99_us": 20.250, "kiops": 0.800000, "rebuild_ms": 0.000000, "data_recovery_ms": 0.000000},
"#
    );
}

#[test]
fn fig_document_bytes_are_pinned() {
    // A run that fills its row or its column writes the other key as
    // an empty string, which its label leaves out.
    let doc = document().render();
    assert_eq!(
        between(
            &doc,
            "    {\"table\": \"Figure 14",
            "    {\"table\": \"§6.5"
        ),
        r#"    {"table": "Figure 14: 1 thread", "series": "RIOFS(sim)", "axis": "", "events": 54321, "sim_span_secs": 0.008520, "blocks_done": 6000, "group_p99_us": 41.500, "kiops": 704.250000, "rebuild_ms": 0.000000, "data_recovery_ms": 0.000000},
    {"table": "QoS weights", "series": "", "axis": "2:1", "events": 77, "sim_span_secs": 0.000012, "blocks_done": 1600, "group_p99_us": 9.000, "kiops": 9.123457, "rebuild_ms": 0.000000, "data_recovery_ms": 0.000000},
"#
    );
    let labels: Vec<String> = document().grid.iter().map(Record::key_label).collect();
    assert_eq!(
        labels[1..],
        [
            "Lossy fabric, 2 path(s) | Linux @ 0.001",
            "Figure 14: 1 thread | RIOFS(sim)",
            "QoS weights @ 2:1",
            format!("{T65} | RIO (sim) @ trial0").as_str(),
        ]
    );
}

#[test]
fn recovery_document_bytes_are_pinned() {
    // A faulted cell's line, with both recovery phases, and the closing
    // brace: the last bytes.
    let doc = document().render();
    assert_eq!(
        &doc[doc.find("    {\"table\": \"§6.5").expect("cell starts")..],
        r#"    {"table": "§6.5: mean over 30 crash trials, 36 threads, 4 SSDs, 2 targets", "series": "RIO (sim)", "axis": "trial0", "events": 40656, "sim_span_secs": 0.002058, "blocks_done": 9267, "group_p99_us": 802.816, "kiops": 4503.578515, "rebuild_ms": 54.151836, "data_recovery_ms": 30.153600}
  ]
}
"#
    );
}

#[test]
fn committed_fig_and_recovery_baselines_round_trip_byte_for_byte() {
    // One grid, §6.5's 30 crash trials among its cells.
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    let trials = doc.grid.iter().filter(|c| c.table == T65);
    assert_eq!(trials.count(), 30);
    assert!(!BENCH.contains("recoveries"));
    assert_eq!(doc.render(), BENCH);
}

#[test]
fn committed_sim_baseline_rerenders_its_stored_fields_unchanged() {
    // Every column is stored, none derived from a rounded one, so each
    // cell reads back equal from its own rendering — and the header
    // total, which the reader skips, is the writer's fresh sum.
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    assert_eq!(doc.grid.len(), 430);
    for cell in &doc.grid {
        let alone = Document {
            grid: vec![cell.clone()],
        };
        let back = Document::parse(&alone.render()).expect("a cell parses alone");
        assert_eq!(back.grid, std::slice::from_ref(cell));
    }
    let total: u64 = doc.grid.iter().map(|c| c.events).sum();
    assert!(BENCH.contains(&format!("\"total_events\": {total},")));
}

#[test]
fn committed_baselines_pass_their_own_gates_without_a_note() {
    let doc = Document::parse(BENCH).expect("BENCH.json parses");
    let grid = compare(&doc.grid, &doc.grid);
    assert_eq!(grid.verdicts.len(), 430);
    for v in &grid.verdicts {
        assert!(v.failures.is_empty() && v.notes.is_empty(), "{v:?}");
    }
}
