//! The trajectory mechanism behind the one committed `BENCH.json`.
//!
//! A [`Document`] holds one section, the `grid`: one [`Cell`] per run
//! a figure prints, §6.5's crash trials included. Every column in it
//! is virtual time or a count, so `(tree, seed)` fixes the whole
//! file and `bench_gate --write` reproduces it byte for byte on any
//! machine. The cell's field list ([`Record`]) is what
//! [`Document::render`] and [`Document::parse`] (over the crate's one
//! JSON reader, [`crate::json::read`]) both walk, and its rule table
//! ([`Cell::RULES`]) is what [`compare`] judges with. The gate loads
//! the committed baseline, obtains a current measurement of the same
//! cells (re-run or ingested), matches the two by cell identity and
//! fails with a per-cell report when a metric moved beyond its
//! tolerance in the direction that is worse. Any smaller movement
//! leaves a note: the baseline should be regenerated deliberately,
//! because drift in a deterministic column means *behavior* changed,
//! which is not by itself a performance regression.

use crate::json::{fill, read, write_members, Record, Value};
use crate::sweep::Cell;

/// Schema version written, and the only one read. Versions 1–4 were
/// the three per-section files this document replaced; version 5 held
/// the figure slices in a section of their own; version 6 keyed the
/// grid by cluster shape and size; version 7 keyed it by where a figure
/// prints the run, beside a `recoveries` section, where 8 files §6.5's
/// trials in the grid with two recovery-phase columns.
pub const SCHEMA: u64 = 8;

/// How to regenerate the file, completing "regenerate …".
const REGEN: &str =
    "with `cargo run --release -p rio-bench --bin bench_gate -- --write BENCH.json`";

/// One gated metric of a grid cell.
pub struct Rule {
    /// What reports call the metric.
    pub stem: &'static str,
    /// Reads the metric off a cell.
    pub metric: fn(&Cell) -> f64,
    /// Relative movement beyond which the gate fails: negative when a
    /// drop is the regression (throughput), positive or zero when a
    /// rise is (zero: any rise at all). Unread when `exact`.
    pub limit: f64,
    /// Whether the metric is a size the workload fixes, so any change,
    /// either way, fails.
    pub exact: bool,
    /// Prints a value with its precision and unit.
    pub show: fn(f64) -> String,
    /// The subject of the note left when the metric moves at all
    /// without failing; `None` when [`Cell::workload_drift`] words
    /// that note itself.
    pub drift: Option<&'static str>,
}

/// `BENCH.json`, parsed or measured.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// The grid: one cell per run a figure prints ([`crate::sweep`]).
    pub grid: Vec<Cell>,
}

impl Document {
    /// Renders the document's text. The header's `total_events` is the
    /// sum of `events` over every grid cell; the reader skips it.
    pub fn render(&self) -> String {
        let total_events: u64 = self.grid.iter().map(|c| c.events).sum();
        let mut out = format!(
            "{{\n  \"schema\": {SCHEMA},\n  \"harness\": \"bench_gate\",\n  \
             \"total_events\": {total_events}"
        );
        write_section(&mut out, &self.grid);
        out + "\n}\n"
    }

    /// Parses a document, rejecting any other schema with a
    /// regeneration hint, and a missing or empty grid.
    pub fn parse(text: &str) -> Result<Document, String> {
        let doc = read(text)?;
        let Some(Value::Int(schema)) = doc.get("schema").cloned() else {
            return Err("missing integer field \"schema\" in document header".to_string());
        };
        if schema != SCHEMA {
            return Err(format!(
                "schema mismatch: file has schema {schema}, this gate reads schema {SCHEMA} \
                 (regenerate {REGEN})"
            ));
        }
        Ok(Document {
            grid: read_section(&doc)?,
        })
    }
}

fn write_section(out: &mut String, cells: &[Cell]) {
    out.push_str(&format!(",\n  \"{}\": [\n", Cell::SECTION));
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    {");
        write_members(out, c);
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]");
}

fn read_section(doc: &Value) -> Result<Vec<Cell>, String> {
    let section = Cell::SECTION;
    let Some(Value::Array(items)) = doc.get(section) else {
        return Err(format!("no \"{section}\" array in document"));
    };
    let cells = items.iter().enumerate();
    let cells = cells.map(|(i, v)| fill(v, &format!("{section} cell {i}")));
    let cells = cells.collect::<Result<Vec<Cell>, _>>()?;
    if cells.is_empty() {
        return Err(format!("no cells in \"{section}\""));
    }
    Ok(cells)
}

/// Verdict on one baseline cell.
#[derive(Debug, Clone)]
pub struct CellVerdict {
    /// Human-readable cell identity.
    pub key: String,
    /// Hard failures (any non-empty entry fails the gate).
    pub failures: Vec<String>,
    /// Non-gating observations (event-count drift, improvements).
    pub notes: Vec<String>,
}

/// The outcome of the grid's gate.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// One verdict per baseline cell.
    pub verdicts: Vec<CellVerdict>,
}

impl GateOutcome {
    /// Whether any compared cell regressed.
    pub fn failed(&self) -> bool {
        self.verdicts.iter().any(|v| !v.failures.is_empty())
    }
}

impl Rule {
    /// A rule that leaves no drift note of its own; the exceptions are
    /// spelled by struct update.
    pub const fn new(
        stem: &'static str,
        metric: fn(&Cell) -> f64,
        limit: f64,
        show: fn(f64) -> String,
    ) -> Self {
        Rule {
            stem,
            metric,
            limit,
            show,
            drift: None,
            exact: false,
        }
    }

    fn check(&self, v: &mut CellVerdict, cur: &Cell, base: &Cell) {
        let (cur, base) = ((self.metric)(cur), (self.metric)(base));
        let (stem, show) = (self.stem, self.show);
        if !(cur.is_finite() && base.is_finite()) {
            // Every threshold below is a `<` / `>` on floats, which a
            // NaN would sail through.
            v.failures
                .push(format!("{stem} is not finite: {cur} vs baseline {base}"));
            return;
        }
        if self.exact {
            if cur != base {
                v.failures.push(format!(
                    "{stem} changed: {} vs baseline {} — the workload is fixed, so this \
                     is another run",
                    show(cur),
                    show(base)
                ));
            }
            return;
        }
        let bound = base * (1.0 + self.limit);
        if base > 0.0
            && if self.limit < 0.0 {
                cur < bound
            } else {
                cur > bound
            }
        {
            v.failures.push(format!(
                "{stem} regression: {} vs baseline {} ({:+.1}%, tolerance {:+.0}%)",
                show(cur),
                show(base),
                (cur / base - 1.0) * 100.0,
                self.limit * 100.0
            ));
        } else if let (Some(subject), true) = (self.drift, (cur - base).abs() > 1e-6) {
            v.notes.push(format!(
                "{stem} drift: {} vs baseline {} — {subject} deterministic; \
                 regenerate the baseline deliberately",
                show(cur),
                show(base)
            ));
        }
    }
}

/// Compares current cells against the baseline, matched by identity. A
/// baseline cell absent from `current` fails.
pub fn compare(baseline: &[Cell], current: &[Cell]) -> GateOutcome {
    let current_keys: Vec<String> = current.iter().map(Record::key_label).collect();
    let mut out = GateOutcome::default();
    for base in baseline {
        let mut v = CellVerdict {
            key: base.key_label(),
            failures: Vec::new(),
            notes: Vec::new(),
        };
        if let Some(at) = current_keys.iter().position(|k| *k == v.key) {
            let cur = &current[at];
            for rule in Cell::RULES {
                rule.check(&mut v, cur, base);
            }
            v.notes.extend(cur.workload_drift(base));
        } else {
            v.failures
                .push(format!("cell missing from the current {}", Cell::SECTION));
        }
        out.verdicts.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(table: &str, series: &str, events: u64, p99: f64) -> Cell {
        Cell {
            table: table.into(),
            series: series.into(),
            axis: "2".into(),
            events,
            sim_span_secs: 0.2,
            blocks_done: 1_000,
            group_p99_us: p99,
            kiops: 5.0,
            ..Cell::default()
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let written = Document {
            grid: vec![
                cell("fig10b_optane", "RIO", 500_000, 45.5),
                cell("fig10b_optane", "Linux", 9_602, 20.25),
            ],
        };
        let parsed = Document::parse(&written.render()).expect("parse");
        assert_eq!(parsed.grid, written.grid);
        assert_eq!(parsed.grid[0].events, 500_000);
        assert_eq!(parsed.grid[1].series, "Linux");
        assert!((parsed.grid[0].group_p99_us - 45.5).abs() < 1e-9);
        assert_eq!(parsed.render(), written.render());
    }

    #[test]
    fn old_schema_is_rejected_with_guidance() {
        // Schemas 4 and 1 are the three files this document replaced;
        // schema 5 kept the figure slices apart, 6 keyed the grid by
        // cluster shape and size, and 7 kept a `recoveries` section.
        for old in [1, 2, 4, 5, 6, 7, 99] {
            let text = Document {
                grid: vec![cell("x", "RIO", 1, 1.0)],
            }
            .render()
            .replace(
                &format!("\"schema\": {SCHEMA}"),
                &format!("\"schema\": {old}"),
            );
            let err = Document::parse(&text).expect_err("any other schema must be rejected");
            assert!(err.contains("schema mismatch"), "{err}");
            assert!(err.contains("regenerate"), "{err}");
            assert!(err.contains("--write"), "{err}");
        }
    }

    #[test]
    fn a_missing_or_empty_section_is_rejected_naming_it() {
        let err = Document::parse(&Document { grid: Vec::new() }.render()).expect_err("empty grid");
        assert_eq!(err, "no cells in \"grid\"");
        let renamed = Document {
            grid: vec![cell("x", "RIO", 1, 1.0)],
        }
        .render()
        .replace("\"grid\": [", "\"other\": [");
        let err = Document::parse(&renamed).expect_err("missing grid");
        assert_eq!(err, "no \"grid\" array in document");
        // The section schema 7 kept beside the grid is no longer read.
        let old = renamed.replace("\"other\": [", "\"recoveries\": [");
        let err = Document::parse(&old).expect_err("no grid");
        assert_eq!(err, "no \"grid\" array in document");
    }

    #[test]
    fn thresholds_gate_regressions_only() {
        let base = vec![cell("fig10b_optane", "RIO", 500_000, 100.0)];
        // 14% worse p99: inside tolerance, noted.
        let ok = vec![cell("fig10b_optane", "RIO", 500_000, 114.0)];
        let out = compare(&base, &ok);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("group p99 drift"));
        // One event more: the exact gate fires, with both counts.
        let busier = vec![cell("fig10b_optane", "RIO", 500_001, 100.0)];
        let out = compare(&base, &busier);
        assert!(out.failed());
        let failure = &out.verdicts[0].failures[0];
        assert!(
            failure.contains("events regression: 500001 vs baseline 500000"),
            "{failure}"
        );
        // 30% worse p99: tail gate fires.
        let tail = vec![cell("fig10b_optane", "RIO", 500_000, 130.0)];
        let out = compare(&base, &tail);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("p99"));
        // Fewer events and tighter: improvements pass.
        let better = vec![cell("fig10b_optane", "RIO", 400_000, 50.0)];
        assert!(!compare(&base, &better).failed());
    }

    #[test]
    fn event_drift_warns_but_does_not_fail() {
        let base = vec![cell("fig10b_optane", "RIO", 500_000, 100.0)];
        let drifted = vec![cell("fig10b_optane", "RIO", 490_000, 100.0)];
        let out = compare(&base, &drifted);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("drift"));
    }

    #[test]
    fn group_mismatch_is_incomparable() {
        // A cell is where its run prints: the same run filed under
        // another column is another cell, and the baseline's is missing.
        let base = vec![cell("fig10b_optane", "RIO", 500_000, 100.0)];
        let mut moved = base.clone();
        moved[0].axis = "4".into();
        let out = compare(&base, &moved);
        assert!(out.failed());
        assert_eq!(
            out.verdicts[0].failures,
            ["cell missing from the current grid"]
        );
    }

    #[test]
    fn non_finite_metrics_fail_instead_of_passing() {
        let good = vec![cell("fig10b_optane", "RIO", 500_000, 100.0)];
        let nan = vec![cell("fig10b_optane", "RIO", 500_000, f64::NAN)];
        // Measured NaN: no `>` threshold fires, so it must be its own failure.
        let out = compare(&good, &nan);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("group p99 is not finite"));
        // A non-finite baseline can vouch for nothing either.
        assert!(compare(&nan, &good).failed());
        let inf = vec![cell("fig10b_optane", "RIO", 500_000, f64::INFINITY)];
        assert!(compare(&inf, &inf).failed());
    }
}
