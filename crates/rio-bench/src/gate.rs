//! The trajectory mechanism behind all three `BENCH_*.json` gates.
//!
//! A [`Trajectory`] is a cell type plus everything that differs between
//! the documents: the header, the field list ([`Record`]) that
//! [`render`] and [`parse`] (over the crate's one JSON reader,
//! [`crate::json::read`]) both walk, and the rule table [`compare`]
//! judges with. A gate loads the committed baseline, obtains a current
//! measurement of the same cells (re-run or ingested), matches the two
//! by cell identity and fails with a per-cell report when a metric
//! moved beyond its tolerance in the direction that is worse.
//! Sub-threshold movement of a deterministic metric only leaves a note
//! — the baseline should be regenerated deliberately, and drift in a
//! deterministic workload count means *behavior* changed, which is not
//! by itself a performance regression.

use crate::json::{fill, read, write_members, Record, Value};

/// Maximum tolerated drop in events per wall-clock second.
pub const MAX_EPS_DROP: f64 = 0.10;

/// Maximum tolerated rise in the deterministic group p99.
pub const MAX_P99_RISE: f64 = 0.15;

/// One gated metric of a trajectory.
pub struct Rule<C> {
    /// What reports call the metric.
    pub stem: &'static str,
    /// Reads the metric off a cell.
    pub metric: fn(&C) -> f64,
    /// Relative movement beyond which the gate fails: negative when a
    /// drop is the regression (throughput), positive when a rise is.
    pub limit: f64,
    /// Prints a value with its precision and unit.
    pub show: fn(f64) -> String,
    /// Whether the baseline is first divided by the machine factor
    /// (wall-clock metrics only).
    pub machine_scaled: bool,
    /// For a deterministic metric, the subject of the note left when it
    /// moves at all without failing; `None` for noisy metrics.
    pub drift: Option<&'static str>,
}

/// A `BENCH_*.json` document — a header object (schema, harness name,
/// the [`Trajectory::Header`] fields) holding one array of cells — and
/// the rules its gate judges the cells by.
pub trait Trajectory: Record {
    /// Header fields after `schema` and `harness`.
    type Header: Record;
    /// Schema version written, and the only one read.
    const SCHEMA: u64;
    /// The bench that writes the document.
    const HARNESS: &'static str;
    /// Name of the cell array.
    const ARRAY: &'static str;
    /// How to regenerate the file, completing "regenerate …".
    const REGEN: &'static str;
    /// What a baseline cell no current cell matches is missing from.
    const CURRENT: &'static str;
    /// The gated metrics.
    const RULES: &'static [Rule<Self>];

    /// Rejects a header no gate can use.
    fn check_header(_header: &Self::Header) -> Result<(), String> {
        Ok(())
    }

    /// Why nothing about `self` can be judged against `base`, if so.
    fn incomparable(&self, _base: &Self) -> Option<String> {
        None
    }

    /// The note left when the deterministic workload size differs.
    fn workload_drift(&self, base: &Self) -> Option<String>;
}

/// A parsed document.
#[derive(Debug, Clone)]
pub struct File<C: Trajectory> {
    /// Schema version (always [`Trajectory::SCHEMA`]; others are rejected).
    pub schema: u64,
    /// The document's own header fields.
    pub header: C::Header,
    /// The measured cells.
    pub cells: Vec<C>,
}

/// Renders `cells` under `header` as the document's text.
pub fn render<C: Trajectory>(header: &C::Header, cells: &[C]) -> String {
    let mut out = format!("{{\n  \"schema\": {},\n  \"harness\": \"{}\",\n", C::SCHEMA, C::HARNESS);
    write_members(&mut out, header, ["  ", "", ",\n"]);
    out.push_str(&format!("  \"{}\": [\n", C::ARRAY));
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    {");
        write_members(&mut out, c, ["", ", ", ""]);
        out.push_str(if i + 1 < cells.len() { "},\n" } else { "}\n" });
    }
    out + "  ]\n}\n"
}

/// Parses a document, rejecting unknown schemas with a regeneration
/// hint, unusable headers and empty cell arrays.
pub fn parse<C: Trajectory>(text: &str) -> Result<File<C>, String> {
    let doc = read(text)?;
    let Some(Value::Int(schema)) = doc.get("schema").cloned() else {
        return Err("missing integer field \"schema\" in document header".to_string());
    };
    if schema != C::SCHEMA {
        return Err(format!(
            "schema mismatch: file has schema {schema}, this gate reads schema {} (regenerate {})",
            C::SCHEMA,
            C::REGEN
        ));
    }
    let header = fill::<C::Header>(&doc, "document header")?;
    C::check_header(&header)?;
    let Some(Value::Array(items)) = doc.get(C::ARRAY) else {
        return Err(format!("no \"{}\" array in document", C::ARRAY));
    };
    let cells = items.iter().enumerate().map(|(i, v)| fill(v, &format!("cell {i}")));
    let cells = cells.collect::<Result<Vec<C>, _>>()?;
    if cells.is_empty() {
        return Err(format!("no cells in \"{}\"", C::ARRAY));
    }
    Ok(File { schema, header, cells })
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

/// The whole gate outcome.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// One verdict per compared baseline cell.
    pub verdicts: Vec<CellVerdict>,
    /// Baseline cells the current measurement did not cover.
    pub uncovered: Vec<String>,
}

impl GateOutcome {
    /// Whether any compared cell regressed.
    pub fn failed(&self) -> bool {
        self.verdicts.iter().any(|v| !v.failures.is_empty())
    }
}

impl<C> Rule<C> {
    /// A rule over a noisy metric no machine factor applies to; the
    /// exceptions are spelled by struct update.
    pub const fn new(
        stem: &'static str,
        metric: fn(&C) -> f64,
        limit: f64,
        show: fn(f64) -> String,
    ) -> Self {
        Rule { stem, metric, limit, show, machine_scaled: false, drift: None }
    }

    fn check(&self, v: &mut CellVerdict, cur: &C, base: &C, machine_factor: f64) {
        let factor = if self.machine_scaled { machine_factor } else { 1.0 };
        let (cur, raw_base) = ((self.metric)(cur), (self.metric)(base));
        let base = raw_base / factor;
        let (stem, show) = (self.stem, self.show);
        if !(cur.is_finite() && base.is_finite()) {
            // Every threshold below is a `<` / `>` on floats, which a
            // NaN would sail through.
            v.failures.push(format!("{stem} is not finite: {cur} vs baseline {base}"));
            return;
        }
        let bound = base * (1.0 + self.limit);
        if base > 0.0 && if self.limit < 0.0 { cur < bound } else { cur > bound } {
            let scaled = if (factor - 1.0).abs() > 1e-9 {
                format!(" (raw baseline {} x machine factor {factor:.3})", show(raw_base))
            } else {
                String::new()
            };
            v.failures.push(format!(
                "{stem} regression: {} vs baseline {}{scaled} ({:+.1}%, tolerance {:+.0}%)",
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

/// Compares current cells against the baseline. Baseline cells absent
/// from `current` are listed as uncovered; with `require_all` they fail
/// the gate (a full run must cover the whole grid; a `--smoke` subset
/// legitimately covers less; the deterministic trajectories always
/// pass `true`).
///
/// `machine_factor` is current-machine calibration time over baseline
/// calibration time (>1 = the current host is slower); machine-scaled
/// rules compare against the baseline divided by it, so host speed
/// differences don't masquerade as engine regressions. Pass 1.0 to
/// compare raw.
pub fn compare<C: Trajectory>(
    baseline: &[C],
    current: &[C],
    require_all: bool,
    machine_factor: f64,
) -> GateOutcome {
    let machine_factor = if machine_factor.is_finite() && machine_factor > 0.0 {
        machine_factor
    } else {
        1.0
    };
    let current_keys: Vec<String> = current.iter().map(Record::key_label).collect();
    let mut out = GateOutcome::default();
    for base in baseline {
        let mut v = CellVerdict {
            key: base.key_label(),
            failures: Vec::new(),
            notes: Vec::new(),
        };
        let Some(at) = current_keys.iter().position(|k| *k == v.key) else {
            out.uncovered.push(v.key.clone());
            if require_all {
                v.failures.push(format!("cell missing from current {}", C::CURRENT));
                out.verdicts.push(v);
            }
            continue;
        };
        let cur = &current[at];
        if let Some(why) = cur.incomparable(base) {
            v.failures.push(why);
        } else {
            for rule in C::RULES {
                rule.check(&mut v, cur, base, machine_factor);
            }
            v.notes.extend(cur.workload_drift(base));
        }
        out.verdicts.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{render_json, Cell, SCHEMA};

    fn cell(figure: &str, mode: &str, wall: f64, events: u64, p99: f64) -> Cell {
        Cell {
            figure: figure.into(),
            mode: mode.into(),
            threads: 2,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            wall_secs: wall,
            events,
            sim_span_secs: 0.2,
            blocks_done: 1_000,
            groups: 1_000,
            group_p99_us: p99,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let cells = vec![
            cell("fig10b_optane", "RIO", 0.2, 500_000, 45.5),
            cell("fig10b_optane", "Linux", 0.001, 9_602, 20.25),
        ];
        let parsed = parse::<Cell>(&render_json(&cells, false, 0.0625)).expect("parse");
        assert_eq!(parsed.schema, SCHEMA);
        assert!(!parsed.header.smoke);
        assert!((parsed.header.calib_secs - 0.0625).abs() < 1e-9);
        assert_eq!(parsed.cells.len(), 2);
        assert_eq!(parsed.cells[0].events, 500_000);
        assert_eq!(parsed.cells[1].mode, "Linux");
        assert!((parsed.cells[0].group_p99_us - 45.5).abs() < 1e-9);
    }

    #[test]
    fn old_schema_is_rejected_with_guidance() {
        let err = parse::<Cell>("{\n \"schema\": 2,\n \"figures\": [\n{\"figure\": \"x\"}\n]\n}")
            .expect_err("schema 2 must be rejected");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn thresholds_gate_regressions_only() {
        let base = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0)];
        // 9% slower and 14% worse p99: inside tolerance.
        let ok = vec![cell("fig10b_optane", "RIO", 0.2 / 0.91, 500_000, 114.0)];
        assert!(!compare(&base, &ok, true, 1.0).failed());
        // 20% slower: events/s gate fires.
        let slow = vec![cell("fig10b_optane", "RIO", 0.25, 500_000, 100.0)];
        let out = compare(&base, &slow, true, 1.0);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("events/s"));
        // 30% worse p99: tail gate fires.
        let tail = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 130.0)];
        let out = compare(&base, &tail, true, 1.0);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("p99"));
        // Faster and tighter: improvements pass.
        let better = vec![cell("fig10b_optane", "RIO", 0.1, 500_000, 50.0)];
        assert!(!compare(&base, &better, true, 1.0).failed());
    }

    #[test]
    fn machine_factor_rescales_the_events_per_sec_gate() {
        let base = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0)];
        // 25% slower wall clock: a raw comparison fails...
        let slow = vec![cell("fig10b_optane", "RIO", 0.25, 500_000, 100.0)];
        assert!(compare(&base, &slow, true, 1.0).failed());
        // ...but if calibration says this machine is 25% slower, it passes.
        assert!(!compare(&base, &slow, true, 1.25).failed());
        // A real regression on top of the slow machine still fails:
        // machine is 25% slower, but the run is 60% slower.
        let worse = vec![cell("fig10b_optane", "RIO", 0.32, 500_000, 100.0)];
        let out = compare(&base, &worse, true, 1.25);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("machine factor"));
        // The factor never loosens the deterministic p99 gate.
        let tail = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 130.0)];
        assert!(compare(&base, &tail, true, 1.25).failed());
        // Degenerate factors fall back to a raw comparison.
        assert!(compare(&base, &slow, true, 0.0).failed());
        assert!(compare(&base, &slow, true, f64::NAN).failed());
    }

    #[test]
    fn event_drift_warns_but_does_not_fail() {
        let base = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0)];
        let drifted = vec![cell("fig10b_optane", "RIO", 0.2, 490_000, 100.0)];
        let out = compare(&base, &drifted, true, 1.0);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("drift"));
    }

    #[test]
    fn missing_cells_fail_only_full_runs() {
        let base = vec![
            cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0),
            cell("fig10b_optane", "Linux", 0.001, 9_602, 20.0),
        ];
        let partial = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0)];
        assert!(compare(&base, &partial, true, 1.0).failed());
        let out = compare(&base, &partial, false, 1.0);
        assert!(!out.failed());
        assert_eq!(out.uncovered.len(), 1);
    }

    #[test]
    fn group_mismatch_is_incomparable() {
        let base = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0)];
        let mut shrunk = base.clone();
        shrunk[0].groups = 100;
        let out = compare(&base, &shrunk, true, 1.0);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("shape drift"));
    }

    #[test]
    fn non_finite_metrics_fail_instead_of_passing() {
        let good = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, 100.0)];
        let nan = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, f64::NAN)];
        // Measured NaN: no `>` threshold fires, so it must be its own failure.
        let out = compare(&good, &nan, true, 1.0);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("group p99 is not finite"));
        // A non-finite baseline can vouch for nothing either.
        assert!(compare(&nan, &good, true, 1.0).failed());
        let inf = vec![cell("fig10b_optane", "RIO", 0.2, 500_000, f64::INFINITY)];
        assert!(compare(&inf, &inf, true, 1.0).failed());
    }
}
