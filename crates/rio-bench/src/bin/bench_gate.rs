//! Regression gate over the committed `BENCH.json`.
//!
//! Loads the baseline and compares it, section by section, against a
//! current measurement — a re-run, or an ingested document — failing
//! (exit 1) on any rise in an engine cell's event count or a >15% rise
//! in its group p99, a >10% drop in any figure cell's KIOPS, or a >15%
//! rise in either phase of any recovery cell, with a per-cell report.
//! Every column is virtual time or a count, so the verdict is a
//! function of the tree alone. Malformed or wrong-schema files and
//! unknown arguments exit 2.
//!
//! Usage:
//!
//! ```sh
//! bench_gate                         # full re-run vs BENCH.json
//! bench_gate --smoke                 # CI: re-run a subset of the engine grid
//! bench_gate --current run.json      # ingest a measurement instead
//! bench_gate --baseline other.json   # compare against another baseline
//! bench_gate --write out.json        # measure and write; nothing is gated
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rio_bench::gate::{compare, Document, Trajectory};
use rio_bench::sweep::{run_spec, smoke_subset, specs};
use rio_bench::{fig, recovery};

const USAGE: &str = "usage: bench_gate [--baseline PATH] [--current PATH] [--smoke] [--write PATH]";

/// Runs every cell of the document (with `smoke`, only the engine
/// grid's CI-affordable full-sized subset).
fn measure(smoke: bool) -> Document {
    let grid = specs(false).into_iter().filter(|s| !smoke || smoke_subset(s));
    Document {
        engine: grid.map(|s| run_spec(&s)).collect(),
        figures: fig::trajectory(),
        recoveries: recovery::trajectory(),
    }
}

fn load(path: &str, role: &str) -> Result<Document, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {role} {path}: {e}"))?;
    Document::parse(&text).map_err(|e| format!("{role} {path}: {e}"))
}

/// Judges one section, prints its per-cell report and verdict line,
/// and returns whether it failed.
fn gate<C: Trajectory>(baseline: &[C], current: &[C], require_all: bool) -> bool {
    let out = compare(baseline, current, require_all);
    for v in &out.verdicts {
        if v.failures.is_empty() {
            println!("PASS {}", v.key);
        } else {
            println!("FAIL {}", v.key);
            for f in &v.failures {
                println!("     {f}");
            }
        }
        for n in &v.notes {
            println!("     note: {n}");
        }
    }
    if !out.uncovered.is_empty() {
        println!("({} baseline cells not covered by this run)", out.uncovered.len());
    }
    // The simulation is deterministic, so any event-count drift means
    // the engine's behavior changed — name every drifted cell with its
    // expected and measured counts so the change is attributable.
    let notes = out.verdicts.iter().flat_map(|v| v.notes.iter().map(move |n| (&v.key, n)));
    let drifted: Vec<_> = notes.filter(|(_, n)| n.contains("event-count drift")).collect();
    if !drifted.is_empty() {
        println!(
            "bench_gate: WARNING — deterministic event counts drifted in {} cell(s):",
            drifted.len()
        );
        for (key, n) in drifted {
            println!("  {key}: {n}");
        }
    }
    let section = C::SECTION;
    if out.failed() {
        println!("bench_gate: {section} FAIL — regressed beyond tolerance");
    } else {
        println!("bench_gate: {section} PASS ({} cells compared)", out.verdicts.len());
    }
    out.failed()
}

fn real_main() -> Result<bool, String> {
    let (mut baseline, mut current, mut write, mut smoke) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path = match arg.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            "--write" => &mut write,
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        };
        *path = Some(args.next().ok_or(format!("{arg} needs a path\n{USAGE}"))?);
    }

    if let Some(path) = write {
        std::fs::write(&path, measure(false).render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("bench_gate: wrote {path}");
        return Ok(false);
    }

    // crates/rio-bench -> repo root.
    let baseline = baseline
        .unwrap_or_else(|| format!("{}/../../BENCH.json", env!("CARGO_MANIFEST_DIR")));
    let baseline = load(&baseline, "baseline")?;
    let current = match current {
        Some(path) => load(&path, "current")?,
        None => {
            println!(
                "bench_gate: re-running {}, the figures and the recoveries",
                if smoke { "the engine grid's smoke subset" } else { "the full engine grid" }
            );
            measure(smoke)
        }
    };
    let engine = gate(&baseline.engine, &current.engine, !smoke);
    let figures = gate(&baseline.figures, &current.figures, true);
    let recoveries = gate(&baseline.recoveries, &current.recoveries, true);
    Ok(engine | figures | recoveries)
}

fn main() {
    std::process::exit(match real_main() {
        Ok(failed) => failed as i32,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            2
        }
    });
}
