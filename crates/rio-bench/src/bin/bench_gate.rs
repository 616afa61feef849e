//! Regression gate over the committed `BENCH.json`.
//!
//! Measures by running every figure (`rio_bench::fig::ALL`), which
//! prints its tables as its bench does and files each run as one grid
//! cell, then the §6.5 recovery trials. Loads the baseline and compares
//! both sections — the grid and the recoveries — against that
//! measurement (or an ingested document), failing (exit 1) on a missing
//! cell, any rise in a grid cell's event count, a >15% rise in its
//! group p99 or a >10% drop in its KIOPS, or a >15% rise in either
//! phase of any recovery cell, with a per-cell report. A figure's own
//! check (exactly-once delivery, the integrity ledger, fairness, the
//! Table 1 layout) failing panics the run. Every column is virtual time
//! or a count, so the verdict is a function of the tree alone.
//! Malformed or wrong-schema files and unknown arguments exit 2.
//!
//! Usage:
//!
//! ```sh
//! bench_gate                         # re-run every figure vs BENCH.json
//! bench_gate --current run.json      # ingest a measurement instead
//! bench_gate --baseline other.json   # compare against another baseline
//! bench_gate --write out.json        # measure and write; nothing is gated
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rio_bench::gate::{compare, Document, Trajectory};
use rio_bench::sweep::Recorder;
use rio_bench::{fig, recovery};

const USAGE: &str = "usage: bench_gate [--baseline PATH] [--current PATH] [--write PATH]";

/// Runs every figure and every recovery trial of the document.
fn measure() -> Document {
    let mut rec = Recorder::default();
    for figure in fig::ALL {
        figure(&mut rec);
    }
    Document {
        grid: rec.cells,
        recoveries: recovery::trajectory(),
    }
}

fn load(path: &str, role: &str) -> Result<Document, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {role} {path}: {e}"))?;
    Document::parse(&text).map_err(|e| format!("{role} {path}: {e}"))
}

/// Judges one section, prints its per-cell report and verdict line,
/// and returns whether it failed.
fn gate<C: Trajectory>(baseline: &[C], current: &[C]) -> bool {
    let out = compare(baseline, current);
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
    // The simulation is deterministic, so any event-count drift means
    // the engine's behavior changed — name every drifted cell with its
    // expected and measured counts so the change is attributable.
    let notes = out
        .verdicts
        .iter()
        .flat_map(|v| v.notes.iter().map(move |n| (&v.key, n)));
    let drifted: Vec<_> = notes
        .filter(|(_, n)| n.contains("event-count drift"))
        .collect();
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
        println!(
            "bench_gate: {section} PASS ({} cells compared)",
            out.verdicts.len()
        );
    }
    out.failed()
}

fn real_main() -> Result<bool, String> {
    let (mut baseline, mut current, mut write) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path = match arg.as_str() {
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            "--write" => &mut write,
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        };
        *path = Some(args.next().ok_or(format!("{arg} needs a path\n{USAGE}"))?);
    }

    if let Some(path) = write {
        std::fs::write(&path, measure().render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("bench_gate: wrote {path}");
        return Ok(false);
    }

    // crates/rio-bench -> repo root.
    let baseline =
        baseline.unwrap_or_else(|| format!("{}/../../BENCH.json", env!("CARGO_MANIFEST_DIR")));
    let baseline = load(&baseline, "baseline")?;
    let current = match current {
        Some(path) => load(&path, "current")?,
        None => {
            println!("bench_gate: re-running the figures and the recoveries");
            measure()
        }
    };
    let grid = gate(&baseline.grid, &current.grid);
    let recoveries = gate(&baseline.recoveries, &current.recoveries);
    Ok(grid | recoveries)
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
