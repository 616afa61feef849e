//! Performance-regression gate over `BENCH_sim.json`,
//! `BENCH_recovery.json` and `BENCH_fig.json`.
//!
//! Loads the committed baselines and compares them against current
//! measurements, failing (exit 1) on a >10% events/s drop or a >15%
//! deterministic group-p99 rise in any engine cell, a >15% rise in
//! either virtual-time phase of any recovery-trajectory cell, or a
//! >10% drop in any figure-trajectory cell's deterministic KIOPS, with
//! a per-cell report. Malformed or wrong-schema files exit 2.
//!
//! Usage:
//!
//! ```sh
//! bench_gate                         # full re-run vs BENCH_sim.json
//! bench_gate --smoke                 # CI: re-run the full-sized subset
//! bench_gate --current run.json      # ingest an existing measurement
//! bench_gate --baseline other.json   # compare against another baseline
//! bench_gate --recovery other.json   # recovery trajectory baseline
//! bench_gate --no-recovery           # skip the recovery trajectory
//! bench_gate --fig other.json        # figure trajectory baseline
//! bench_gate --fig-current run.json  # ingest a figure measurement
//! bench_gate --no-fig                # skip the figure trajectory
//! bench_gate --write-fig out.json    # regenerate the figure baseline
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rio_bench::fig::{render_fig_json, trajectory as fig_trajectory, FigCell};
use rio_bench::gate::{compare, parse, File, GateOutcome, Trajectory, MAX_EPS_DROP};
use rio_bench::json::Record;
use rio_bench::recovery::{trajectory, RecoveryCell};
use rio_bench::sweep::{calibrate, run_spec, smoke_subset, specs, Cell};

/// A committed baseline's default location.
fn default_path(name: &str) -> String {
    // crates/rio-bench -> repo root.
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

/// The `--current`-style measurement a gate was handed, if any; its
/// load error is the judge's to raise, after it has vetted the baseline.
type Ingested<C> = Result<Option<File<C>>, String>;

/// Runs one trajectory's gate: loads the baseline (and the ingested
/// current measurement, if any), has `judge` compare it against the
/// ingested or a re-run measurement, prints the per-cell report and
/// the verdict line. `names` are what the baseline file and an
/// ingested measurement are called, the flag that skips this gate
/// (offered when the baseline is unreadable; "" if it cannot be
/// skipped), the PASS line's prefix and what regressed on the FAIL
/// line. Returns the exit code contribution: 0 pass, 1 regression,
/// 2 unusable file.
fn run_gate<C: Trajectory>(
    [baseline_role, current_role, skip_flag, pass, regressed]: [&str; 5],
    baseline_path: &str,
    current_path: Option<&str>,
    judge: impl FnOnce(&File<C>, Ingested<C>) -> Result<GateOutcome, String>,
) -> i32 {
    let load = |path: &str, role: &str, hint: &str| -> Result<File<C>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {role} {path}: {e}{hint}"))?;
        parse(&text).map_err(|e| format!("{role} {path}: {e}"))
    };
    let hint = match skip_flag {
        "" => String::new(),
        flag => format!("\n(generate it {}, or pass {flag})", C::REGEN),
    };
    let judged = load(baseline_path, baseline_role, &hint).and_then(|baseline| {
        let ingested = current_path.map(|path| load(path, current_role, ""));
        judge(&baseline, ingested.transpose())
    });
    let out = match judged {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return 2;
        }
    };
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
        println!(
            "({} baseline cells not covered by this run)",
            out.uncovered.len()
        );
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
    if out.failed() {
        println!("bench_gate: FAIL — {regressed} regressed beyond tolerance");
        1
    } else {
        println!("bench_gate: {pass}PASS ({} cells compared)", out.verdicts.len());
        0
    }
}

/// The judge of a deterministic virtual-time trajectory: the ingested
/// cells, or a re-run, must cover every baseline cell; there is no
/// machine factor and nothing to retry.
fn trajectory_judge<C: Trajectory>(
    noun: &'static str,
    rerun: fn() -> Vec<C>,
) -> impl FnOnce(&File<C>, Ingested<C>) -> Result<GateOutcome, String> {
    move |baseline, ingested| {
        let current = ingested?.map(|f| f.cells).unwrap_or_else(|| {
            println!(
                "bench_gate: re-running the {}-cell {noun} trajectory (virtual time, \
                 no machine factor)",
                baseline.cells.len()
            );
            rerun()
        });
        Ok(compare(&baseline.cells, &current, true, 1.0))
    }
}

/// Re-runs the engine grid (the full grid, or in `--smoke` mode its
/// CI-affordable full-sized subset) and compares it to the baseline.
/// The current machine's speed is measured so the events/s comparison
/// is normalized — a slow or busy CI host must not read as an engine
/// regression, and a fast host must not mask one.
fn remeasure(baseline: &File<Cell>, smoke: bool) -> GateOutcome {
    let base_calib = baseline.header.calib_secs;
    let calib_secs = calibrate();
    let mut machine_factor = calib_secs / base_calib;
    let grid: Vec<_> = specs(false)
        .into_iter()
        .filter(|s| !smoke || smoke_subset(s))
        .collect();
    println!(
        "bench_gate: re-running {} cell(s) ({}), machine factor {machine_factor:.3} \
         (calibration {calib_secs:.4}s vs baseline {base_calib:.4}s)",
        grid.len(),
        if smoke { "smoke subset" } else { "full grid" },
    );
    let mut current: Vec<Cell> = grid
        .iter()
        .map(|s| {
            // Wall clock is the one noisy measurement (shared CI
            // machines stall runs; the simulation itself is
            // deterministic), and the noise is one-sided — so a
            // cell that looks slower than the baseline's gate
            // threshold is re-measured a few times and the
            // fastest run kept before calling it a regression.
            // Each re-measure also re-runs the calibration loop:
            // contention that develops mid-run slows the whole
            // host, and the factor must track it or the slowdown
            // reads as an engine regression. A real regression
            // does not move the calibration loop, so the factor
            // never excuses one.
            let mut c = run_spec(s);
            let key = c.key_label();
            if let Some(base) = baseline.cells.iter().find(|b| b.key_label() == key) {
                for _ in 0..3 {
                    let floor = base.events_per_sec() / machine_factor.max(1e-9)
                        * (1.0 - MAX_EPS_DROP);
                    if c.events_per_sec() >= floor {
                        break;
                    }
                    let now = calibrate() / base_calib;
                    if now > machine_factor {
                        println!("  (machine factor {machine_factor:.3} -> {now:.3})");
                        machine_factor = now;
                    }
                    let retry = run_spec(s);
                    if retry.events_per_sec() > c.events_per_sec() {
                        c = retry;
                    }
                }
            }
            println!(
                "  measured {:>14} {:>14} t={:<2} {:>9.3}s wall {:>12} events",
                c.figure, c.mode, c.threads, c.wall_secs, c.events
            );
            c
        })
        .collect();
    let mut out = compare(&baseline.cells, &current, !smoke, machine_factor);

    // Transient host stalls hit neighboring measurements together, so a
    // cell's in-place retries can all land in the same slow window.
    // Cells whose only failure is events/s get a decorrelated second
    // look — re-measured after the rest of the sweep, tens of seconds
    // away from the window that slowed them. Deterministic failures
    // (p99, shape, missing cells) are never retried.
    for _ in 0..2 {
        let eps_only: Vec<&str> = out
            .verdicts
            .iter()
            .filter(|v| {
                !v.failures.is_empty() && v.failures.iter().all(|f| f.starts_with("events/s"))
            })
            .map(|v| v.key.as_str())
            .collect();
        if eps_only.is_empty() {
            break;
        }
        println!(
            "bench_gate: re-measuring {} cell(s) outside the slow window",
            eps_only.len()
        );
        machine_factor = machine_factor.max(calibrate() / base_calib);
        for (s, c) in grid.iter().zip(&mut current) {
            if eps_only.contains(&c.key_label().as_str()) {
                let retry = run_spec(s);
                if retry.events_per_sec() > c.events_per_sec() {
                    *c = retry;
                }
            }
        }
        out = compare(&baseline.cells, &current, !smoke, machine_factor);
    }
    out
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().collect();
    let flag_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let flag_or_default =
        |name: &str, file: &str| flag_val(name).unwrap_or_else(|| default_path(file));
    let smoke = args.iter().any(|a| a == "--smoke");

    // Regeneration mode: run the figure trajectory, write the baseline,
    // and stop — nothing is gated.
    if let Some(path) = flag_val("--write-fig") {
        let cells = fig_trajectory();
        let doc = render_fig_json(&cells);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("bench_gate: cannot write figure baseline {path}: {e}");
            return 2;
        }
        println!("bench_gate: wrote {} figure cell(s) to {path}", cells.len());
        return 0;
    }

    // The engine gate ingests a `--current` file (which carries its own
    // machine's calibration stamp) or re-measures.
    let current_path = flag_val("--current");
    let rerunning = current_path.is_none();
    let baseline_path = flag_or_default("--baseline", "BENCH_sim.json");
    let engine_code = run_gate::<Cell>(
        ["baseline", "current run", "", "", "performance"],
        &baseline_path,
        current_path.as_deref(),
        |baseline, ingested| {
            if baseline.header.smoke {
                return Err(format!(
                    "baseline {baseline_path} was written by a --smoke sweep; \
                     commit a full `cargo bench -p rio-bench --bench sim_engine` run instead"
                ));
            }
            Ok(match ingested? {
                Some(f) => {
                    let factor = f.header.calib_secs / baseline.header.calib_secs;
                    compare(&baseline.cells, &f.cells, !f.header.smoke && !smoke, factor)
                }
                None => remeasure(baseline, smoke),
            })
        },
    );
    if engine_code == 2 {
        return 2;
    }

    // The recovery trajectory rides along on live re-runs. An ingested
    // `--current` file is an engine measurement only — there is nothing
    // recovery-shaped in it to gate — and --no-recovery skips
    // explicitly.
    let recovery_code = if args.iter().any(|a| a == "--no-recovery") || !rerunning {
        0
    } else {
        run_gate::<RecoveryCell>(
            ["recovery baseline", "", "--no-recovery", "recovery ", "recovery time"],
            &flag_or_default("--recovery", "BENCH_recovery.json"),
            None,
            trajectory_judge("recovery", trajectory),
        )
    };

    // The figure trajectory likewise rides along on live re-runs, and
    // additionally gates an ingested --fig-current file on demand (the
    // golden tests doctor one without re-running any sweep).
    let fig_current = flag_val("--fig-current");
    let fig_code = if args.iter().any(|a| a == "--no-fig") || (fig_current.is_none() && !rerunning)
    {
        0
    } else {
        run_gate::<FigCell>(
            ["figure baseline", "figure current", "--no-fig", "figures ", "figure KIOPS"],
            &flag_or_default("--fig", "BENCH_fig.json"),
            fig_current.as_deref(),
            trajectory_judge("figure", fig_trajectory),
        )
    };
    engine_code.max(recovery_code).max(fig_code)
}

fn main() {
    std::process::exit(real_main());
}
