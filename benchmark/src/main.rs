//! The repo benchmark: six pinned workloads over the simulated RIO
//! stack, measured on two clocks — *host* time (how long the simulator
//! takes) and *virtual* time (what the modelled stack delivers) — plus
//! an outside-in per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! ```
//!
//! runs every workload, checks its outputs and prints every end-to-end
//! metric by name with its unit; `--trace 1` runs the per-layer pass
//! instead. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`) for the workload named
//! by `--workload`.

#![deny(missing_docs)]

mod alloc;
mod e2e;
mod host;
mod layers;
mod ledger;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use e2e::Pass;
use host::Spans;
use workloads::{Spec, SUBSEEDS, WORKLOADS};

// Always installed, so both sides of any comparison pay for the same
// counting.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fewest repetitions of a workload: every sub-seed twice, so each
/// simulation's determinism is checked at least once.
const MIN_REPS: u64 = 2 * SUBSEEDS;

/// Parsed command line.
struct Args {
    seed: u64,
    workload: Option<&'static Spec>,
    /// Repetitions per workload when `--seconds` is absent.
    reps: u64,
    /// Host seconds to measure each workload for.
    seconds: Option<u64>,
    traced: bool,
    selfcheck: bool,
    json: Option<String>,
}

const USAGE: &str = "usage: rio-benchmark [--seed N] [--workload NAME] [--reps N | --seconds S] \
[--trace 0|1 | --traced] [--selfcheck] [--json PATH]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        workload: None,
        reps: 3 * SUBSEEDS,
        seconds: None,
        traced: false,
        selfcheck: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--seed" => a.seed = number(value()?)?,
            "--reps" => a.reps = number(value()?)?,
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--trace" => a.traced = number(value()?)? != 0,
            "--traced" => a.traced = true,
            "--selfcheck" => a.selfcheck = true,
            "--json" => a.json = Some(value()?),
            "--workload" => {
                let name = value()?;
                a.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "-h" | "--help" => return Err(USAGE.into()),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if a.selfcheck && a.traced {
        return Err("--selfcheck compares end-to-end passes; drop --trace".into());
    }
    if a.reps < MIN_REPS {
        return Err(format!(
            "--reps {} is too few: every one of the {SUBSEEDS} sub-seeds must run twice ({MIN_REPS})",
            a.reps
        ));
    }
    // Cluster seeds are seed * 1000 + sub-seed.
    if a.seed > u64::MAX / 1000 - 1 {
        return Err(format!("--seed {} is too large", a.seed));
    }
    Ok(a)
}

/// One end-to-end pass over `specs`: repetitions round-robin across
/// the workloads, so a noisy stretch on the host costs one repetition
/// of each workload rather than every repetition of one.
fn end_to_end(specs: &[&'static Spec], a: &Args) -> Vec<Pass> {
    let mut passes: Vec<Pass> = specs.iter().map(|s| Pass::new(s)).collect();
    let open = |p: &Pass| {
        let reps = p.reps.len() as u64;
        match a.seconds {
            Some(s) => reps < MIN_REPS || p.measured_s() < s as f64,
            None => reps < a.reps,
        }
    };
    while passes.iter().any(open) {
        for p in passes.iter_mut().filter(|p| open(p)) {
            p.step(a.seed);
        }
    }
    passes
}

fn main() -> ExitCode {
    alloc::keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<&'static Spec> = match args.workload {
        Some(s) => vec![s],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "rio-benchmark  seed {} (cluster seeds {}..={})  nproc {}  {}",
        args.seed,
        workloads::cluster_seed(args.seed, 0),
        workloads::cluster_seed(args.seed, SUBSEEDS - 1),
        host::nproc(),
        match args.seconds {
            Some(s) => format!("{s} s per workload"),
            None => format!("{} repetitions per workload", args.reps),
        }
    );

    let mut report = report::Report::new(report::Run {
        seed: args.seed,
        nproc: host::nproc(),
        traced: args.traced,
        single_workload: args.workload.is_some(),
    });
    if args.selfcheck {
        let first = end_to_end(&specs, &args);
        let second = end_to_end(&specs, &args);
        for p in first.iter().chain(&second) {
            report.end_to_end(p);
        }
        println!();
        for (a, b) in first.iter().zip(&second) {
            report.selfcheck(a, b);
        }
    } else if args.traced {
        let budget = Duration::from_secs(args.seconds.unwrap_or(12));
        let mut all_spans = Vec::new();
        for spec in &specs {
            let mut spans = Spans::new(spec.name);
            let ledger = ledger::traced_pass(spec, args.seed, budget, &mut spans);
            report.per_layer(spec, ledger);
            all_spans.push(spans);
        }
        match report::write_trace(&all_spans) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => report.fail(format!("writing the span trace: {e}")),
        }
    } else {
        for p in &end_to_end(&specs, &args) {
            report.end_to_end(p);
        }
    }

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            report.fail(format!("writing {path}: {e}"));
        }
    }
    report.finish()
}
