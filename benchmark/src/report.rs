//! Output: the human-readable tables, the `--json` report, the span
//! trace file, and the one-line result the benchmark contract reads.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::e2e::{Metric, Pass};
use crate::host::Spans;
use crate::ledger::Ledger;
use crate::workloads::Spec;

/// End-to-end metrics every workload defines, exactly the `end_to_end`
/// list of `BENCHMARK.json`; the result line carries these and no
/// others. (`sim_fsync_p99_us`, `sim_recovery_ms` and `failed_share`
/// are printed where defined but a contract metric may never be zero
/// or missing on any workload.)
pub const CONTRACT_E2E: [&str; 8] = [
    "host_blocks_per_sec",
    "peak_heap_mb",
    "setup_s",
    "sim_kiops",
    "sim_kiops_per_core",
    "sim_group_p50_us",
    "sim_group_p99_us",
    "sim_group_p999_us",
];

/// Allowed disagreement between two runs of the same code, per
/// host-time metric (`--selfcheck`): their `BENCHMARK.json` bounds.
/// Every other metric is exact.
const HOST_BOUNDS: [(&str, f64); 2] = [("host_blocks_per_sec", 0.25), ("setup_s", 0.25)];
/// `setup_s` readings this close in absolute terms agree regardless of
/// their ratio.
const SETUP_SLACK_S: f64 = 1e-3;

/// Facts about the invocation that every report states.
#[derive(Clone, Copy)]
pub struct Run {
    /// `--seed`.
    pub seed: u64,
    /// Logical cores available.
    pub nproc: usize,
    /// Whether this is the per-layer pass.
    pub traced: bool,
    /// Whether `--workload` selected one workload (the result line then
    /// uses bare metric names).
    pub single_workload: bool,
}

struct Section {
    workload: &'static str,
    why: &'static str,
    reps: usize,
    /// `(setup_s, run_s)` of every repetition (end-to-end pass only).
    walls: Vec<(f64, f64)>,
    run_spread: f64,
    fingerprint: Option<u64>,
    digests: Vec<String>,
    metrics: Vec<Metric>,
}

/// Collects everything a run measured, printing as it goes.
pub struct Report {
    run: Run,
    sections: Vec<Section>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn clock_of(name: &str) -> &'static str {
    match name {
        "peak_heap_mb" => "H exact",
        "failed_share" => "-",
        n if n.starts_with("sim_") => "V exact",
        _ => "H",
    }
}

fn human(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.6}"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
fn json_metrics<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Report {
    /// An empty report for this invocation.
    pub fn new(run: Run) -> Self {
        Report {
            run,
            sections: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a failure that belongs to no workload.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
        self.failed += 1;
    }

    fn push(&mut self, s: Section) {
        for m in &s.metrics {
            if !m.value.is_finite() {
                self.fail(format!("{}: {} is not a number", s.workload, m.name));
            }
        }
        self.sections.push(s);
    }

    /// Prints and records one workload's end-to-end pass.
    pub fn end_to_end(&mut self, p: &Pass) {
        let metrics = p.metrics();
        println!(
            "\n== {}  ({} repetitions, run() wall-time quartile spread {:.1} %)",
            p.spec.name,
            p.reps.len(),
            p.run_spread() * 100.0
        );
        for m in &metrics {
            println!(
                "  {:<22} {:>16} {:<11} {}",
                m.name,
                human(m.value),
                m.unit,
                clock_of(&m.name)
            );
        }
        let lat = p.pooled(|m| &m.group_latency).count();
        println!(
            "  samples: {lat} groups behind the latency quantiles ({} beyond p99.9), {} setups, fastest of {} runs",
            lat / 1000,
            p.reps.len(),
            p.reps.len()
        );
        // Everything exact about the pass on one line: a host-time-only
        // change must reproduce it character for character.
        let exact: Vec<String> = metrics
            .iter()
            .filter(|m| clock_of(&m.name).ends_with("exact"))
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        println!(
            "  digest {} {:016x} events={} blocks={} commands={} packets={} retransmits={} gate_buffered={} allocs={} alloc_bytes={} {}",
            p.spec.name,
            p.fingerprint(),
            p.sum(|m| m.events_processed),
            p.sum(|m| m.blocks_done),
            p.sum(|m| m.commands_sent),
            p.sum(|m| m.net.packets),
            p.sum(|m| m.net.retransmits),
            p.sum(|m| m.gate_buffered),
            p.sims.iter().map(|s| s.cost.allocs).sum::<u64>(),
            p.sims.iter().map(|s| s.cost.alloc_bytes).sum::<u64>(),
            exact.join(" ")
        );
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.failures.extend(p.failures.iter().cloned());
        self.push(Section {
            workload: p.spec.name,
            why: p.spec.why,
            reps: p.reps.len(),
            walls: p.reps.iter().map(|r| (r.setup_s, r.run_s)).collect(),
            run_spread: p.run_spread(),
            fingerprint: Some(p.fingerprint()),
            digests: p.sims.iter().map(|s| s.digest.clone()).collect(),
            metrics,
        });
    }

    /// Prints and records one workload's per-layer pass.
    pub fn per_layer(&mut self, spec: &'static Spec, l: Ledger) {
        println!(
            "\n== {}  per-layer ledger ({} simulations)",
            spec.name, l.attempted
        );
        for m in &l.metrics {
            println!("  {:<40} {:>16} {}", m.name, human(m.value), m.unit);
        }
        self.attempted += l.attempted;
        self.failed += l.failures.len() as u64;
        self.failures.extend(l.failures);
        self.push(Section {
            workload: spec.name,
            why: spec.why,
            reps: l.attempted as usize,
            walls: Vec::new(),
            run_spread: 0.0,
            fingerprint: None,
            digests: Vec::new(),
            metrics: l.metrics,
        });
    }

    /// Compares two end-to-end passes of the same code: every exact
    /// metric and count identical, host-time metrics within their
    /// bounds.
    pub fn selfcheck(&mut self, a: &Pass, b: &Pass) {
        let name = a.spec.name;
        let mut bad = Vec::new();
        if a.fingerprint() != b.fingerprint() {
            bad.push("virtual-time digests differ".to_string());
        }
        let exact = |p: &Pass| -> Vec<_> { p.sims.iter().map(|s| s.cost.exact()).collect() };
        if exact(a) != exact(b) {
            bad.push("allocation counts or heap peaks differ".to_string());
        }
        for (ma, mb) in a.metrics().iter().zip(b.metrics().iter()) {
            match HOST_BOUNDS.iter().find(|(n, _)| *n == ma.name) {
                Some((_, bound)) => {
                    let gap = (ma.value - mb.value).abs();
                    let slack = if ma.name == "setup_s" {
                        SETUP_SLACK_S
                    } else {
                        0.0
                    };
                    if gap > bound * ma.value.min(mb.value) && gap > slack {
                        bad.push(format!(
                            "{} disagrees beyond {:.0} %: {} vs {}",
                            ma.name,
                            bound * 100.0,
                            ma.value,
                            mb.value
                        ));
                    }
                }
                None if ma.value.to_bits() != mb.value.to_bits() => {
                    bad.push(format!(
                        "{} is not exact: {} vs {}",
                        ma.name, ma.value, mb.value
                    ));
                }
                None => {}
            }
        }
        println!(
            "selfcheck {name}: {}",
            if bad.is_empty() {
                "two passes agree"
            } else {
                "DISAGREE"
            }
        );
        for b in bad {
            self.fail(format!("selfcheck {name}: {b}"));
        }
    }

    /// The full report as JSON (`--json`).
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|s| {
                let digests: Vec<String> = s.digests.iter().map(|d| json_str(d)).collect();
                let walls = |f: fn(&(f64, f64)) -> f64| {
                    let v: Vec<String> = s.walls.iter().map(|w| f(w).to_string()).collect();
                    v.join(", ")
                };
                format!(
                    "    {{\"workload\": {}, \"why\": {}, \"repetitions\": {}, \"setup_wall_s\": [{}], \
                     \"run_wall_s\": [{}], \"run_wall_quartile_spread\": {}, \
                     \"fingerprint\": {}, \"metrics\": {}, \"digests\": [{}]}}",
                    json_str(s.workload),
                    json_str(s.why),
                    s.reps,
                    walls(|w| w.0),
                    walls(|w| w.1),
                    s.run_spread,
                    s.fingerprint
                        .map_or("null".into(), |f| json_str(&format!("{f:016x}"))),
                    json_metrics(s.metrics.iter().map(|m| (m.name.clone(), m))),
                    digests.join(", ")
                )
            })
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\n  \"seed\": {},\n  \"nproc\": {},\n  \"pass\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"failures\": [{}],\n  \"workloads\": [\n{}\n  ]\n}}\n",
            self.run.seed,
            self.run.nproc,
            json_str(if self.run.traced { "per_layer" } else { "end_to_end" }),
            self.attempted,
            self.failed,
            failures.join(", "),
            sections.join(",\n")
        )
    }

    /// Prints the failures and the result line; the exit code says
    /// whether every check passed.
    pub fn finish(self) -> ExitCode {
        let correct = self.failed == 0 && self.failures.is_empty();
        println!();
        for f in &self.failures {
            println!("FAILED {f}");
        }
        println!(
            "failed_share {} ({} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        // With --selfcheck a workload has two sections; the last wins.
        let last_of = |w: &str| self.sections.iter().rposition(|s| s.workload == w);
        let metrics = self
            .sections
            .iter()
            .enumerate()
            .filter(|(i, s)| last_of(s.workload) == Some(*i))
            .flat_map(|(_, s)| {
                let single = self.run.single_workload;
                s.metrics
                    .iter()
                    .filter(|m| self.run.traced || CONTRACT_E2E.contains(&m.name.as_str()))
                    .map(move |m| {
                        let name = if single {
                            m.name.clone()
                        } else {
                            format!("{}/{}", s.workload, m.name)
                        };
                        (name, m)
                    })
            });
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.failed,
            json_metrics(metrics)
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Writes every recorded span to `benchmark/out/trace.json` and
/// returns the path.
pub fn write_trace(all: &[Spans]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut rows = Vec::new();
    for (w, spans) in all.iter().enumerate() {
        for (id, s) in spans.all().iter().enumerate() {
            // Ids are unique across workloads: workload index, then
            // the span's index in that workload's recorder.
            let gid = |i: usize| format!("\"{w}.{i}\"");
            rows.push(format!(
                "  {{\"id\": {}, \"parent\": {}, \"workload\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                gid(id),
                s.parent.map_or("null".into(), gid),
                json_str(s.workload),
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                spans.self_ns(id)
            ));
        }
    }
    let path = dir.join("trace.json");
    std::fs::write(
        &path,
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n")),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Every `"name": "..."` in `text`, in order.
    fn names(text: &str) -> Vec<&str> {
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_end_to_end_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let from = json.find(&format!("\"{key}\": [")).expect("section");
            &json[from..from + json[from..].find("\n  ]").expect("section end")]
        };
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(section("workloads")), want);
        for w in &WORKLOADS {
            assert!(json.contains(&json_str(w.why)), "{}: why differs", w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why too long for the contract",
                w.name
            );
        }
        assert_eq!(names(section("end_to_end")), CONTRACT_E2E);
    }

    #[test]
    fn json_strings_escape_quotes_and_control_characters() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
