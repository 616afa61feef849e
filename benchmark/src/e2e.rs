//! The end-to-end pass: timed repetitions of `Cluster::new` +
//! `Cluster::run`, output checks, and the pooled metrics.

use rio_sim::Histogram;
use rio_stack::{Cluster, RunMetrics, TelemetryConfig, TraceConfig};

use crate::alloc;
use crate::host::{host_now, Spans};
use crate::stats::{median, min, quantile_ns, quartile_spread};
use crate::workloads::{cluster_seed, Spec, SUBSEEDS};

/// Which observers a repetition switches on inside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `cfg.trace` and `cfg.telemetry` off — every end-to-end number.
    Nothing,
    /// Per-command stage tracing on.
    Trace,
    /// Virtual-time telemetry sampling on.
    Telemetry,
}

/// Host-side measurements of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepCost {
    /// Wall seconds inside `Cluster::new`.
    pub setup_s: f64,
    /// Wall seconds inside `Cluster::run`.
    pub run_s: f64,
    /// Peak live heap bytes across `new` + `run`, above the live size
    /// before `new` (exact).
    pub peak_bytes: u64,
    /// Allocation calls inside `run` (exact).
    pub allocs: u64,
    /// Bytes requested inside `run` (exact).
    pub alloc_bytes: u64,
}

impl RepCost {
    /// The counts that must repeat exactly for a fixed cluster seed.
    pub fn exact(&self) -> (u64, u64, u64) {
        (self.peak_bytes, self.allocs, self.alloc_bytes)
    }
}

/// Runs one simulation and measures it from outside. `spans`, when
/// given, receives `rio-stack.new` and `rio-stack.run` under `parent`.
pub fn run_once(
    spec: &Spec,
    cluster_seed: u64,
    observe: Observe,
    spans: Option<(&mut Spans, usize)>,
) -> (RunMetrics, RepCost) {
    let (mut cfg, wl) = spec.instance(cluster_seed);
    match observe {
        Observe::Nothing => {}
        Observe::Trace => cfg.trace = Some(TraceConfig::default()),
        Observe::Telemetry => cfg.telemetry = Some(TelemetryConfig::default()),
    }
    let before = alloc::mark_peak();
    let t0 = host_now();
    let cluster = Cluster::new(cfg, wl);
    let t1 = host_now();
    let at_run = alloc::mark();
    let metrics = cluster.run();
    let t2 = host_now();
    let cost = RepCost {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        peak_bytes: before.peak_since(),
        allocs: at_run.allocs_since(),
        alloc_bytes: at_run.bytes_since(),
    };
    if let Some((spans, parent)) = spans {
        spans.record("rio-stack.new", Some(parent), t0, t1);
        spans.record("rio-stack.run", Some(parent), t1, t2);
    }
    (metrics, cost)
}

/// Every virtual-time metric and count of one run on one line. Two
/// runs of the same (config, seed) must produce the same string; a
/// host-time-only change must leave it untouched.
pub fn digest(m: &RunMetrics) -> String {
    use std::fmt::Write as _;
    let hist = |h: &Histogram| {
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            h.count(),
            h.mean().as_nanos(),
            h.min().as_nanos(),
            h.max().as_nanos(),
            h.quantile(0.5).as_nanos(),
            h.quantile(0.99).as_nanos(),
            h.quantile(0.999).as_nanos()
        )
    };
    let mut s = format!(
        "ev={} blk={} grp={} ops={} cmd={} gatebuf={} span={} fin={} pkts={} bytes={} drops={} retx={} rounds={} \
         grp_lat={} op_lat={} iutil={:016x} tutil={:016x}",
        m.events_processed,
        m.blocks_done,
        m.groups_done,
        m.ops_done,
        m.commands_sent,
        m.gate_buffered,
        m.span.as_nanos(),
        m.finished_at.as_nanos(),
        m.net.packets,
        m.net.bytes_out,
        m.net.drops,
        m.net.retransmits,
        m.net.retx_rounds,
        hist(&m.group_latency),
        hist(&m.op_latency),
        m.initiator_util.to_bits(),
        m.target_util.to_bits(),
    );
    let i = &m.integrity;
    let _ = write!(
        s,
        " integ={}/{}/{}/{}/{}/{}/{}/{}/{}/{:016x}",
        i.wire_injected,
        i.wire_detected,
        i.wire_refetched,
        i.torn_injected,
        i.rot_injected,
        i.media_detected,
        i.media_repaired,
        i.media_unrepairable,
        i.scrubbed_records,
        i.scrub_us.to_bits()
    );
    for r in &m.recoveries {
        let _ = write!(
            s,
            " rec={}/{}/{}/{}/{}/{}",
            r.crashed_at.as_nanos(),
            r.resumed_at.as_nanos(),
            r.order_rebuild.as_nanos(),
            r.data_recovery.as_nanos(),
            r.records_scanned,
            r.discards
        );
    }
    for e in &m.epochs {
        let _ = write!(
            s,
            " epoch={}/{}/{}/{}",
            e.from.as_nanos(),
            e.to.as_nanos(),
            e.groups_done,
            e.blocks_done
        );
    }
    for t in &m.tenants {
        let _ = write!(
            s,
            " tenant{}={}/{}/{}/{}",
            t.tenant,
            t.groups_done,
            t.blocks_done,
            hist(&t.group_latency),
            hist(&t.gate_wait)
        );
    }
    s
}

/// The first repetition of one sub-seed: the reference every later
/// repetition of that sub-seed must reproduce.
pub struct Sim {
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// [`digest`] of `metrics`.
    pub digest: String,
    /// The host-side exact counts (`peak_bytes`, `allocs`,
    /// `alloc_bytes`) of that repetition.
    pub cost: RepCost,
}

/// Everything measured for one workload in one end-to-end pass.
pub struct Pass {
    /// The workload.
    pub spec: &'static Spec,
    /// One reference simulation per sub-seed, filled during the first
    /// `SUBSEEDS` repetitions.
    pub sims: Vec<Sim>,
    /// Host-side cost of every repetition, in execution order.
    pub reps: Vec<RepCost>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Ordered groups attempted across all repetitions.
    pub attempted: u64,
    /// Groups not delivered exactly once, unrepairable blocks, and
    /// repetitions that failed a check, across all repetitions.
    pub failed: u64,
}

impl Pass {
    /// An empty pass for `spec`.
    pub fn new(spec: &'static Spec) -> Self {
        Pass {
            spec,
            sims: Vec::new(),
            reps: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Wall seconds spent in timed repetitions so far.
    pub fn measured_s(&self) -> f64 {
        self.reps.iter().map(|r| r.setup_s + r.run_s).sum()
    }

    /// Runs the next repetition (sub-seeds round-robin), checks its
    /// outputs and records it.
    pub fn step(&mut self, seed: u64) {
        let sub = self.reps.len() as u64 % SUBSEEDS;
        let cseed = cluster_seed(seed, sub);
        let (metrics, cost) = run_once(self.spec, cseed, Observe::Nothing, None);
        let mut bad = self.spec.check(&metrics);
        let d = digest(&metrics);
        self.attempted += self.spec.groups;
        self.failed += self.spec.groups.saturating_sub(metrics.groups_done)
            + metrics.integrity.media_unrepairable;
        match self.sims.get(sub as usize) {
            None => self.sims.push(Sim {
                metrics,
                digest: d,
                cost,
            }),
            Some(first) => {
                if first.digest != d {
                    bad.push(format!(
                        "not deterministic:\n  first {}\n  now   {d}",
                        first.digest
                    ));
                }
                if first.cost.exact() != cost.exact() {
                    bad.push(format!(
                        "allocation counts not deterministic: first {:?}, now {:?}",
                        first.cost.exact(),
                        cost.exact()
                    ));
                }
            }
        }
        if !bad.is_empty() {
            self.failed += 1;
            for b in bad {
                self.failures.push(format!(
                    "{} rep {} (cluster seed {cseed}): {b}",
                    self.spec.name,
                    self.reps.len()
                ));
            }
        }
        self.reps.push(cost);
    }

    /// Mean of `f` over the sub-seed simulations.
    pub fn mean(&self, f: impl Fn(&Sim) -> f64) -> f64 {
        self.sims.iter().map(f).sum::<f64>() / self.sims.len().max(1) as f64
    }

    /// Sum of `f` over the sub-seed simulations.
    pub fn sum(&self, f: impl Fn(&RunMetrics) -> u64) -> u64 {
        self.sims.iter().map(|s| f(&s.metrics)).sum()
    }

    /// `f`'s histogram merged over the sub-seed simulations.
    pub fn pooled(&self, f: impl Fn(&RunMetrics) -> &Histogram) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.sims {
            h.merge(f(&s.metrics));
        }
        h
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, followed by
    /// the ones defined on this workload only.
    pub fn metrics(&self) -> Vec<Metric> {
        let run_s: Vec<f64> = self.reps.iter().map(|r| r.run_s).collect();
        let setup_s: Vec<f64> = self.reps.iter().map(|r| r.setup_s).collect();
        let lat = self.pooled(|m| &m.group_latency);
        let q_us = |h: &Histogram, q| quantile_ns(h, q) / 1e3;
        let mut out = vec![
            Metric::new(
                "host_blocks_per_sec",
                "blocks/s",
                self.spec.blocks as f64 / min(&run_s),
            ),
            Metric::new(
                "peak_heap_mb",
                "MB",
                self.mean(|s| s.cost.peak_bytes as f64) / 1e6,
            ),
            Metric::new("setup_s", "s", median(&setup_s)),
            Metric::new(
                "sim_kiops",
                "KIOPS",
                self.mean(|s| s.metrics.block_iops()) / 1e3,
            ),
            Metric::new(
                "sim_kiops_per_core",
                "KIOPS/core",
                self.mean(|s| s.metrics.initiator_efficiency()) / 1e3,
            ),
            Metric::new("sim_group_p50_us", "us", q_us(&lat, 0.5)),
            Metric::new("sim_group_p99_us", "us", q_us(&lat, 0.99)),
            Metric::new("sim_group_p999_us", "us", q_us(&lat, 0.999)),
        ];
        if self.spec.ops > 0 {
            let ops = self.pooled(|m| &m.op_latency);
            out.push(Metric::new("sim_fsync_p99_us", "us", q_us(&ops, 0.99)));
        }
        if self.spec.crash {
            out.push(Metric::new(
                "sim_recovery_ms",
                "ms",
                self.mean(|s| {
                    s.metrics
                        .recoveries
                        .iter()
                        .map(|r| (r.order_rebuild + r.data_recovery).as_nanos() as f64 / 1e6)
                        .sum()
                }),
            ));
        }
        out.push(Metric::new(
            "failed_share",
            "ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        ));
        out
    }

    /// Quartile spread of the `run()` wall times, as a share of their
    /// median.
    pub fn run_spread(&self) -> f64 {
        quartile_spread(&self.reps.iter().map(|r| r.run_s).collect::<Vec<_>>())
    }

    /// FNV-1a over the sub-seed digests: one token that changes iff any
    /// virtual-time metric or count of any simulation changed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in &self.sims {
            for b in s.digest.bytes().chain([b'\n']) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}
