//! The traced pass: spans around the stack's public entry points with
//! the in-program observers off and on, the virtual-time stage
//! breakdown, and the per-layer share estimate that ties the replay
//! drivers to a workload.

use std::time::Duration;

use rio_sim::Histogram;
use rio_stack::{LatencyBreakdown, OrderingMode, RunMetrics};

use crate::e2e::{digest, run_once, Metric, Observe, RepCost};
use crate::host::{host_now, Spans};
use crate::layers::Replay;
use crate::stats::{min, quantile_ns};
use crate::workloads::{cluster_seed, Spec};

/// Result of the traced pass on one workload.
pub struct Ledger {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Checks that failed.
    pub failures: Vec<String>,
    /// Simulations run.
    pub attempted: u64,
}

/// Runs the traced pass for `spec`, spending about `budget` host time:
/// half on whole-stack repetitions, half on the replay drivers.
///
/// The stack repetitions use sub-seed 0 only. Rounds of three
/// repetitions — observers off, `cfg.trace` on, `cfg.telemetry` on —
/// are interleaved so a noisy stretch costs each variant equally; the
/// fastest of each variant gives the overheads.
pub fn traced_pass(spec: &'static Spec, seed: u64, budget: Duration, spans: &mut Spans) -> Ledger {
    let root = spans.open("benchmark.traced_pass", None);
    let cseed = cluster_seed(seed, 0);
    let mut failures = Vec::new();
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut kept: Option<(RunMetrics, RepCost, String)> = None;
    let mut traced: Option<RunMetrics> = None;
    let mut attempted = 0;
    let start = host_now();
    let mut round = Duration::ZERO;
    // Another round only if it is likely to fit: one trace-on
    // repetition of a `*_rand4k` shape alone takes seconds.
    while attempted == 0 || start.elapsed() + round < budget / 2 {
        let round_start = host_now();
        let rep = spans.open("benchmark.round", Some(root));
        let variants = [Observe::Nothing, Observe::Trace, Observe::Telemetry];
        for (v, observe) in variants.into_iter().enumerate() {
            let (m, cost) = run_once(spec, cseed, observe, Some((&mut *spans, rep)));
            attempted += 1;
            walls[v].push(cost.run_s);
            for bad in spec.check(&m) {
                failures.push(format!("{} traced pass ({observe:?}): {bad}", spec.name));
            }
            // The observers schedule no events and draw no randomness:
            // switching them on must not move a single virtual number.
            let d = digest(&m);
            match &kept {
                Some((_, _, first)) if *first != d => failures.push(format!(
                    "{} {observe:?} changed the simulation:\n  off {first}\n  on  {d}",
                    spec.name
                )),
                Some(_) if observe == Observe::Trace && traced.is_none() => traced = Some(m),
                Some(_) => {}
                None => kept = Some((m, cost, d)),
            }
        }
        spans.close(rep);
        round = round_start.elapsed();
    }
    let (plain, cost, _) = kept.expect("at least one round ran");
    let traced = traced.expect("at least one round ran");
    let run_ns = min(&walls[0]) * 1e9;

    let replay_parent = spans.open("benchmark.replay", Some(root));
    let mut replay = Replay::new(spans, replay_parent, budget / 2 / crate::layers::DRIVERS);
    replay.all();
    let micro = std::mem::take(&mut replay.out);
    failures.append(&mut replay.failures);
    spans.close(replay_parent);
    spans.close(root);

    let shares = est_shares(spec, &plain, &micro, run_ns);
    let mut metrics = micro;
    let glue = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    // Each layer's est_share goes after that layer's own rows.
    for (layer, share) in shares {
        let at = metrics
            .iter()
            .rposition(|m| m.name.starts_with(layer))
            .expect("every layer has replay rows");
        metrics.insert(
            at + 1,
            Metric::new(format!("{layer}.est_share"), "ratio", share),
        );
    }
    metrics.extend(stack_rows(&plain, &traced, &cost, &walls, glue));
    Ledger {
        metrics,
        failures,
        attempted,
    }
}

/// Estimated share of `run()`'s wall time spent inside each layer:
/// the layer's replayed cost per operation times the number of such
/// operations the workload's `RunMetrics` reports, over the run's wall
/// time. An estimate, and a lower bound: replay outside the event loop
/// runs with warm caches and a trained branch predictor.
///
/// Time inside a callee is billed to the caller's layer (a PMR append
/// includes its record encode; a heap push its slab insert), except
/// CRC-32C and payload generation, which are billed to `rio-proto`
/// wherever they are called from because they dwarf their callers.
fn est_shares(
    spec: &Spec,
    m: &RunMetrics,
    micro: &[Metric],
    run_ns: f64,
) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        micro
            .iter()
            .find(|x| x.name == name)
            .unwrap_or_else(|| panic!("replay driver {name} did not run"))
            .value
    };
    let (cfg, _) = spec.instance(0);
    let rio = matches!(cfg.mode, OrderingMode::Rio { .. });
    let lossy = cfg.net.loss_rate > 0.0;
    let events = m.events_processed as f64;
    let cmds = m.commands_sent as f64;
    let groups = m.groups_done as f64;
    let blocks = m.blocks_done as f64;
    let pkts = m.net.packets as f64;
    let blocks_per_cmd = blocks / cmds.max(1.0);
    let block_ns = |mb_s: f64| 4096.0 / mb_s * 1e3;

    // rio-sim: one heap cycle per event, one slab cycle per command,
    // one histogram sample per group and fsync op, one PRNG draw per
    // random LBA, SSD jitter sample and packet.
    let sim = events * get("rio-sim.heap_push_pop_ns")
        + cmds * get("rio-sim.slab_insert_remove_ns")
        + (groups + m.ops_done as f64) * get("rio-sim.hist_record_ns")
        + (groups + cmds + pkts) * get("rio-sim.rng_below_ns");

    // rio-order: only Rio modes touch it.
    let order = if rio {
        let queue = if blocks_per_cmd >= 2.0 {
            groups / 16.0 * get("rio-order.order_queue_merge16_ns")
        } else {
            groups * get("rio-order.order_queue_push_flush_ns")
        };
        let ooo = m.gate_buffered as f64
            * (get("rio-order.gate_arrive_ooo_ns") - get("rio-order.gate_arrive_ns")).max(0.0);
        let scanned: f64 = m.recoveries.iter().map(|r| r.records_scanned as f64).sum();
        groups * get("rio-order.sequencer_submit_ns")
            + queue
            + ooo
            + cmds
                * (get("rio-order.gate_arrive_ns")
                    + get("rio-order.completer_on_done_ns")
                    + get("rio-order.pmrlog_append_free_ns"))
            + scanned
                * (get("rio-order.pmrlog_scan_us_per_krec")
                    + get("rio-order.recovery_compute_us_per_krec"))
    } else {
        0.0
    };

    // rio-net: every write command is one data pull; what remains of
    // the packet count after the pulls' request and data packets are
    // capsule SENDs (command, completion, HORAE's control path).
    let pull = if lossy {
        get("rio-net.pull_4k_lossy_ns")
    } else {
        let (small, large) = (get("rio-net.pull_4k_ns"), get("rio-net.pull_64k_ns"));
        small + (large - small) * ((blocks_per_cmd - 1.0) / 15.0).clamp(0.0, 1.0)
    };
    let sends = (pkts - m.net.retransmits as f64 - cmds - blocks).max(2.0 * cmds);
    let net = cmds * pull + sends * get("rio-net.send_capsule_ns");

    // rio-ssd: one write submission and one deferred effect per
    // command, one flush per fsync op, one scrub visit per record; the
    // CRC inside sealing and scrubbing is rio-proto's.
    let crc_ns = block_ns(get("rio-proto.crc32c_mb_s"));
    let write = if cfg.integrity {
        blocks
            * (get("rio-ssd.submit_write_sealed_ns") - crc_ns).max(get("rio-ssd.submit_write_ns"))
    } else {
        cmds * get("rio-ssd.submit_write_ns")
    };
    let scrubbed = m.integrity.scrubbed_records as f64;
    let ssd = write
        + cmds * get("rio-ssd.advance_ns")
        + m.ops_done as f64 * get("rio-ssd.submit_flush_ns")
        + scrubbed * (get("rio-ssd.scrub_ns_per_record") - crc_ns).max(0.0);

    // rio-proto: with integrity on every block is generated once and
    // checksummed at sealing, and every scrubbed record once more.
    let proto = if cfg.integrity {
        blocks * (block_ns(get("rio-proto.payload_fill_mb_s")) + crc_ns) + scrubbed * crc_ns
    } else {
        0.0
    };

    // rio-block: one stripe mapping per request; the plug only on the
    // orderless path.
    let plug = if cfg.mode == OrderingMode::Orderless {
        groups / 16.0 * get("rio-block.plug_merge16_ns")
    } else {
        0.0
    };
    let block = groups * get("rio-block.map_into_ns") + plug;

    [
        ("rio-sim", sim),
        ("rio-order", order),
        ("rio-net", net),
        ("rio-ssd", ssd),
        ("rio-proto", proto),
        ("rio-block", block),
    ]
    .map(|(layer, ns)| (layer, ns / run_ns))
    .to_vec()
}

/// The `rio-stack.*` rows: host-side ratios from the observers-off
/// repetition, virtual-time rows from the trace-on repetition.
fn stack_rows(
    plain: &RunMetrics,
    traced: &RunMetrics,
    cost: &RepCost,
    walls: &[Vec<f64>; 3],
    glue: f64,
) -> Vec<Metric> {
    let blocks = plain.blocks_done.max(1) as f64;
    let overhead = |v: usize| (min(&walls[v]) / min(&walls[0]) - 1.0) * 100.0;
    let mut out = vec![
        Metric::new(
            "rio-stack.run_ns_per_event",
            "ns",
            min(&walls[0]) * 1e9 / plain.events_processed.max(1) as f64,
        ),
        Metric::new(
            "rio-stack.events_per_block",
            "count",
            plain.events_processed as f64 / blocks,
        ),
        Metric::new(
            "rio-stack.allocs_per_block",
            "count",
            cost.allocs as f64 / blocks,
        ),
        Metric::new(
            "rio-stack.alloc_bytes_per_block",
            "B",
            cost.alloc_bytes as f64 / blocks,
        ),
        Metric::new(
            "rio-stack.commands_per_block",
            "count",
            plain.commands_sent as f64 / blocks,
        ),
        Metric::new(
            "rio-stack.gate_buffered_per_kblock",
            "count",
            plain.gate_buffered as f64 * 1e3 / blocks,
        ),
        Metric::new("rio-stack.trace_overhead_pct", "%", overhead(1)),
        Metric::new("rio-stack.telemetry_overhead_pct", "%", overhead(2)),
        Metric::new("rio-stack.glue_share", "ratio", glue),
    ];
    let us = |h: &Histogram, q| quantile_ns(h, q) / 1e3;
    let breakdown = traced.breakdown.as_ref().expect("trace was on");
    for (label, h) in LatencyBreakdown::SEGMENT_LABELS
        .iter()
        .zip(&breakdown.stages)
    {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            out.push(Metric::new(
                format!("rio-stack.seg_{label}_{tag}_us"),
                "us",
                us(h, q),
            ));
        }
    }
    let mut drr_wait = Histogram::new();
    for t in &traced.tenants {
        drr_wait.merge(&t.gate_wait);
    }
    let recovery_ms = |f: fn(&rio_stack::RecoveryMetrics) -> u64| {
        traced.recoveries.iter().map(f).sum::<u64>() as f64 / 1e6
    };
    out.extend([
        Metric::new("rio-stack.initiator_util", "ratio", traced.initiator_util),
        Metric::new("rio-stack.target_util", "ratio", traced.target_util),
        Metric::new("rio-stack.drr_wait_p99_us", "us", us(&drr_wait, 0.99)),
        Metric::new(
            "rio-stack.fsync_op_p99_us",
            "us",
            us(&traced.op_latency, 0.99),
        ),
        Metric::new(
            "rio-stack.recovery_rebuild_ms",
            "ms",
            recovery_ms(|r| r.order_rebuild.as_nanos()),
        ),
        Metric::new(
            "rio-stack.recovery_data_ms",
            "ms",
            recovery_ms(|r| r.data_recovery.as_nanos()),
        ),
        Metric::new(
            "rio-stack.records_scanned",
            "count",
            traced
                .recoveries
                .iter()
                .map(|r| r.records_scanned)
                .sum::<usize>() as f64,
        ),
    ]);
    out
}
