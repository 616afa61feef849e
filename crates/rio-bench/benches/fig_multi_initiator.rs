//! Multi-initiator scaling sweep: initiators × streams × targets.
//!
//! Many tenants sharing a storage pool, in miniature: M
//! initiators — each with its own sequencer, NIC, completer and stream
//! slice, one tenant per initiator — converge on a shared set of
//! targets. Every target NIC serializes the incast on its egress link
//! and a deficit-round-robin scheduler arbitrates SSD admission across
//! tenants, so this sweep shows (a) how aggregate throughput scales
//! with initiators until the shared targets saturate, (b) where the
//! per-target gate stops scaling (adding initiators beyond the target
//! capacity only grows the DRR admission wait), and (c) that equal
//! QoS weights keep the tenants inside a Jain fairness index ≥ 0.95
//! while a skewed weight reorders throughput.
//!
//! Usage:
//!
//! ```sh
//! cargo bench -p rio-bench --bench fig_multi_initiator            # full sweep
//! cargo bench -p rio-bench --bench fig_multi_initiator -- --smoke # CI-sized
//! ```

use rio_bench::trace_export::{trace_out_arg, write_chrome_trace};
use rio_bench::{header, kiops, row, run, us};
use rio_stack::{
    ClusterConfig, FabricConfig, OrderingMode, RunMetrics, TelemetryConfig, TraceConfig, Workload,
};

fn multi(initiators: usize, streams_each: usize, targets: usize, groups: u64) -> RunMetrics {
    let mut cfg = ClusterConfig::multi_initiator(
        OrderingMode::Rio { merge: true },
        initiators,
        streams_each,
        targets,
    );
    cfg.net = FabricConfig::lossy(1e-3, 2);
    let threads = initiators * streams_each;
    run(cfg, Workload::random_4k(threads, groups))
}

fn scaling_sweep(smoke: bool) {
    let init_axis: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let stream_axis: &[usize] = if smoke { &[1] } else { &[1, 2] };
    let target_axis: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let groups: u64 = if smoke { 400 } else { 2_000 };

    for &streams_each in stream_axis {
        header(&format!(
            "Multi-initiator scaling, {streams_each} stream(s)/initiator: aggregate KIOPS \
             (RIO, loss=1e-3, 2 paths)"
        ));
        row(
            "targets \\ inits",
            &init_axis.iter().map(|i| format!("{i}")).collect::<Vec<_>>(),
        );
        for &targets in target_axis {
            let series: Vec<RunMetrics> = init_axis
                .iter()
                .map(|&m| multi(m, streams_each, targets, groups))
                .collect();
            row(
                &format!("{targets} target(s)"),
                &series
                    .iter()
                    .map(|m| kiops(m.block_iops()))
                    .collect::<Vec<_>>(),
            );
            // The saturation tell: mean DRR admission wait per tenant.
            // Once the shared targets are the bottleneck, piling on
            // initiators stops raising KIOPS and starts raising this.
            let waits: Vec<String> = series
                .iter()
                .map(|m| {
                    let t = &m.tenants;
                    let mean_ns: f64 = if t.is_empty() {
                        0.0
                    } else {
                        t.iter().map(|t| t.gate_wait.mean().as_nanos() as f64).sum::<f64>()
                            / t.len() as f64
                    };
                    us(mean_ns / 1e3)
                })
                .collect();
            row("  drr wait", &waits);
            let fairness: Vec<String> = series
                .iter()
                .map(|m| format!("{:.3}", m.tenant_fairness()))
                .collect();
            row("  jain", &fairness);
            for m in &series {
                assert!(
                    m.tenants.len() < 2 || m.tenant_fairness() >= 0.95,
                    "equal-weight tenants fell out of fairness: {}",
                    m.tenant_fairness()
                );
            }
        }
    }
}

fn weight_sweep(smoke: bool) {
    header("QoS weights: 2 initiators, 1 shared target, equal demand");
    let groups: u64 = if smoke { 400 } else { 2_000 };
    row("weights", &["1:1".into(), "2:1".into(), "4:1".into()]);
    let mut iops_rows: Vec<(String, Vec<String>)> =
        vec![("tenant 0".into(), Vec::new()), ("tenant 1".into(), Vec::new())];
    for &w in &[1u32, 2, 4] {
        let mut cfg =
            ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 2, 1);
        cfg.initiators[0] = cfg.initiators[0].clone().with_weight(w);
        let m = run(cfg, Workload::random_4k(4, groups));
        for (i, (_, cells)) in iops_rows.iter_mut().enumerate() {
            let t = &m.tenants[i];
            cells.push(kiops(t.block_iops()));
        }
        if w > 1 {
            let heavy = m.tenants.iter().find(|t| t.weight == w).expect("heavy");
            let light = m.tenants.iter().find(|t| t.weight == 1).expect("light");
            assert!(
                heavy.block_iops() > light.block_iops(),
                "weight {w} must outrun weight 1"
            );
        }
    }
    for (label, cells) in &iops_rows {
        row(label, cells);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = trace_out_arg(&args) {
        // Three initiators incast onto two shared targets over a lossy
        // fabric — the trace shows per-tenant lanes plus DRR waits.
        let mut cfg =
            ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
        cfg.net = FabricConfig::lossy(1e-3, 2);
        cfg.trace = Some(TraceConfig::default());
        cfg.telemetry = Some(TelemetryConfig::default());
        let m = run(cfg, Workload::random_4k(3, 400));
        write_chrome_trace(&path, &m).expect("write Chrome trace");
        println!("wrote Chrome trace of multi-initiator RIO 3x2 to {path}");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    println!(
        "Multi-initiator / multi-tenant sweep ({} run).",
        if smoke { "smoke" } else { "full" }
    );
    scaling_sweep(smoke);
    weight_sweep(smoke);
}
