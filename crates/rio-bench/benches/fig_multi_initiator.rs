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
//! cargo bench -p rio-bench --bench fig_multi_initiator
//! ```

use rio_bench::experiment::sweep;
use rio_bench::trace_export::traced_cell;
use rio_bench::{header, kiops, row, run, us};
use rio_stack::{ClusterConfig, FabricConfig, OrderingMode, Workload};

/// `initiators` one-tenant RIO initiators of `streams_each` streams
/// over `targets` shared targets and a lossy two-path fabric.
fn multi(initiators: usize, streams_each: usize, targets: usize) -> ClusterConfig {
    let mode = OrderingMode::Rio { merge: true };
    let cfg = ClusterConfig::multi_initiator(mode, initiators, streams_each, targets);
    ClusterConfig {
        net: FabricConfig::lossy(1e-3, 2),
        ..cfg
    }
}

fn scaling_sweep() {
    for streams_each in [1, 2] {
        let fig = sweep(
            &format!(
                "Multi-initiator scaling, {streams_each} stream(s)/initiator: aggregate KIOPS \
                 (RIO, loss=1e-3, 2 paths)"
            ),
            "targets \\ inits",
            &[1usize, 2, 4, 8],
            [1usize, 2, 4]
                .map(|t| (format!("{t} target(s)"), t))
                .to_vec(),
            &[
                ("{}", |m| kiops(m.block_iops())),
                // The saturation tell: mean DRR admission wait per
                // tenant. Once the shared targets are the bottleneck,
                // piling on initiators stops raising KIOPS and starts
                // raising this.
                ("  drr wait", |m| {
                    let t = &m.tenants;
                    let total: f64 = t.iter().map(|t| t.gate_wait.mean().as_nanos() as f64).sum();
                    let mean_ns = if t.is_empty() {
                        0.0
                    } else {
                        total / t.len() as f64
                    };
                    us(mean_ns / 1e3)
                }),
                ("  jain", |m| format!("{:.3}", m.tenant_fairness())),
            ],
            |&targets, &initiators| {
                let wl = Workload::random_4k(initiators * streams_each, 2_000);
                (multi(initiators, streams_each, targets), wl)
            },
        );
        for m in fig.series.iter().flat_map(|(_, runs)| runs) {
            assert!(
                m.tenants.len() < 2 || m.tenant_fairness() >= 0.95,
                "equal-weight tenants fell out of fairness: {}",
                m.tenant_fairness()
            );
        }
    }
}

fn weight_sweep() {
    header("QoS weights: 2 initiators, 1 shared target, equal demand");
    row("weights", &["1:1", "2:1", "4:1"]);
    let mut tenants = [Vec::new(), Vec::new()];
    for w in [1u32, 2, 4] {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 2, 1);
        cfg.initiators[0] = cfg.initiators[0].clone().with_weight(w);
        let m = run(cfg, Workload::random_4k(4, 2_000));
        for (cells, t) in tenants.iter_mut().zip(&m.tenants) {
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
    for (i, cells) in tenants.iter().enumerate() {
        row(&format!("tenant {i}"), cells);
    }
}

fn main() {
    // Three initiators incast onto two shared targets over a lossy
    // fabric — the trace shows per-tenant lanes plus DRR waits.
    if traced_cell(
        "multi-initiator RIO 3x2",
        multi(3, 1, 2),
        Workload::random_4k(3, 400),
    ) {
        return;
    }
    println!("Multi-initiator / multi-tenant sweep (full run).");
    scaling_sweep();
    weight_sweep();
}
