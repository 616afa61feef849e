//! The gated grid: the `grid` section of `BENCH.json`.
//!
//! One list of cells covers the paper's evidence: a Fig. 10-style
//! engine grid (every ordering mode over the paper's cluster shapes,
//! plus lossy-fabric and multi-initiator cells) and the figure slices
//! [`crate::fig::slices`] adds (fig10 a/b/d, fig13, the lossy and
//! multi-initiator sweeps at smaller sizes). Every cell records what
//! the engine *did* — events dispatched, virtual span, blocks, groups,
//! group p99 — and the KIOPS it delivered. The simulated workload is
//! pinned — seeds, thread counts and group counts never vary — so
//! every column is an exact function of the tree. The regression gate
//! ([`crate::gate`]) compares the committed baseline against a re-run
//! of the same grid; how fast the host executes the engine is
//! `benchmark/`'s to measure and judge (`host_blocks_per_sec`, and
//! `rio-stack.run_ns_per_event` under `--trace 1`).

use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, FabricConfig, OrderingMode, Workload};

use crate::gate::{Rule, Trajectory};
use crate::json::{Field, Record, Slot};
use crate::{all_modes, fig10_cfg, groups_for, lossy_cfg, run};

/// Maximum tolerated rise in a cell's group p99.
pub const MAX_P99_RISE: f64 = 0.15;

/// Maximum tolerated drop in a cell's KIOPS.
pub const MAX_KIOPS_DROP: f64 = 0.10;

/// One cell of the grid: the pinned simulated experiment, before it
/// runs.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Figure family (`fig10a_flash`, `fig10b_optane`, `fig10d_4ssd`,
    /// `fig13`, `lossy_fabric`, `multi_initiator`) — selects the
    /// cluster shape and the workload.
    pub figure: &'static str,
    /// Ordering engine.
    pub mode: OrderingMode,
    /// Submitting threads / streams (total, across all initiators).
    pub threads: usize,
    /// Initiators sharing the targets (1 = the classic single-driver
    /// shape; `multi_initiator` cells split `threads` evenly across
    /// this many one-tenant initiators over two shared targets).
    pub initiators: usize,
    /// Fabric loss rate (0 = lossless).
    pub loss: f64,
    /// Fabric path count.
    pub paths: usize,
    /// Ordered groups per thread (fsync-append operations per thread
    /// in `fig13`).
    pub groups: u64,
}

impl CellSpec {
    /// A lossless single-path cell with one initiator.
    pub fn new(figure: &'static str, mode: OrderingMode, threads: usize, groups: u64) -> CellSpec {
        CellSpec {
            figure,
            mode,
            threads,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            groups,
        }
    }
}

/// One measured cell: the spec's identity plus its measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cell {
    /// Figure family of the originating [`CellSpec`].
    pub figure: String,
    /// Ordering-mode label ([`OrderingMode::label`]).
    pub mode: String,
    /// Submitting threads / streams (total, across all initiators).
    pub threads: usize,
    /// Initiators sharing the targets.
    pub initiators: usize,
    /// Fabric loss rate.
    pub loss: f64,
    /// Fabric path count.
    pub paths: usize,
    /// Ordered groups completed, which fixes the workload size: part
    /// of the identity, so one shape at two sizes is two cells.
    pub groups: u64,
    /// Simulation events dispatched (the gate's exact check).
    pub events: u64,
    /// Virtual-time span of the run in seconds.
    pub sim_span_secs: f64,
    /// 4 KB blocks completed.
    pub blocks_done: u64,
    /// Virtual-time 99th-percentile group latency in microseconds
    /// (the gate's tail-latency check).
    pub group_p99_us: f64,
    /// Delivered KIOPS: blocks, or fsync-append operations in `fig13`
    /// (the gate's throughput check).
    pub kiops: f64,
}

impl Record for Cell {
    const FIELDS: &'static [Field<Cell>] = &[
        Field("figure", Some(""), |c| Slot::Str(&mut c.figure)),
        Field("mode", Some("/"), |c| Slot::Str(&mut c.mode)),
        Field("threads", Some(" t="), |c| Slot::Count(&mut c.threads)),
        Field("initiators", Some(" init="), |c| {
            Slot::Count(&mut c.initiators)
        }),
        Field("loss", Some(" loss="), |c| Slot::Float(&mut c.loss, None)),
        Field("paths", Some(" paths="), |c| Slot::Count(&mut c.paths)),
        Field("groups", Some(" groups="), |c| Slot::Int(&mut c.groups)),
        Field("events", None, |c| Slot::Int(&mut c.events)),
        Field("sim_span_secs", None, |c| {
            Slot::Float(&mut c.sim_span_secs, Some(6))
        }),
        Field("blocks_done", None, |c| Slot::Int(&mut c.blocks_done)),
        Field("group_p99_us", None, |c| {
            Slot::Float(&mut c.group_p99_us, Some(3))
        }),
        Field("kiops", None, |c| Slot::Float(&mut c.kiops, Some(6))),
    ];
}

impl Trajectory for Cell {
    const SECTION: &'static str = "grid";
    // The engine does more work for the same workload (any rise in the
    // events dispatched), the tail grows >15%, or throughput falls >10%.
    const RULES: &'static [Rule<Cell>] = &[
        Rule::new("events", |c| c.events as f64, 0.0, |x| format!("{x:.0}")),
        Rule {
            drift: Some("the grid is"),
            ..Rule::new(
                "group p99",
                |c| c.group_p99_us,
                MAX_P99_RISE,
                |x| format!("{x:.1}us"),
            )
        },
        Rule {
            drift: Some("the grid is"),
            ..Rule::new("kiops", |c| c.kiops, -MAX_KIOPS_DROP, |x| format!("{x:.3}"))
        },
    ];

    fn workload_drift(&self, base: &Cell) -> Option<String> {
        // A rise is the `events` rule's failure; a fall is this note.
        (self.events < base.events).then(|| {
            format!(
                "event-count drift: expected {} events, measured {} — engine behavior \
                 changed; regenerate the baseline deliberately",
                base.events, self.events
            )
        })
    }
}

/// The whole grid, in run order: the engine grid, then the figure
/// slices.
pub fn specs() -> Vec<CellSpec> {
    // Three cluster shapes x four modes x two thread counts. Linux
    // runs synchronously (one group per round trip), so it gets
    // proportionally fewer groups, exactly like the figure benches do.
    let mut specs = Vec::new();
    for &(figure, ssds) in &[
        ("fig10a_flash", 1u64),
        ("fig10b_optane", 1),
        ("fig10d_4ssd", 4),
    ] {
        for mode in all_modes() {
            for threads in [2, 8] {
                let groups = groups_for(mode, 600, (ssds * 120_000 / threads as u64).max(8_000));
                specs.push(CellSpec::new(figure, mode, threads, groups));
            }
        }
    }
    // Lossy-fabric cells: the fig_lossy_fabric sweep shape, so the
    // trajectory also tracks retransmission and multi-path events.
    for (loss, paths) in [(1e-3, 1), (1e-3, 4), (1e-2, 4)] {
        for mode in all_modes() {
            let groups = groups_for(mode, 600, 30_000);
            specs.push(CellSpec {
                loss,
                paths,
                ..CellSpec::new("lossy_fabric", mode, 4, groups)
            });
        }
    }
    // Multi-initiator cells: M one-tenant initiators (2 streams each)
    // over two shared lossy targets, so the trajectory also tracks the
    // per-tenant DRR admission and the per-initiator ordering engines.
    for initiators in [2, 4] {
        for mode in all_modes() {
            let groups = groups_for(mode, 600, 6_000);
            let spec = CellSpec::new("multi_initiator", mode, initiators * 2, groups);
            specs.push(CellSpec {
                initiators,
                loss: 1e-3,
                paths: 2,
                ..spec
            });
        }
    }
    specs.extend(crate::fig::slices());
    specs
}

/// Runs one cell and measures it.
pub fn run_spec(spec: &CellSpec) -> Cell {
    let cfg = match spec.figure {
        "fig10a_flash" => fig10_cfg('a', spec.mode, spec.threads),
        "fig10b_optane" => fig10_cfg('b', spec.mode, spec.threads),
        "fig10d_4ssd" => fig10_cfg('d', spec.mode, spec.threads),
        "fig13" => ClusterConfig::single_ssd(spec.mode, SsdProfile::optane905p(), spec.threads),
        "lossy_fabric" => lossy_cfg(spec.mode, spec.threads, spec.loss, spec.paths),
        "multi_initiator" => ClusterConfig {
            net: FabricConfig::lossy(spec.loss, spec.paths),
            ..ClusterConfig::multi_initiator(
                spec.mode,
                spec.initiators,
                spec.threads / spec.initiators,
                2,
            )
        },
        other => panic!("unknown grid figure {other}"),
    };
    let workload = match spec.figure {
        "fig13" => Workload::fsync_append(spec.threads, spec.groups),
        _ => Workload::random_4k(spec.threads, spec.groups),
    };
    let m = run(cfg, workload);
    let iops = if spec.figure == "fig13" {
        m.op_iops()
    } else {
        m.block_iops()
    };
    Cell {
        figure: spec.figure.to_string(),
        mode: spec.mode.label().to_string(),
        threads: spec.threads,
        initiators: spec.initiators,
        loss: spec.loss,
        paths: spec.paths,
        groups: m.groups_done,
        events: m.events_processed,
        sim_span_secs: m.span.as_secs_f64(),
        blocks_done: m.blocks_done,
        group_p99_us: m.group_latency.quantile(0.99).as_micros_f64(),
        kiops: iops / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Document;

    #[test]
    fn grid_shape_is_pinned() {
        // Engine grid: 3 figures x 4 modes x 2 threads + 3 lossy grids
        // x 4 modes + 2 initiator counts x 4 modes = 44; figure slices:
        // 3 fig10 parts x 4 modes + 3 fig13 modes x 3 threads + 4 lossy
        // modes x 2 loss rates + 2 RIO incasts = 31.
        let grid = specs();
        assert_eq!(grid.len(), 75);
        let count = |figure: &str| grid.iter().filter(|s| s.figure == figure).count();
        assert_eq!(count("fig13"), 9);
        assert_eq!(
            count("multi_initiator"),
            10,
            "multi-initiator cells are gated"
        );
        // With `groups` in the identity every cell is its own: a slice
        // and the full-size cell of its shape differ only there.
        let key = |s: &CellSpec| {
            (
                s.figure,
                s.mode.label(),
                s.threads,
                s.initiators,
                s.loss.to_bits(),
                s.paths,
                s.groups,
            )
        };
        let mut keys: Vec<_> = grid.iter().map(key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 75);
    }

    #[test]
    fn render_is_valid_schema_6() {
        let cell = Cell {
            figure: "fig10b_optane".into(),
            mode: "RIO".into(),
            threads: 2,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            groups: 100,
            events: 1_000,
            sim_span_secs: 0.25,
            blocks_done: 400,
            group_p99_us: 123.456,
            kiops: 1.6,
        };
        let doc = Document {
            grid: vec![cell.clone(), cell],
            ..Document::default()
        };
        let json = doc.render();
        assert!(json.contains("\"schema\": 6"));
        assert!(json.contains("\"total_events\": 2000"));
        assert!(json.contains("\"initiators\": 1"));
        assert!(json.contains("\"groups\": 100"));
        assert!(json.contains("\"group_p99_us\": 123.456"));
        assert!(json.contains("\"kiops\": 1.600000"));
        // Nothing host-timed is written.
        assert!(!json.contains("wall") && !json.contains("per_sec"));
        crate::json::read(&json).expect("valid JSON");
    }
}
