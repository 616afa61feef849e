//! The `sim_engine` sweep grid: the `engine` section of `BENCH.json`.
//!
//! The sweep runs a fixed Fig. 10-style grid (every ordering mode over
//! the paper's cluster shapes, plus lossy-fabric and multi-initiator
//! cells) and records what the engine *did* per cell — events
//! dispatched, virtual span, blocks, groups, group p99. The simulated
//! workload is pinned — seeds, thread counts and group counts never
//! vary — so every column is an exact function of the tree. The
//! regression gate ([`crate::gate`]) compares the committed baseline
//! against a re-run of the same grid; how fast the host executes it is
//! the `sim_engine` bench's report and `benchmark/`'s to judge.

use rio_stack::{Cluster, ClusterConfig, FabricConfig, OrderingMode, RunMetrics, Workload};

use crate::{all_modes, fig10_cfg, lossy_cfg};
use crate::gate::{Rule, Trajectory};
use crate::json::{Field, Record, Slot};

/// Maximum tolerated rise in a cell's group p99.
pub const MAX_P99_RISE: f64 = 0.15;

/// One cell of the sweep grid: the pinned simulated experiment, before
/// it runs.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Figure family (`fig10a_flash`, `fig10b_optane`, `fig10d_4ssd`,
    /// `lossy_fabric`, `multi_initiator`) — selects the cluster shape.
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
    /// Ordered groups per thread.
    pub groups: u64,
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
    /// Simulation events dispatched (the gate's exact check).
    pub events: u64,
    /// Virtual-time span of the run in seconds.
    pub sim_span_secs: f64,
    /// 4 KB blocks completed.
    pub blocks_done: u64,
    /// Ordered groups completed.
    pub groups: u64,
    /// Virtual-time 99th-percentile group latency in microseconds
    /// (the gate's tail-latency check).
    pub group_p99_us: f64,
}

impl Record for Cell {
    const FIELDS: &'static [Field<Cell>] = &[
        Field("figure", Some(""), |c| Slot::Str(&mut c.figure)),
        Field("mode", Some("/"), |c| Slot::Str(&mut c.mode)),
        Field("threads", Some(" t="), |c| Slot::Count(&mut c.threads)),
        Field("initiators", Some(" init="), |c| Slot::Count(&mut c.initiators)),
        Field("loss", Some(" loss="), |c| Slot::Float(&mut c.loss, None)),
        Field("paths", Some(" paths="), |c| Slot::Count(&mut c.paths)),
        Field("events", None, |c| Slot::Int(&mut c.events)),
        Field("sim_span_secs", None, |c| Slot::Float(&mut c.sim_span_secs, Some(6))),
        Field("blocks_done", None, |c| Slot::Int(&mut c.blocks_done)),
        Field("groups", None, |c| Slot::Int(&mut c.groups)),
        Field("group_p99_us", None, |c| Slot::Float(&mut c.group_p99_us, Some(3))),
    ];
}

impl Trajectory for Cell {
    const SECTION: &'static str = "engine";
    // The engine does more work for the same workload: any rise in the
    // events dispatched, or a >15% rise in the virtual-time group p99.
    const RULES: &'static [Rule<Cell>] = &[
        Rule::new("events", |c| c.events as f64, 0.0, |x| format!("{x:.0}")),
        Rule {
            drift: Some("the engine grid is"),
            ..Rule::new("group p99", |c| c.group_p99_us, MAX_P99_RISE, |x| format!("{x:.1}us"))
        },
    ];

    fn incomparable(&self, base: &Cell) -> Option<String> {
        // Different workload size: no metric is comparable.
        (self.groups != base.groups).then(|| {
            format!(
                "cell shape drift: {} groups vs baseline {}",
                self.groups, base.groups
            )
        })
    }

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

/// The full (or smoke-scaled) sweep grid, in run order.
pub fn specs(smoke: bool) -> Vec<CellSpec> {
    // Fixed fig10-style grid: three cluster shapes x four modes x two
    // thread counts. Linux runs synchronously (one group per round
    // trip), so it gets proportionally fewer groups, exactly like the
    // figure benches do.
    let thread_axis: &[usize] = if smoke { &[2] } else { &[2, 8] };
    let scale: u64 = if smoke { 10 } else { 1 };
    let mut specs = Vec::new();
    for &(figure, ssds) in &[
        ("fig10a_flash", 1u64),
        ("fig10b_optane", 1),
        ("fig10d_4ssd", 4),
    ] {
        for mode in all_modes() {
            for &threads in thread_axis {
                let groups = match mode {
                    OrderingMode::LinuxNvmf => 600 / scale,
                    _ => (ssds * 120_000 / threads as u64).max(8_000) / scale,
                };
                specs.push(CellSpec {
                    figure,
                    mode: mode.clone(),
                    threads,
                    initiators: 1,
                    loss: 0.0,
                    paths: 1,
                    groups,
                });
            }
        }
    }
    // Lossy-fabric cells: the fig_lossy_fabric sweep shape, so the
    // trajectory also tracks how fast the engine runs retransmission
    // and multi-path events.
    let lossy_grid: &[(f64, usize)] = if smoke {
        &[(1e-3, 2)]
    } else {
        &[(1e-3, 1), (1e-3, 4), (1e-2, 4)]
    };
    for &(loss, paths) in lossy_grid {
        for mode in all_modes() {
            let groups = match mode {
                OrderingMode::LinuxNvmf => 600 / scale,
                _ => 30_000 / scale,
            };
            specs.push(CellSpec {
                figure: "lossy_fabric",
                mode: mode.clone(),
                threads: 4,
                initiators: 1,
                loss,
                paths,
                groups,
            });
        }
    }
    // Multi-initiator cells: M one-tenant initiators (2 streams each)
    // over two shared lossy targets, so the trajectory also tracks the
    // per-tenant DRR admission and the per-initiator ordering engines.
    let init_axis: &[usize] = if smoke { &[2] } else { &[2, 4] };
    for &initiators in init_axis {
        for mode in all_modes() {
            let groups = match mode {
                OrderingMode::LinuxNvmf => 600 / scale,
                _ => 6_000 / scale,
            };
            specs.push(CellSpec {
                figure: "multi_initiator",
                mode: mode.clone(),
                threads: initiators * 2,
                initiators,
                loss: 1e-3,
                paths: 2,
                groups,
            });
        }
    }
    specs
}

/// The CI-affordable subset of the *full-sized* grid the gate re-runs
/// in `--smoke` mode: one single-SSD figure across every mode, plus the
/// single-path lossy cells. Full-sized cells (unlike the `--smoke`
/// sweep's scaled-down ones) keep the deterministic fields comparable
/// to the committed full baseline.
pub fn smoke_subset(spec: &CellSpec) -> bool {
    (spec.figure == "fig10b_optane" && spec.threads == 2)
        || (spec.figure == "lossy_fabric" && spec.loss == 1e-3 && spec.paths == 1)
        || (spec.figure == "multi_initiator" && spec.initiators == 2)
}

/// The cell's cluster, loaded with its workload and ready to run.
pub fn cluster(spec: &CellSpec) -> Cluster {
    let cfg = match spec.figure {
        "fig10a_flash" => fig10_cfg('a', spec.mode, spec.threads),
        "fig10b_optane" => fig10_cfg('b', spec.mode, spec.threads),
        "fig10d_4ssd" => fig10_cfg('d', spec.mode, spec.threads),
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
        other => panic!("unknown sweep figure {other}"),
    };
    Cluster::new(cfg, Workload::random_4k(spec.threads, spec.groups))
}

impl Cell {
    /// The cell `spec`'s run measured.
    pub fn measured(spec: &CellSpec, m: &RunMetrics) -> Cell {
        Cell {
            figure: spec.figure.to_string(),
            mode: spec.mode.label().to_string(),
            threads: spec.threads,
            initiators: spec.initiators,
            loss: spec.loss,
            paths: spec.paths,
            events: m.events_processed,
            sim_span_secs: m.span.as_secs_f64(),
            blocks_done: m.blocks_done,
            groups: m.groups_done,
            group_p99_us: m.group_latency.quantile(0.99).as_micros_f64(),
        }
    }
}

/// Runs one cell.
pub fn run_spec(spec: &CellSpec) -> Cell {
    Cell::measured(spec, &cluster(spec).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Document;

    #[test]
    fn grid_shape_is_pinned() {
        // 3 figures x 4 modes x 2 threads + 3 lossy grids x 4 modes
        // + 2 initiator counts x 4 modes.
        assert_eq!(specs(false).len(), 44);
        // Smoke: 3 x 4 x 1 + 1 x 4 + 1 x 4.
        assert_eq!(specs(true).len(), 20);
        let subset: Vec<CellSpec> = specs(false).into_iter().filter(smoke_subset).collect();
        assert_eq!(
            subset.len(),
            12,
            "gate smoke subset: fig10b t2 + lossy 1-path + 2-initiator"
        );
        assert!(subset.iter().all(|s| s.groups >= 600), "full-sized cells only");
        assert!(
            subset.iter().any(|s| s.initiators > 1),
            "multi-initiator cells must be regression-gated in CI"
        );
    }

    #[test]
    fn render_is_valid_schema_5() {
        let cell = Cell {
            figure: "fig10b_optane".into(),
            mode: "RIO".into(),
            threads: 2,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            events: 1_000,
            sim_span_secs: 0.25,
            blocks_done: 400,
            groups: 100,
            group_p99_us: 123.456,
        };
        let doc = Document { engine: vec![cell.clone(), cell], ..Document::default() };
        let json = doc.render();
        assert!(json.contains("\"schema\": 5"));
        assert!(json.contains("\"total_events\": 2000"));
        assert!(json.contains("\"initiators\": 1"));
        assert!(json.contains("\"groups\": 100"));
        assert!(json.contains("\"group_p99_us\": 123.456"));
        // Nothing host-timed is written.
        assert!(!json.contains("wall") && !json.contains("per_sec"));
        crate::json::read(&json).expect("valid JSON");
    }
}
