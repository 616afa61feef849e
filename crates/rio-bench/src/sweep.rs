//! The `sim_engine` sweep grid and its `BENCH_sim.json` rendering.
//!
//! The sweep runs a fixed Fig. 10-style grid (every ordering mode over
//! the paper's cluster shapes, plus lossy-fabric cells) and records
//! *host* wall-clock and simulator event throughput per cell. The
//! simulated workload is pinned — seeds, thread counts and group counts
//! never vary — so the JSON tracks only how fast the engine itself
//! executes, PR over PR. The regression gate ([`crate::gate`]) compares
//! a committed baseline against a re-run of the same grid.

use std::time::Instant;

use rio_stack::{Cluster, ClusterConfig, FabricConfig, OrderingMode, Workload};

use crate::{all_modes, fig10_cfg, lossy_cfg};
use crate::gate::{render, Rule, Trajectory, MAX_EPS_DROP, MAX_P99_RISE};
use crate::json::{Field, Record, Slot};

/// Schema version of `BENCH_sim.json`. Version 3 added the
/// deterministic per-cell `groups` and `group_p99_us` fields the
/// regression gate's tail-latency check reads; version 4 added the
/// per-cell `initiators` count and the `multi_initiator` cells it
/// keys.
pub const SCHEMA: u64 = 4;

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
    /// Host wall-clock seconds the run took (noisy; machine-dependent).
    pub wall_secs: f64,
    /// Simulation events dispatched (deterministic).
    pub events: u64,
    /// Virtual-time span of the run in seconds (deterministic).
    pub sim_span_secs: f64,
    /// 4 KB blocks completed (deterministic).
    pub blocks_done: u64,
    /// Ordered groups completed (deterministic).
    pub groups: u64,
    /// Virtual-time 99th-percentile group latency in microseconds
    /// (deterministic — the gate's tail-latency check).
    pub group_p99_us: f64,
}

impl Cell {
    /// Host events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-12)
    }
}

impl Record for Cell {
    const FIELDS: &'static [Field<Cell>] = &[
        Field("figure", Some(""), |c| Slot::Str(&mut c.figure)),
        Field("mode", Some("/"), |c| Slot::Str(&mut c.mode)),
        Field("threads", Some(" t="), |c| Slot::Count(&mut c.threads)),
        Field("initiators", Some(" init="), |c| Slot::Count(&mut c.initiators)),
        Field("loss", Some(" loss="), |c| Slot::Float(&mut c.loss, None)),
        Field("paths", Some(" paths="), |c| Slot::Count(&mut c.paths)),
        Field("wall_secs", None, |c| Slot::Float(&mut c.wall_secs, Some(6))),
        Field("events", None, |c| Slot::Int(&mut c.events)),
        Field("events_per_sec", None, |c| Slot::Derived(c.events_per_sec(), 0)),
        Field("sim_span_secs", None, |c| Slot::Float(&mut c.sim_span_secs, Some(6))),
        Field("blocks_done", None, |c| Slot::Int(&mut c.blocks_done)),
        Field("groups", None, |c| Slot::Int(&mut c.groups)),
        Field("group_p99_us", None, |c| Slot::Float(&mut c.group_p99_us, Some(3))),
    ];
}

/// The `BENCH_sim.json` header after `schema` and `harness`.
#[derive(Debug, Clone, Default)]
pub struct SweepHeader {
    /// Whether the file was written by a `--smoke` (scaled-down) sweep.
    pub smoke: bool,
    /// Wall seconds of the fixed CPU calibration loop ([`calibrate`])
    /// on the machine that wrote the file.
    pub calib_secs: f64,
    /// Sum of the cells' wall-clock seconds.
    pub total_wall_secs: f64,
    /// Sum of the cells' event counts.
    pub total_events: u64,
}

impl Record for SweepHeader {
    const FIELDS: &'static [Field<SweepHeader>] = &[
        Field("smoke", None, |h| Slot::Bool(&mut h.smoke)),
        Field("calib_secs", None, |h| Slot::Float(&mut h.calib_secs, Some(6))),
        Field("total_wall_secs", None, |h| Slot::Float(&mut h.total_wall_secs, Some(6))),
        Field("total_events", None, |h| Slot::Int(&mut h.total_events)),
        Field("events_per_sec", None, |h| {
            Slot::Derived(h.total_events as f64 / h.total_wall_secs.max(1e-12), 0)
        }),
    ];
}

impl Trajectory for Cell {
    type Header = SweepHeader;
    const SCHEMA: u64 = SCHEMA;
    const HARNESS: &'static str = "sim_engine";
    const ARRAY: &'static str = "figures";
    const REGEN: &'static str = "the baseline with `cargo bench -p rio-bench --bench sim_engine`";
    const CURRENT: &'static str = "run";
    // The engine got slower: a >10% drop in wall-clock events/s, judged
    // against the baseline scaled to this machine's speed, or a >15%
    // rise in the deterministic virtual-time group p99 (which the
    // machine factor never loosens).
    const RULES: &'static [Rule<Cell>] = &[
        Rule {
            machine_scaled: true,
            ..Rule::new("events/s", Cell::events_per_sec, -MAX_EPS_DROP, |x| format!("{x:.0}"))
        },
        Rule::new("group p99", |c| c.group_p99_us, MAX_P99_RISE, |x| format!("{x:.1}us")),
    ];

    fn check_header(header: &SweepHeader) -> Result<(), String> {
        // The gate divides by it to normalize machine speed.
        if header.calib_secs > 0.0 {
            Ok(())
        } else {
            Err(format!("calib_secs must be positive, got {}", header.calib_secs))
        }
    }

    fn incomparable(&self, base: &Cell) -> Option<String> {
        // Different workload size: no metric is comparable.
        (self.groups != base.groups).then(|| {
            format!(
                "cell shape drift: {} groups vs baseline {} (was the baseline written by --smoke?)",
                self.groups, base.groups
            )
        })
    }

    fn workload_drift(&self, base: &Cell) -> Option<String> {
        (self.events != base.events).then(|| {
            format!(
                "event-count drift: expected {} events, measured {} — engine behavior \
                 changed; regenerate the baseline deliberately",
                base.events, self.events
            )
        })
    }
}

/// Measures a fixed machine-speed calibration workload and returns its
/// wall-clock seconds, best of three passes.
///
/// The workload mirrors what the event-driven simulator is bound by —
/// dependent loads scattered over a working set far larger than L3 (a
/// pointer chase across a 64 MB permutation cycle) plus a short ALU
/// hash pass — without sharing any code with the engine, so engine
/// regressions do not move it but host slowness (CPU steal, frequency
/// scaling, memory-bandwidth contention from noisy neighbors) moves it
/// roughly as much as it moves the sweep cells. The gate divides
/// current events/s figures by the calibration ratio before comparing,
/// so a slower machine does not read as an engine regression.
pub fn calibrate() -> f64 {
    // A single-cycle permutation over 8M slots (64 MB): slot i points
    // at the next index to visit. Built by Sattolo's algorithm with a
    // fixed multiplicative generator so the chase is deterministic and
    // every load depends on the previous one.
    const SLOTS: usize = 1 << 23;
    let mut perm: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % i;
        perm.swap(i, j);
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        // Latency-bound leg: 2M dependent cache-missing loads.
        let mut at = 0u32;
        for _ in 0..(1 << 21) {
            at = perm[at as usize];
        }
        // ALU leg: FNV-1a over the permutation's first MB.
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for &w in &perm[..(1 << 18)] {
            acc = (acc ^ w as u64).wrapping_mul(0x100_0000_01b3);
        }
        std::hint::black_box((at, acc));
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
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

/// Runs one cell and measures it: the deterministic simulation runs
/// three times and the *fastest* wall clock is kept. Host jitter
/// (scheduler stalls, CPU steal on shared machines) is one-sided — it
/// only ever makes a run slower — so the minimum over repeats is the
/// stable estimator of engine speed, on both the baseline-writing and
/// the gate-re-running side.
pub fn run_spec(spec: &CellSpec) -> Cell {
    let mut cell = run_spec_once(spec);
    for _ in 0..2 {
        let repeat = run_spec_once(spec);
        debug_assert_eq!(repeat.events, cell.events, "sim must be deterministic");
        if repeat.wall_secs < cell.wall_secs {
            cell = repeat;
        }
    }
    cell
}

fn run_spec_once(spec: &CellSpec) -> Cell {
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
    let wl = Workload::random_4k(spec.threads, spec.groups);
    let started = Instant::now();
    let m = Cluster::new(cfg, wl).run();
    let wall_secs = started.elapsed().as_secs_f64();
    Cell {
        figure: spec.figure.to_string(),
        mode: spec.mode.label().to_string(),
        threads: spec.threads,
        initiators: spec.initiators,
        loss: spec.loss,
        paths: spec.paths,
        wall_secs,
        events: m.events_processed,
        sim_span_secs: m.span.as_secs_f64(),
        blocks_done: m.blocks_done,
        groups: m.groups_done,
        group_p99_us: m.group_latency.quantile(0.99).as_micros_f64(),
    }
}

/// Runs the whole grid.
pub fn sweep(smoke: bool) -> Vec<Cell> {
    specs(smoke).iter().map(run_spec).collect()
}

/// Renders the cells as the `BENCH_sim.json` document (schema
/// [`SCHEMA`]). `calib_secs` is the [`calibrate`] measurement taken
/// alongside the sweep.
pub fn render_json(cells: &[Cell], smoke: bool, calib_secs: f64) -> String {
    let header = SweepHeader {
        smoke,
        calib_secs,
        total_wall_secs: cells.iter().map(|c| c.wall_secs).sum(),
        total_events: cells.iter().map(|c| c.events).sum(),
    };
    render(&header, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn render_is_valid_schema_4() {
        let cell = Cell {
            figure: "fig10b_optane".into(),
            mode: "RIO".into(),
            threads: 2,
            initiators: 1,
            loss: 0.0,
            paths: 1,
            wall_secs: 0.5,
            events: 1_000,
            sim_span_secs: 0.25,
            blocks_done: 400,
            groups: 100,
            group_p99_us: 123.456,
        };
        let json = render_json(&[cell], false, 0.05);
        assert!(json.contains("\"schema\": 4"));
        assert!(json.contains("\"calib_secs\": 0.050000"));
        assert!(json.contains("\"initiators\": 1"));
        assert!(json.contains("\"groups\": 100"));
        assert!(json.contains("\"group_p99_us\": 123.456"));
        assert!(json.contains("\"events_per_sec\": 2000"));
    }

    #[test]
    fn calibration_is_quick_and_positive() {
        let c = calibrate();
        assert!(c > 0.0 && c < 5.0, "calibration took {c}s");
    }
}
