//! The gated grid: the `grid` section of `BENCH.json`.
//!
//! Every simulation a figure ([`crate::fig`]) runs goes through one
//! [`Recorder`], which files it as one [`Cell`] keyed by where the
//! figure prints it: the table's header, the series (row) label and
//! the axis value. `bench_gate` runs every figure through one recorder
//! and writes its cells, so the grid holds exactly the runs the benches
//! print, at the size they print them. Every cell records what the
//! engine *did* — events dispatched, virtual span, blocks, group p99 —
//! and the KIOPS it delivered. The figures pin their workloads — seeds,
//! thread counts and group counts never vary — so every column is an
//! exact function of the tree. The regression gate ([`crate::gate`])
//! compares the committed baseline against a re-run of the figures;
//! how fast the host executes the engine is `benchmark/`'s to measure
//! and judge (`host_blocks_per_sec`, and `rio-stack.run_ns_per_event`
//! under `--trace 1`).

use rio_stack::{ClusterConfig, RunMetrics, Workload};

use crate::gate::{Rule, Trajectory};
use crate::json::{Field, Record, Slot};
use crate::run;

/// Maximum tolerated rise in a cell's group p99.
pub const MAX_P99_RISE: f64 = 0.15;

/// Maximum tolerated drop in a cell's KIOPS.
pub const MAX_KIOPS_DROP: f64 = 0.10;

/// One measured run: where its figure prints it, and what it measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cell {
    /// The header of the table the run prints in.
    pub table: String,
    /// The row label it prints under; empty when the run is its
    /// table's only run.
    pub series: String,
    /// The axis value (column) it prints under; empty when the run
    /// fills its row.
    pub axis: String,
    /// Simulation events dispatched (the gate's exact check).
    pub events: u64,
    /// Virtual-time span of the run in seconds.
    pub sim_span_secs: f64,
    /// 4 KB blocks completed.
    pub blocks_done: u64,
    /// Virtual-time 99th-percentile group latency in microseconds
    /// (the gate's tail-latency check).
    pub group_p99_us: f64,
    /// Delivered KIOPS of 4 KB blocks (the gate's throughput check).
    pub kiops: f64,
}

impl Record for Cell {
    const FIELDS: &'static [Field<Cell>] = &[
        Field("table", Some(""), |c| Slot::Str(&mut c.table)),
        Field("series", Some(" | "), |c| Slot::Str(&mut c.series)),
        Field("axis", Some(" @ "), |c| Slot::Str(&mut c.axis)),
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

/// Runs every simulation of the figures it is handed, and files each
/// as one grid [`Cell`] under the table [`Recorder::header`] opened
/// last.
#[derive(Debug, Default)]
pub struct Recorder {
    table: String,
    /// Every run so far, in run order.
    pub cells: Vec<Cell>,
}

impl Recorder {
    /// Prints a section header and opens its table: the runs that
    /// follow are filed under `title`.
    pub fn header(&mut self, title: &str) {
        println!();
        println!("=== {title} ===");
        self.table = title.to_string();
    }

    /// Runs `cfg` on `wl` and records it as the open table's cell at
    /// row `series` and column `axis`.
    pub fn run(
        &mut self,
        series: &str,
        axis: &str,
        cfg: ClusterConfig,
        wl: Workload,
    ) -> RunMetrics {
        let m = run(cfg, wl);
        self.cells.push(Cell {
            table: self.table.clone(),
            series: series.to_string(),
            axis: axis.to_string(),
            events: m.events_processed,
            sim_span_secs: m.span.as_secs_f64(),
            blocks_done: m.blocks_done,
            group_p99_us: m.group_latency.quantile(0.99).as_micros_f64(),
            kiops: m.block_iops() / 1e3,
        });
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Document;

    #[test]
    fn grid_shape_is_pinned() {
        // One cell per run the figures make (`fig::ALL`): fig2 24, fig3
        // 20, fig10 64, fig11 40, fig12 50, fig13 18, fig14 6, fig15
        // 39, t65 24 (18 faulted runs and their 6 fault-free spans),
        // the ablation 4, the lossy fabric 48, integrity 28 (12 sweep
        // runs, 8 faulted runs and their 8 spans) and multi-initiator
        // 35 (24 scaling runs, 3 weight runs and 8 all-engine runs).
        let doc = Document::parse(include_str!("../../../BENCH.json")).expect("BENCH.json parses");
        assert_eq!(doc.grid.len(), 400);
        let mut keys: Vec<String> = doc.grid.iter().map(Record::key_label).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 400, "two runs print at one place");
        let count = |table: &str| {
            doc.grid
                .iter()
                .filter(|c| c.table.starts_with(table))
                .count()
        };
        assert_eq!(count("Figure 12("), 50);
        assert_eq!(count("Multi-initiator, every engine"), 8);
    }

    #[test]
    fn render_is_valid_schema_7() {
        let cell = Cell {
            table: "Figure 10(b): 1 Optane SSD".into(),
            series: "RIO".into(),
            axis: "2".into(),
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
        assert!(json.contains("\"schema\": 7"));
        assert!(json.contains("\"total_events\": 2000"));
        assert!(json.contains("\"series\": \"RIO\""));
        assert!(json.contains("\"axis\": \"2\""));
        assert!(json.contains("\"group_p99_us\": 123.456"));
        assert!(json.contains("\"kiops\": 1.600000"));
        // Nothing host-timed is written.
        assert!(!json.contains("wall") && !json.contains("per_sec"));
        crate::json::read(&json).expect("valid JSON");
    }
}
