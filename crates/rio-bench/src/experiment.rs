//! The experiment routines the figures share.
//!
//! A figure ([`crate::fig`]) keeps its paper text, its axes and its
//! cell builder; what it does with them is written here once. [`sweep`]
//! runs series × axis and prints the table. The [`Sweep`] panels print
//! rows derived from its runs: each cell over a reference series, each
//! cell over its row's first cell, or the geomean of one series over
//! another. [`half_span_faults`] is the survivable-fault trial of the
//! recovery and integrity figures, on the testbed [`fault_cfg`] builds.
//! Every run goes through the [`Recorder`] the figure was handed, keyed
//! by the row and column it prints in.

use std::fmt::Display;

use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode, RunMetrics,
    Workload,
};

use crate::sweep::Recorder;
use crate::{geomean, ratio, row};

/// One metric row of a sweep: its label, in which `{}` stands for the
/// series label, and the cell it prints for each run.
pub(crate) type MetricRow<'a> = (&'a str, fn(&RunMetrics) -> String);

/// A printed sweep: each series' label and its runs along the axis.
pub(crate) struct Sweep {
    /// `(label, runs)` per series, in print order.
    pub(crate) series: Vec<(String, Vec<RunMetrics>)>,
}

/// Runs the cell `cell` builds for every series × axis value through
/// `rec` and prints the table under the section header `title`: a
/// `corner` row naming the axis values, then each of `rows` per series.
pub(crate) fn sweep<S, X: Display>(
    rec: &mut Recorder,
    title: &str,
    corner: &str,
    axis: &[X],
    series: Vec<(String, S)>,
    rows: &[MetricRow],
    cell: impl Fn(&S, &X) -> (ClusterConfig, Workload),
) -> Sweep {
    rec.header(title);
    let columns: Vec<String> = axis.iter().map(X::to_string).collect();
    row(corner, &columns);
    let mut printed = Vec::new();
    for (label, key) in series {
        let mut runs = Vec::new();
        for (x, column) in axis.iter().zip(&columns) {
            let (cfg, wl) = cell(&key, x);
            runs.push(rec.run(&label, column, cfg, wl));
        }
        for (name, metric) in rows {
            let cells: Vec<String> = runs.iter().map(metric).collect();
            row(&name.replace("{}", &label), &cells);
        }
        printed.push((label, runs));
    }
    Sweep { series: printed }
}

/// Each value over the same cell of `reference`.
pub(crate) fn ratios(values: &[f64], reference: &[f64]) -> Vec<f64> {
    values.iter().zip(reference).map(|(v, r)| v / r).collect()
}

/// Each value as a percentage of the first, which is floored at 1e-12
/// so that a zero first cell divides by no zero.
pub(crate) fn retained(values: &[f64]) -> Vec<f64> {
    let base = values.first().copied().unwrap_or(0.0).max(1e-12);
    values.iter().map(|v| 100.0 * v / base).collect()
}

fn values(runs: &[RunMetrics], metric: fn(&RunMetrics) -> f64) -> Vec<f64> {
    runs.iter().map(metric).collect()
}

impl Sweep {
    /// The runs of the series labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics if no series has that label.
    pub(crate) fn runs(&self, label: &str) -> &[RunMetrics] {
        let found = self.series.iter().find(|(l, _)| l == label);
        &found.unwrap_or_else(|| panic!("no series {label}")).1
    }

    /// Prints the `--- title ---` panel derived from `metric`: one row
    /// per series, its cells computed by `cells`.
    fn panel(
        &self,
        title: &str,
        metric: fn(&RunMetrics) -> f64,
        cells: impl Fn(&[f64]) -> Vec<String>,
    ) {
        println!("--- {title} ---");
        for (label, runs) in &self.series {
            row(label, &cells(&values(runs, metric)));
        }
    }

    /// Prints each cell's `metric` over the same cell of the
    /// `reference` series (the paper's normalised panels).
    pub(crate) fn print_over(&self, title: &str, reference: &str, metric: fn(&RunMetrics) -> f64) {
        let base = values(self.runs(reference), metric);
        self.panel(title, metric, |v| {
            ratios(v, &base).iter().map(|r| format!("{r:.2}")).collect()
        });
    }

    /// Prints each cell's `metric` retained over its row's first cell.
    pub(crate) fn print_retained(&self, title: &str, metric: fn(&RunMetrics) -> f64) {
        self.panel(title, metric, |v| {
            retained(v).iter().map(|p| format!("{p:.1}%")).collect()
        });
    }

    /// Prints the `avg a/b` row: the geomean of series `a`'s `metric`
    /// over series `b`'s, padded to the axis width if `pad`.
    pub(crate) fn print_avg(&self, a: &str, b: &str, metric: fn(&RunMetrics) -> f64, pad: bool) {
        let over = ratios(&values(self.runs(a), metric), &values(self.runs(b), metric));
        let mut cells = vec![ratio(geomean(&over))];
        if pad {
            cells.resize(over.len(), String::new());
        }
        row(&format!("avg {a}/{b}"), &cells);
    }
}

/// The survivable-fault testbed: `threads` streams on two targets of
/// one `ssd` each over fabric `net`, 8 cores a side, 64-deep windows,
/// seed 77.
pub(crate) fn fault_cfg(
    mode: OrderingMode,
    ssd: fn() -> SsdProfile,
    threads: usize,
    net: FabricConfig,
) -> ClusterConfig {
    ClusterConfig {
        seed: 77,
        net,
        cores: 8,
        max_inflight_per_stream: 64,
        ..ClusterConfig::new(mode, vec![vec![ssd()], vec![ssd()]], threads)
    }
}

/// Survivable faults at half the crash-free span: runs `cfg` on `wl`
/// without faults, then reruns it once per labelled fault kind with
/// that fault, resuming, at half the first run's span. Asserts that
/// every rerun delivered every group exactly once and balanced its
/// integrity ledger, and prints one row per fault: order rebuild, data
/// recovery, the `middle` cells, and the last epoch's throughput
/// retained over the first's. `rec` files each rerun under its row
/// label, and the fault-free run under the first row's label at
/// column `fault-free`.
///
/// # Panics
///
/// Panics if a faulted run loses or doubles a group, or leaves a
/// detected corruption unresolved.
pub(crate) fn half_span_faults(
    rec: &mut Recorder,
    cfg: ClusterConfig,
    wl: Workload,
    faults: Vec<(String, FaultKind)>,
    middle: fn(&RunMetrics) -> Vec<String>,
) -> Vec<RunMetrics> {
    let first = faults.first().map_or("", |(label, _)| label.as_str());
    let span = rec
        .run(first, "fault-free", cfg.clone(), wl.clone())
        .finished_at;
    let at = SimTime::from_nanos(span.as_nanos() / 2);
    let groups = wl.threads as u64 * wl.groups_per_thread;
    let trial = |(label, kind): (String, FaultKind)| {
        let events = vec![FaultEvent {
            at,
            kind,
            resume: true,
        }];
        let faulted = ClusterConfig {
            faults: FaultPlan { events },
            ..cfg.clone()
        };
        let m = rec.run(&label, "", faulted, wl.clone());
        assert_eq!(
            m.groups_done, groups,
            "{label}: a fault lost or doubled groups"
        );
        assert!(
            m.integrity.balanced(),
            "{label}: integrity ledger out of balance"
        );
        let r = &m.recoveries[0];
        let first = m.epochs.first().map_or(0.0, |e| e.block_iops());
        let last = m.epochs.last().map_or(0.0, |e| e.block_iops());
        let retention = if first > 0.0 { last / first } else { 0.0 };
        let mut cells = vec![
            format!("{:.1} ms", r.order_rebuild.as_secs_f64() * 1e3),
            format!("{:.2} ms", r.data_recovery.as_secs_f64() * 1e3),
        ];
        cells.extend(middle(&m));
        cells.push(format!("{:.1}%", retention * 100.0));
        row(&label, &cells);
        m
    };
    faults.into_iter().map(trial).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Record;

    #[test]
    fn ratios_divide_cell_by_cell() {
        assert_eq!(ratios(&[2.0, 9.0, 5.0], &[4.0, 3.0, 5.0]), [0.5, 3.0, 1.0]);
        // A shorter reference ends the row.
        assert_eq!(ratios(&[2.0, 9.0], &[4.0]), [0.5]);
    }

    #[test]
    fn retained_is_over_the_first_cell_with_a_zero_guard() {
        assert_eq!(retained(&[200.0, 150.0, 50.0]), [100.0, 75.0, 25.0]);
        // A first cell of zero divides by 1e-12, not by zero.
        let zero = retained(&[0.0, 1e-12]);
        assert_eq!(zero[0], 0.0);
        assert!((zero[1] - 100.0).abs() < 1e-9);
        assert!(retained(&[]).is_empty());
    }

    #[test]
    fn geomean_of_ratios_is_the_avg_row() {
        let over = ratios(&[2.0, 32.0], &[1.0, 4.0]);
        assert!((geomean(&over) - 4.0).abs() < 1e-9);
        // A zero ratio counts as 1e-12, so the mean stays finite.
        let g = geomean(&ratios(&[0.0, 1.0], &[1.0, 1.0]));
        assert!(g > 0.0 && (g - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn half_span_faults_resume_and_deliver_every_group_once() {
        let (threads, groups) = (2, 300);
        let mode = OrderingMode::Rio { merge: true };
        let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
        let wl = Workload::seq_batched(threads, groups, 4, 1);
        let faults = vec![
            (
                "crash".to_string(),
                FaultKind::PowerFail {
                    targets: Vec::new(),
                },
            ),
            ("nic reset".to_string(), FaultKind::NicReset { target: 0 }),
        ];
        let mut rec = Recorder::default();
        rec.header("faults");
        let runs = half_span_faults(&mut rec, cfg, wl, faults, |_| Vec::new());
        assert_eq!(runs.len(), 2);
        let keys: Vec<String> = rec.cells.iter().map(Record::key_label).collect();
        assert_eq!(
            keys,
            [
                "faults | crash @ fault-free",
                "faults | crash",
                "faults | nic reset"
            ]
        );
        for m in &runs {
            assert_eq!(m.epochs.len(), 2);
            assert_eq!(m.groups_done, threads as u64 * groups);
            assert_eq!(m.recoveries.len(), 1);
        }
        // Both faults land at the same instant: half the one baseline.
        assert_eq!(
            runs[0].recoveries[0].crashed_at,
            runs[1].recoveries[0].crashed_at
        );
    }

    #[test]
    fn a_sweep_records_one_cell_per_printed_run() {
        let mut rec = Recorder::default();
        let series = vec![("w/o".to_string(), false), ("w/".to_string(), true)];
        let fig = sweep(
            &mut rec,
            "tiny sweep",
            "series \\ batch",
            &[1usize, 4, 16],
            series,
            &[("{}", |m| m.blocks_done.to_string())],
            |&merging, &batch| {
                let mode = OrderingMode::Orderless;
                let mut cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 1);
                cfg.plug_merge = merging;
                (cfg, Workload::seq_batched(1, 20, batch, 1))
            },
        );
        // Exactly series × axis cells, keyed by the printed header,
        // row label and column, in print order, each the run printed.
        let keys: Vec<String> = rec.cells.iter().map(Record::key_label).collect();
        let want: Vec<String> = ["w/o", "w/"]
            .iter()
            .flat_map(|s| [1, 4, 16].map(|b| format!("tiny sweep | {s} @ {b}")))
            .collect();
        assert_eq!(keys, want);
        let printed = fig.series.iter().flat_map(|(_, runs)| runs);
        for (cell, m) in rec.cells.iter().zip(printed) {
            assert_eq!(cell.events, m.events_processed);
            assert_eq!(cell.blocks_done, m.blocks_done);
        }
    }
}
