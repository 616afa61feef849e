//! The paper's figures, and the `BENCH.json` gate that judges them.
//!
//! Every paper figure/table has a bench target (`cargo bench -p
//! rio-bench --bench figN_...`) whose `main` calls one function of
//! [`fig`]: it runs the simulated experiment and prints the series the
//! paper reports, side by side with the paper's qualitative
//! expectation. EXPERIMENTS.md records the measured numbers against the
//! paper's.
//!
//! A figure runs every simulation through the [`sweep::Recorder`] it is
//! handed, which files each run as one cell of `BENCH.json`'s `grid`,
//! keyed by where the figure prints it. `bench_gate` runs every figure
//! ([`fig::ALL`]) through one recorder, plus the §6.5 crash trials of
//! the `recoveries` section ([`recovery`]), and judges both sections
//! ([`gate`]); so a figure and the gate that guards it are one
//! definition. What the figures do with their cells — sweep and print,
//! derive panels, fault a run at half its span — is written once in
//! `experiment`, and their `--trace-out` run is
//! [`trace_export::traced_cell`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rio_stack::{Cluster, ClusterConfig, RunMetrics, Workload};

mod experiment;
pub mod fig;
pub mod gate;
pub mod json;
pub mod recovery;
pub mod sweep;
pub mod trace_export;

/// Runs one configuration and returns its metrics.
pub(crate) fn run(cfg: ClusterConfig, workload: Workload) -> RunMetrics {
    Cluster::new(cfg, workload).run()
}

/// Prints one table row: a label plus its cells, each right-aligned.
pub(crate) fn row<T: std::fmt::Display>(label: &str, cells: &[T]) {
    print!("{label:>16}");
    for c in cells {
        print!(" {c:>14}");
    }
    println!();
}

/// Formats KIOPS.
pub(crate) fn kiops(v: f64) -> String {
    format!("{:.1}", v / 1e3)
}

/// Formats GB/s.
pub(crate) fn gbps(v: f64) -> String {
    format!("{:.2}", v / 1e9)
}

/// Formats a ratio.
pub(crate) fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats microseconds.
pub(crate) fn us(v: f64) -> String {
    format!("{v:.1}us")
}

/// Geometric mean of ratios (the paper's "on average" comparisons).
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn formatters() {
        assert_eq!(kiops(150_000.0), "150.0");
        assert_eq!(gbps(2.5e9), "2.50");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(ratio(2.0), "2.00x");
        assert_eq!(us(12.34), "12.3us");
    }
}
