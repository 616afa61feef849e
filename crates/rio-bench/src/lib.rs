//! Shared helpers for the figure-regeneration benches.
//!
//! Every paper figure/table has a bench target (`cargo bench -p
//! rio-bench --bench figN_...`) that runs the corresponding simulated
//! experiment and prints the series the paper reports, side by side
//! with the paper's qualitative expectation. EXPERIMENTS.md records the
//! measured numbers against the paper's.
//!
//! The cluster shapes more than one harness runs are catalogued here,
//! once: [`fig10_cfg`] (Figure 10's four topologies), [`lossy_cfg`]
//! (the lossy-fabric cell) and [`recovery::trial`] (one §6.5 crash
//! trial). The figure benches and the two sections of `BENCH.json`
//! (the grid of engine cells and figure slices, the recovery trials)
//! all build their configurations from these, so a figure and the gate
//! that guards it cannot drift apart. What the benches do with their
//! cells — sweep and print, derive panels, fault a run at half its
//! span — is [`experiment`]'s, and their `--trace-out` run is
//! [`trace_export::traced_cell`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rio_ssd::SsdProfile;
use rio_stack::{Cluster, ClusterConfig, FabricConfig, OrderingMode, RunMetrics, Workload};

pub mod experiment;
pub mod fig;
pub mod gate;
pub mod json;
pub mod recovery;
pub mod sweep;
pub mod trace_export;

/// Standard mode list in paper legend order.
pub fn all_modes() -> Vec<OrderingMode> {
    vec![
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
        OrderingMode::Orderless,
    ]
}

/// A cell's group count: `linux` for Linux NVMe-oF, which runs
/// synchronously (one group per round trip) and so gets
/// proportionally fewer, and `others` for every other mode.
pub fn groups_for(mode: OrderingMode, linux: u64, others: u64) -> u64 {
    if mode == OrderingMode::LinuxNvmf {
        linux
    } else {
        others
    }
}

/// The file-system series of Figs. 13 and 15: Ext4, HoraeFS and
/// RioFS over their ordering engines, labelled as the paper labels
/// them.
pub fn fs_modes() -> Vec<(String, OrderingMode)> {
    [
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ]
    .into_iter()
    .map(|m| (fs_label(m).to_string(), m))
    .collect()
}

/// A file-system mode's name in the paper's figures.
fn fs_label(mode: OrderingMode) -> &'static str {
    match mode {
        OrderingMode::LinuxNvmf => "Ext4",
        OrderingMode::Horae => "HORAEFS",
        OrderingMode::Rio { .. } => "RIOFS",
        OrderingMode::Orderless => "orderless",
    }
}

/// `modes` labelled as the paper's legends label them: a sweep's
/// series.
pub fn by_label(modes: Vec<OrderingMode>) -> Vec<(String, OrderingMode)> {
    modes
        .into_iter()
        .map(|m| (m.label().to_string(), m))
        .collect()
}

/// Figure 10's cluster shapes: (a) one flash SSD, (b) one Optane SSD,
/// (c) two SSDs on one target, (d) four SSDs across two targets.
///
/// # Panics
///
/// Panics on a part other than `'a'..='d'`.
pub fn fig10_cfg(part: char, mode: OrderingMode, streams: usize) -> ClusterConfig {
    match part {
        'a' => ClusterConfig::single_ssd(mode, SsdProfile::pm981(), streams),
        'b' => ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), streams),
        'c' => {
            let ssds = vec![SsdProfile::pm981(), SsdProfile::optane905p()];
            ClusterConfig::new(mode, vec![ssds], streams)
        }
        'd' => ClusterConfig::four_ssd_two_targets(mode, streams),
        other => panic!("Figure 10 has parts a-d, not {other:?}"),
    }
}

/// The lossy-fabric cell: `threads` streams on one Optane SSD over a
/// fabric that drops packets at `loss` across `paths` paths.
pub fn lossy_cfg(mode: OrderingMode, threads: usize, loss: f64, paths: usize) -> ClusterConfig {
    ClusterConfig {
        // The paper's asynchronous window: deep enough that per-stream
        // go-back-N stalls overlap instead of starving the SSD.
        max_inflight_per_stream: 64,
        net: FabricConfig::lossy(loss, paths),
        ..ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads)
    }
}

/// Runs one configuration and returns its metrics.
pub fn run(cfg: ClusterConfig, workload: Workload) -> RunMetrics {
    Cluster::new(cfg, workload).run()
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints one table row: a label plus its cells, each right-aligned.
pub fn row<T: std::fmt::Display>(label: &str, cells: &[T]) {
    print!("{label:>16}");
    for c in cells {
        print!(" {c:>14}");
    }
    println!();
}

/// Formats KIOPS.
pub fn kiops(v: f64) -> String {
    format!("{:.1}", v / 1e3)
}

/// Formats GB/s.
pub fn gbps(v: f64) -> String {
    format!("{:.2}", v / 1e9)
}

/// Formats a ratio.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats microseconds.
pub fn us(v: f64) -> String {
    format!("{v:.1}us")
}

/// Geometric mean of ratios (the paper's "on average" comparisons).
pub fn geomean(values: &[f64]) -> f64 {
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
