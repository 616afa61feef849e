//! The per-figure throughput trajectory: the `figures` section of
//! `BENCH.json`.
//!
//! The figure benches (fig10, fig13, the lossy-fabric and
//! multi-initiator sweeps) are pure virtual time: `(config, seed)`
//! fixes every cell's KIOPS exactly. The trajectory runs a smoke-sized
//! slice of each figure and the gate fails on a >10% drop in any cell's
//! delivered KIOPS; rises (improvements) and sub-threshold drift only
//! warn, flagging that the baseline should be regenerated deliberately.

use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, FabricConfig, OrderingMode, Workload};

use crate::gate::{Rule, Trajectory};
use crate::json::{Field, Record, Slot};
use crate::{all_modes, fig10_cfg, lossy_cfg, run};

/// Maximum tolerated drop in any cell's deterministic KIOPS.
pub const MAX_FIG_DROP: f64 = 0.10;

/// One measured figure cell in the trajectory.
#[derive(Debug, Clone, Default)]
pub struct FigCell {
    /// Which figure sweep the cell belongs to (`fig10a`, `fig13`, ...).
    pub figure: String,
    /// Ordering-mode label (`Linux`, `HORAE`, `RIO`, `orderless`).
    pub mode: String,
    /// Submitting threads (streams across all initiators).
    pub threads: usize,
    /// Initiator machines.
    pub initiators: usize,
    /// Target machines.
    pub targets: usize,
    /// Per-packet fabric loss probability.
    pub loss: f64,
    /// Fabric paths per initiator-target pair.
    pub paths: usize,
    /// Delivered KIOPS (block KIOPS, or op KIOPS for the fsync figure).
    pub kiops: f64,
    /// Ordered groups delivered, pinning the workload size.
    pub groups: u64,
}

impl Record for FigCell {
    const FIELDS: &'static [Field<FigCell>] = &[
        Field("figure", Some(""), |c| Slot::Str(&mut c.figure)),
        Field("mode", Some(" "), |c| Slot::Str(&mut c.mode)),
        Field("threads", Some(" t="), |c| Slot::Count(&mut c.threads)),
        Field("initiators", Some(" init="), |c| Slot::Count(&mut c.initiators)),
        Field("targets", Some(" tgt="), |c| Slot::Count(&mut c.targets)),
        Field("loss", Some(" loss="), |c| Slot::Float(&mut c.loss, Some(6))),
        Field("paths", Some(" paths="), |c| Slot::Count(&mut c.paths)),
        Field("kiops", None, |c| Slot::Float(&mut c.kiops, Some(6))),
        Field("groups", None, |c| Slot::Int(&mut c.groups)),
    ];
}

/// The figures are deterministic virtual time: every baseline cell
/// must be covered, a >[`MAX_FIG_DROP`] KIOPS drop fails, and any
/// smaller movement is noted.
impl Trajectory for FigCell {
    const SECTION: &'static str = "figures";
    const RULES: &'static [Rule<FigCell>] = &[Rule {
        drift: Some("the figures are"),
        ..Rule::new("kiops", |c| c.kiops, -MAX_FIG_DROP, |x| format!("{x:.3}"))
    }];

    fn workload_drift(&self, base: &FigCell) -> Option<String> {
        (self.groups != base.groups)
            .then(|| format!("workload drift: {} groups vs baseline {}", self.groups, base.groups))
    }
}

/// Runs the deterministic figure trajectory: a smoke-sized slice of
/// fig10 (block device, parts a/b/d), fig13 (fsync append), the lossy
/// fabric sweep and the multi-initiator incast, every cell pinned by
/// `(config, seed)` to an exact KIOPS value.
pub fn trajectory() -> Vec<FigCell> {
    let mut cells = Vec::new();

    // Figure 10 slice: every mode on flash, Optane, and the four-SSD
    // two-target topology at two threads.
    for part in ['a', 'b', 'd'] {
        for mode in all_modes() {
            let threads = 2;
            let groups: u64 = match mode {
                OrderingMode::LinuxNvmf => 300,
                _ => 3_000,
            };
            let cfg = fig10_cfg(part, mode.clone(), threads);
            let targets = cfg.targets.len();
            let m = run(cfg, Workload::random_4k(threads, groups));
            cells.push(FigCell {
                figure: format!("fig10{part}"),
                mode: mode.label().to_string(),
                threads,
                initiators: 1,
                targets,
                loss: 0.0,
                paths: 1,
                kiops: m.block_iops() / 1e3,
                groups: m.groups_done,
            });
        }
    }

    // Figure 13 slice: fsync-append op rate on Optane for the three
    // filesystem modes across the thread axis.
    for mode in [
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ] {
        for threads in [1usize, 4, 16] {
            let ops: u64 = match mode {
                OrderingMode::LinuxNvmf => 60,
                _ => 300,
            };
            let cfg = ClusterConfig::single_ssd(mode.clone(), SsdProfile::optane905p(), threads);
            let m = run(cfg, Workload::fsync_append(threads, ops));
            cells.push(FigCell {
                figure: "fig13".to_string(),
                mode: mode.label().to_string(),
                threads,
                initiators: 1,
                targets: 1,
                loss: 0.0,
                paths: 1,
                kiops: m.op_iops() / 1e3,
                groups: m.groups_done,
            });
        }
    }

    // Lossy-fabric slice: every mode under two loss rates on two
    // paths, with the deep asynchronous window the sweep uses.
    for mode in all_modes() {
        for loss in [1e-3f64, 1e-2] {
            let threads = 4;
            let groups: u64 = match mode {
                OrderingMode::LinuxNvmf => 60,
                _ => 2_000,
            };
            let cfg = lossy_cfg(mode.clone(), threads, loss, 2);
            let m = run(cfg, Workload::random_4k(threads, groups));
            cells.push(FigCell {
                figure: "fig_lossy".to_string(),
                mode: mode.label().to_string(),
                threads,
                initiators: 1,
                targets: 1,
                loss,
                paths: 2,
                kiops: m.block_iops() / 1e3,
                groups: m.groups_done,
            });
        }
    }

    // Multi-initiator slice: RIO incast onto two shared targets over
    // a lossy two-path fabric.
    for initiators in [2usize, 4] {
        let mut cfg = ClusterConfig::multi_initiator(
            OrderingMode::Rio { merge: true },
            initiators,
            1,
            2,
        );
        cfg.net = FabricConfig::lossy(1e-3, 2);
        let m = run(cfg, Workload::random_4k(initiators, 400));
        cells.push(FigCell {
            figure: "fig_multi".to_string(),
            mode: "RIO".to_string(),
            threads: initiators,
            initiators,
            targets: 2,
            loss: 1e-3,
            paths: 2,
            kiops: m.block_iops() / 1e3,
            groups: m.groups_done,
        });
    }

    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, Document};

    fn cell(figure: &str, mode: &str, kiops: f64) -> FigCell {
        FigCell {
            figure: figure.into(),
            mode: mode.into(),
            threads: 2,
            initiators: 1,
            targets: 1,
            loss: 0.001,
            paths: 2,
            kiops,
            groups: 3_000,
        }
    }

    /// The `figures` section of a document written and read back.
    fn round_trip(figures: Vec<FigCell>) -> Vec<FigCell> {
        let doc = Document { figures, ..Document::default() }.padded();
        Document::parse(&doc.render()).expect("parse").figures
    }

    #[test]
    fn render_parse_round_trip() {
        let parsed = round_trip(vec![cell("fig10a", "RIO", 512.125), cell("fig13", "Linux", 1.5)]);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].figure, "fig10a");
        assert_eq!(parsed[1].mode, "Linux");
        assert!((parsed[0].kiops - 512.125).abs() < 1e-9);
        assert!((parsed[0].loss - 0.001).abs() < 1e-12);
    }

    #[test]
    fn wrong_schema_is_rejected_with_guidance() {
        let err = Document::parse("{\n \"schema\": 99,\n \"figures\": [\n{}\n]\n}")
            .expect_err("unknown schema must be rejected");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn gate_fails_only_beyond_the_drop_tolerance() {
        let base = vec![cell("fig10a", "RIO", 500.0)];
        // 8% slower: tolerated, but noted as drift.
        let ok = vec![cell("fig10a", "RIO", 460.0)];
        let out = compare(&base, &ok, true);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("drift"));
        // 20% slower: fails.
        let slow = vec![cell("fig10a", "RIO", 400.0)];
        let out = compare(&base, &slow, true);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("kiops regression"));
        // Faster: an improvement passes (with a drift note).
        let better = vec![cell("fig10a", "RIO", 600.0)];
        assert!(!compare(&base, &better, true).failed());
    }

    #[test]
    fn missing_cells_always_fail() {
        let base = vec![cell("fig10a", "RIO", 500.0), cell("fig13", "Linux", 2.0)];
        let partial = vec![cell("fig10a", "RIO", 500.0)];
        let out = compare(&base, &partial, true);
        assert!(out.failed());
        assert_eq!(out.uncovered.len(), 1);
    }

    #[test]
    fn delimiters_inside_strings_round_trip() {
        let mut odd = cell("fig, \"10\" }a{ [x] \\ \t", "Li}nux", 7.5);
        odd.loss = 0.0;
        let parsed = round_trip(vec![odd.clone(), cell("fig13", "RIO", 1.0)]);
        assert_eq!(parsed.len(), 2, "a delimiter inside a string is not a delimiter");
        assert_eq!(parsed[0].figure, odd.figure);
        assert_eq!(parsed[0].mode, "Li}nux");
        assert_eq!(parsed[0].key_label(), odd.key_label());
        assert_eq!(parsed[1].mode, "RIO");
    }
}
