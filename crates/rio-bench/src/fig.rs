//! The figure slices of the gated grid.
//!
//! The figure benches (fig10, fig13, the lossy-fabric and
//! multi-initiator sweeps) are pure virtual time: `(config, seed)`
//! fixes every cell exactly. [`slices`] lists a small slice of each
//! figure as cells of the one grid ([`crate::sweep`]), so the gate
//! judges them by the grid's rules: events may not rise, group p99 may
//! rise at most 15 % and KIOPS may drop at most 10 %.

use rio_stack::OrderingMode;

use crate::sweep::CellSpec;
use crate::{all_modes, groups_for};

/// The figure slices, in run order: fig10 a/b/d at two threads, fig13
/// fsync-append across the thread axis, two-path lossy fabric at two
/// loss rates, and the RIO incast onto two shared targets.
pub fn slices() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for figure in ["fig10a_flash", "fig10b_optane", "fig10d_4ssd"] {
        for mode in all_modes() {
            let groups = groups_for(mode, 300, 3_000);
            specs.push(CellSpec::new(figure, mode, 2, groups));
        }
    }
    for mode in [
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ] {
        for threads in [1, 4, 16] {
            let ops = groups_for(mode, 60, 300);
            specs.push(CellSpec::new("fig13", mode, threads, ops));
        }
    }
    for mode in all_modes() {
        for loss in [1e-3, 1e-2] {
            let groups = groups_for(mode, 60, 2_000);
            specs.push(CellSpec {
                loss,
                paths: 2,
                ..CellSpec::new("lossy_fabric", mode, 4, groups)
            });
        }
    }
    for initiators in [2, 4] {
        let spec = CellSpec::new(
            "multi_initiator",
            OrderingMode::Rio { merge: true },
            initiators,
            400,
        );
        specs.push(CellSpec {
            initiators,
            loss: 1e-3,
            paths: 2,
            ..spec
        });
    }
    specs
}

#[cfg(test)]
mod tests {
    use crate::gate::{compare, Document};
    use crate::json::Record;
    use crate::sweep::Cell;

    fn cell(figure: &str, mode: &str, kiops: f64) -> Cell {
        Cell {
            figure: figure.into(),
            mode: mode.into(),
            threads: 2,
            initiators: 1,
            loss: 0.001,
            paths: 2,
            groups: 3_000,
            events: 30_000,
            sim_span_secs: 0.01,
            blocks_done: 3_000,
            group_p99_us: 40.0,
            kiops,
        }
    }

    /// The `grid` section of a document written and read back.
    fn round_trip(grid: Vec<Cell>) -> Vec<Cell> {
        let doc = Document {
            grid,
            ..Document::default()
        }
        .padded();
        Document::parse(&doc.render()).expect("parse").grid
    }

    #[test]
    fn render_parse_round_trip() {
        let parsed = round_trip(vec![
            cell("fig10a_flash", "RIO", 512.125),
            cell("fig13", "Linux", 1.5),
        ]);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].figure, "fig10a_flash");
        assert_eq!(parsed[1].mode, "Linux");
        assert!((parsed[0].kiops - 512.125).abs() < 1e-9);
        assert!((parsed[0].loss - 0.001).abs() < 1e-12);
    }

    #[test]
    fn wrong_schema_is_rejected_with_guidance() {
        let err = Document::parse("{\n \"schema\": 99,\n \"grid\": [\n{}\n]\n}")
            .expect_err("unknown schema must be rejected");
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn gate_fails_only_beyond_the_drop_tolerance() {
        let base = vec![cell("fig10a_flash", "RIO", 500.0)];
        // 8% slower: tolerated, but noted as drift.
        let ok = vec![cell("fig10a_flash", "RIO", 460.0)];
        let out = compare(&base, &ok);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("kiops drift"));
        // 20% slower: fails.
        let slow = vec![cell("fig10a_flash", "RIO", 400.0)];
        let out = compare(&base, &slow);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("kiops regression"));
        // Faster: an improvement passes (with a drift note).
        let better = vec![cell("fig10a_flash", "RIO", 600.0)];
        assert!(!compare(&base, &better).failed());
    }

    #[test]
    fn missing_cells_always_fail() {
        let base = vec![
            cell("fig10a_flash", "RIO", 500.0),
            cell("fig13", "Linux", 2.0),
        ];
        let partial = vec![cell("fig10a_flash", "RIO", 500.0)];
        let out = compare(&base, &partial);
        assert!(out.failed());
        assert_eq!(
            out.verdicts[1].failures,
            ["cell missing from the current grid"]
        );
    }

    #[test]
    fn delimiters_inside_strings_round_trip() {
        let mut odd = cell("fig, \"10\" }a{ [x] \\ \t", "Li}nux", 7.5);
        odd.loss = 0.0;
        let parsed = round_trip(vec![odd.clone(), cell("fig13", "RIO", 1.0)]);
        assert_eq!(
            parsed.len(),
            2,
            "a delimiter inside a string is not a delimiter"
        );
        assert_eq!(parsed[0].figure, odd.figure);
        assert_eq!(parsed[0].mode, "Li}nux");
        assert_eq!(parsed[0].key_label(), odd.key_label());
        assert_eq!(parsed[1].mode, "RIO");
    }
}
