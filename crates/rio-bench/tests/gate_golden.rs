//! Golden-file tests for the `bench_gate` binary: a fixture baseline
//! against doctored current documents must fail naming the right
//! cells, improved ones must pass, and wrong-schema files and unknown
//! flags must exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use rio_bench::gate::Document;
use rio_bench::json::Record;
use rio_bench::sweep::Cell;

const BENCH: &str = include_str!("../../../BENCH.json");

/// Tables of the fixture baseline, as their figures print them.
const FIG10B: &str = "Figure 10(b): 1 Optane SSD, 1 target — KIOPS of 4 KB ordered writes";
const FIG10A: &str = "Figure 10(a): 1 flash SSD, 1 target — KIOPS of 4 KB ordered writes";
const FIG13: &str = "Figure 13: fsync throughput (K ops/s), avg and p99 latency (us)";
const T65: &str = "§6.5: mean over 30 crash trials, 36 threads, 4 SSDs, 2 targets";

fn cell(table: &str, series: &str, events: u64, p99: f64) -> Cell {
    Cell {
        table: table.into(),
        series: series.into(),
        axis: "8".into(),
        events,
        sim_span_secs: 0.2,
        blocks_done: 120_000,
        group_p99_us: p99,
        kiops: 600.0,
        ..Cell::default()
    }
}

/// A cell of a smaller run, at another column.
fn fig_cell(table: &str, series: &str, kiops: f64) -> Cell {
    Cell {
        axis: "2".into(),
        events: 60_000,
        blocks_done: 6_000,
        kiops,
        ..cell(table, series, 0, 40.0)
    }
}

/// The fixture baseline: six fault-free grid cells from three tables,
/// and one §6.5 crash trial with both recovery phases.
fn baseline() -> Document {
    Document {
        grid: vec![
            cell(FIG10B, "RIO", 532_029, 48.0),
            cell(FIG10B, "orderless", 538_569, 30.0),
            cell(FIG10B, "Linux", 9_602, 21.5),
            fig_cell(FIG10A, "RIO", 704.2),
            fig_cell(FIG10A, "orderless", 761.9),
            fig_cell(FIG13, "Ext4", 9.1),
            Cell {
                series: "RIO (sim)".into(),
                axis: "trial0".into(),
                rebuild_ms: 54.0,
                data_recovery_ms: 30.0,
                ..cell(T65, "", 40_656, 800.0)
            },
        ],
    }
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

fn bench_gate(args: &[&str]) -> (Option<i32>, String, String) {
    let out: Output = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .output()
        .expect("run bench_gate");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).to_string();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// Gates the texts `current` against `base`, written as fixtures
/// called `name`; returns the exit code, stdout and stderr.
fn gate_texts(name: &str, base: &str, current: &str) -> (Option<i32>, String, String) {
    let base = write(&format!("golden_{name}_base.json"), base);
    let cur = write(&format!("golden_{name}_cur.json"), current);
    bench_gate(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ])
}

/// Gates `current` against the fixture baseline.
fn gate(name: &str, current: &Document) -> (Option<i32>, String, String) {
    gate_texts(name, &baseline().render(), &current.render())
}

#[test]
fn identical_run_passes() {
    let (code, stdout, _) = gate("same", &baseline());
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(
        stdout.matches(&format!("PASS {FIG10B}")).count(),
        3,
        "{stdout}"
    );
    assert!(stdout.contains("grid PASS (7 cells compared)"), "{stdout}");
}

/// The wall-clock events/s rule's successor (the name is pinned by the
/// test-name floor): the same workload dispatching more events is the
/// regression, exact to one event.
#[test]
fn doctored_events_per_sec_regression_fails_naming_the_cell() {
    // RIO cell one event busier; others untouched.
    let mut cur = baseline();
    cur.grid[0].events += 1;
    let (code, stdout, _) = gate("events_rise", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {FIG10B} | RIO @ 8")),
        "{stdout}"
    );
    assert!(
        stdout.contains("events regression: 532030 vs baseline 532029 (+0.0%, tolerance +0%)"),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("PASS {FIG10B} | orderless")),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("PASS {FIG10B} | Linux")),
        "{stdout}"
    );
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
    assert!(
        stdout.contains(&format!("PASS {T65} | RIO (sim) @ trial0")),
        "{stdout}"
    );
}

#[test]
fn doctored_p99_regression_fails_naming_the_cell() {
    // The orderless cell's tail grows 30%; event counts unchanged.
    let mut cur = baseline();
    cur.grid[1].group_p99_us *= 1.30;
    let (code, stdout, _) = gate("p99", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {FIG10B} | orderless")),
        "{stdout}"
    );
    assert!(stdout.contains("p99 regression"), "{stdout}");
    assert!(stdout.contains(&format!("PASS {FIG10B} | RIO")), "{stdout}");
}

#[test]
fn within_tolerance_and_improvements_pass() {
    let mut cur = baseline();
    cur.grid[1].group_p99_us *= 1.10; // 10% worse tail: inside 15%.
    cur.grid[2].events /= 2; // Half the events.
    cur.grid[2].group_p99_us *= 0.5; // 2x tighter tail.
    cur.grid[3].kiops *= 0.92; // 8% fewer KIOPS: inside 10%.
    cur.grid[6].data_recovery_ms *= 1.10; // 10% slower: inside 15%.
    let (code, stdout, _) = gate("improved", &cur);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("note: group p99 drift"), "{stdout}");
    assert!(
        stdout.contains("note: data recovery drift: 33.000 ms vs baseline 30.000 ms"),
        "{stdout}"
    );
}

#[test]
fn missing_cell_fails_a_full_comparison() {
    let mut cur = baseline();
    cur.grid.remove(2);
    let (code, stdout, _) = gate("missing", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("missing from the current grid"), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {FIG10B} | Linux")),
        "{stdout}"
    );
}

#[test]
fn schema_mismatch_exits_2() {
    let good = baseline().render();
    let old = good.replace("\"schema\": 8", "\"schema\": 7");
    let (code, _, stderr) = gate_texts("schema_base", &old, &good);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("schema mismatch"), "{stderr}");

    // And a current-run schema mismatch is the same error path.
    let (code, _, stderr) = gate_texts("schema_cur", &good, &old);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("schema mismatch"), "{stderr}");
}

#[test]
fn event_count_drift_warning_names_cells_with_expected_and_actual() {
    // Event counts fall by ~1%: not a regression, so the gate passes
    // but must name the drifted cell with both counts.
    let mut cur = baseline();
    cur.grid[0].events = 527_000;
    let (code, stdout, _) = gate("drifted", &cur);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("WARNING — deterministic event counts drifted in 1 cell(s)"),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "{FIG10B} | RIO @ 8: event-count drift: expected 532029 events, measured 527000"
        )),
        "{stdout}"
    );
}

#[test]
fn fig_identical_trajectory_passes() {
    let (code, stdout, _) = gate("fig_same", &baseline());
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("grid PASS (7 cells compared)"), "{stdout}");
    assert!(
        stdout.contains(&format!("PASS {FIG13} | Ext4 @ 2\n")),
        "{stdout}"
    );
}

#[test]
fn fig_doctored_kiops_regression_fails_naming_the_cell() {
    // The RIO cell loses 20% of its KIOPS; others untouched.
    let mut cur = baseline();
    cur.grid[3].kiops *= 0.80;
    let (code, stdout, _) = gate("fig_kiops", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains(&format!("FAIL {FIG10A} | RIO")), "{stdout}");
    assert!(stdout.contains("kiops regression"), "{stdout}");
    assert!(
        stdout.contains(&format!("PASS {FIG10A} | orderless")),
        "{stdout}"
    );
    assert!(stdout.contains(&format!("PASS {FIG13} | Ext4")), "{stdout}");
    assert!(
        stdout.contains(&format!("PASS {T65} | RIO (sim) @ trial0")),
        "{stdout}"
    );
}

#[test]
fn fig_missing_cell_fails() {
    let mut cur = baseline();
    cur.grid.remove(5);
    let (code, stdout, _) = gate("fig_missing", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("missing from the current grid"), "{stdout}");
    assert!(stdout.contains(&format!("FAIL {FIG13} | Ext4")), "{stdout}");
}

#[test]
fn fig_schema_mismatch_exits_2() {
    // A `BENCH_fig.json` as it was before the three files became one.
    let old = "{\n  \"schema\": 1,\n  \"harness\": \"fig_trajectory\",\n  \"figures\": [\n    \
               {\"figure\": \"fig10a\", \"mode\": \"RIO\", \"threads\": 2, \"initiators\": 1, \
               \"targets\": 1, \"loss\": 0.000000, \"paths\": 1, \"kiops\": 704.2, \"groups\": 6000}\n  ]\n}\n";
    let (code, _, stderr) = gate_texts("fig_schema", old, &baseline().render());
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("file has schema 1, this gate reads schema 8"),
        "{stderr}"
    );
    assert!(
        stderr.contains("bench_gate -- --write BENCH.json"),
        "{stderr}"
    );
}

#[test]
fn one_current_document_feeds_both_sections() {
    // Regressions in the run columns and in a recovery phase, all in
    // the one `--current` file's one grid: the §6.5 trials are cells.
    let mut cur = baseline();
    cur.grid[2].events += 100;
    cur.grid[5].kiops *= 0.5;
    cur.grid[6].rebuild_ms *= 1.2;
    let (code, stdout, _) = gate("both", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {FIG10B} | Linux")),
        "{stdout}"
    );
    assert!(stdout.contains(&format!("FAIL {FIG13} | Ext4")), "{stdout}");
    assert!(
        stdout.contains(&format!(
            "FAIL {T65} | RIO (sim) @ trial0\n     order rebuild regression: 64.800 ms vs \
             baseline 54.000 ms (+20.0%, tolerance +15%)"
        )),
        "{stdout}"
    );
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
    assert!(!stdout.contains("recoveries"), "{stdout}");
    // And a document missing its grid is unusable, not a pass.
    let text = cur.render().replace("\"grid\": [", "\"other\": [");
    let (code, _, stderr) = gate_texts("no_section", &baseline().render(), &text);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no \"grid\" array"), "{stderr}");
}

#[test]
fn a_deleted_or_unknown_flag_exits_2_naming_it() {
    for flag in [
        "--recovery",
        "--no-recovery",
        "--fig",
        "--fig-current",
        "--no-fig",
        "--write-fig",
        "--smoke",
        "--frobnicate",
    ] {
        let (code, stdout, stderr) = bench_gate(&[flag, "x.json"]);
        assert_eq!(code, Some(2), "{flag}: {stdout}{stderr}");
        assert!(
            stderr.contains(&format!("unknown argument {flag}")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: bench_gate"), "{stderr}");
        assert!(stdout.is_empty(), "nothing runs: {stdout}");
    }
    let (code, _, stderr) = bench_gate(&["--current"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--current needs a path"), "{stderr}");
}

#[test]
fn non_finite_engine_measurement_exits_2_naming_file_and_offset() {
    // A `NaN` p99 satisfies no `<` / `>` threshold; it must not pass.
    let doc = baseline().render();
    assert!(doc.contains("\"group_p99_us\": 48.000"), "{doc}");
    let nan = doc.replace("\"group_p99_us\": 48.000", "\"group_p99_us\": NaN");
    let (code, _, stderr) = gate_texts("nan", &doc, &nan);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("golden_nan_cur.json"), "{stderr}");
    assert!(stderr.contains("at byte"), "{stderr}");
}

#[test]
fn fig_non_finite_kiops_exits_2_naming_file_and_offset() {
    let doc = baseline().render();
    assert!(doc.contains("\"kiops\": 704.200000"), "{doc}");
    let nan = doc.replace("\"kiops\": 704.200000", "\"kiops\": NaN");
    let (code, _, stderr) = gate_texts("fig_nan", &doc, &nan);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("golden_fig_nan_cur.json"), "{stderr}");
    assert!(stderr.contains("at byte"), "{stderr}");
}

/// The committed baseline with one grid cell doctored, gated against
/// the undoctored file; returns the exit code and stdout.
fn gate_committed(name: &str, key: &str, doctor: fn(&mut Cell)) -> (Option<i32>, String) {
    let mut cur = Document::parse(BENCH).expect("BENCH.json parses");
    let hit = cur.grid.iter_mut().find(|c| c.key_label() == key);
    doctor(hit.unwrap_or_else(|| panic!("no grid cell {key}")));
    let (code, stdout, _) = gate_texts(name, BENCH, &cur.render());
    (code, stdout)
}

#[test]
fn a_kiops_drop_on_a_full_size_engine_cell_fails_naming_it() {
    let key = "Figure 10(d): 4 SSDs, 2 targets — KIOPS of 4 KB ordered writes | RIO @ 8";
    let (code, stdout) = gate_committed("full_kiops", key, |c| c.kiops *= 0.80);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {key}\n     kiops regression:")),
        "{stdout}"
    );
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("FAIL ")).count(),
        1,
        "{stdout}"
    );
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
}

#[test]
fn an_event_rise_on_a_fig13_cell_fails_naming_it() {
    let key = "Figure 13: fsync throughput (K ops/s), avg and p99 latency (us) | RIOFS @ 16";
    let (code, stdout) = gate_committed("fig13_events", key, |c| c.events += 1);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {key}\n     events regression:")),
        "{stdout}"
    );
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("FAIL ")).count(),
        1,
        "{stdout}"
    );
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
}

#[test]
fn a_kiops_drop_on_a_fig12_cell_fails_naming_it() {
    let key = "Figure 12(a: 4 SSDs, 1 thread): batch-size sweep — GB/s | RIO @ 16";
    let (code, stdout) = gate_committed("fig12_kiops", key, |c| c.kiops *= 0.80);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {key}\n     kiops regression:")),
        "{stdout}"
    );
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("FAIL ")).count(),
        1,
        "{stdout}"
    );
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
}

#[test]
fn a_blocks_change_on_a_fig12_cell_fails_naming_it() {
    // Halving the cell's groups halves its events, blocks and span and
    // keeps its KIOPS and p99: only the exact `blocks_done` rule sees
    // it. Doubling them fails the same way.
    let key = "Figure 12(a: 4 SSDs, 1 thread): batch-size sweep — GB/s | RIO @ 16";
    let halve = |c: &mut Cell| {
        (c.events, c.blocks_done, c.sim_span_secs) =
            (c.events / 2, c.blocks_done / 2, c.sim_span_secs / 2.0);
    };
    let double = |c: &mut Cell| c.blocks_done *= 2;
    let base = Document::parse(BENCH).expect("BENCH.json parses");
    let blocks = base
        .grid
        .iter()
        .find(|c| c.key_label() == key)
        .expect("fig12 cell")
        .blocks_done;
    for (name, doctor, now) in [
        ("fig12_half", halve as fn(&mut Cell), blocks / 2),
        ("fig12_double", double, blocks * 2),
    ] {
        let (code, stdout) = gate_committed(name, key, doctor);
        assert_eq!(code, Some(1), "{stdout}");
        let failure = format!("FAIL {key}\n     blocks_done changed: {now} vs baseline {blocks}");
        assert!(stdout.contains(&failure), "{stdout}");
        assert_eq!(
            stdout.lines().filter(|l| l.starts_with("FAIL ")).count(),
            1,
            "{stdout}"
        );
        assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
    }
}

#[test]
fn a_data_recovery_rise_on_a_t65_trial_fails_naming_it() {
    // §6.5's trials are grid cells: a 20% slower data recovery on one
    // fails that cell alone, on its own phase column.
    let key = format!("{T65} | RIO (sim) @ trial0");
    let (code, stdout) = gate_committed("t65_data", &key, |c| c.data_recovery_ms *= 1.20);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("FAIL {key}\n     data recovery regression:")),
        "{stdout}"
    );
    assert!(stdout.contains("(+20.0%, tolerance +15%)"), "{stdout}");
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("FAIL ")).count(),
        1,
        "{stdout}"
    );
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
}
