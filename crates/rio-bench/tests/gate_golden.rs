//! Golden-file tests for the `bench_gate` binary: a fixture baseline
//! against doctored current documents must fail naming the right
//! cells, improved ones must pass, and wrong-schema files and unknown
//! flags must exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use rio_bench::gate::Document;
use rio_bench::json::Record;
use rio_bench::recovery::RecoveryCell;
use rio_bench::sweep::Cell;

const BENCH: &str = include_str!("../../../BENCH.json");

fn cell(figure: &str, mode: &str, events: u64, p99: f64) -> Cell {
    Cell {
        figure: figure.into(),
        mode: mode.into(),
        threads: 2,
        initiators: 1,
        loss: 0.0,
        paths: 1,
        groups: 60_000,
        events,
        sim_span_secs: 0.2,
        blocks_done: 120_000,
        group_p99_us: p99,
        kiops: 600.0,
    }
}

/// A figure-slice cell: the same type, a smaller workload.
fn fig_cell(figure: &str, mode: &str, kiops: f64) -> Cell {
    Cell {
        groups: 6_000,
        events: 60_000,
        blocks_done: 6_000,
        kiops,
        ..cell(figure, mode, 0, 40.0)
    }
}

/// The fixture baseline: three engine cells and three figure slices in
/// the grid, one recovery.
fn baseline() -> Document {
    Document {
        grid: vec![
            cell("fig10b_optane", "RIO", 532_029, 48.0),
            cell("fig10b_optane", "orderless", 538_569, 30.0),
            cell("fig10b_optane", "Linux", 9_602, 21.5),
            fig_cell("fig10a_flash", "RIO", 704.2),
            fig_cell("fig10a_flash", "orderless", 761.9),
            fig_cell("fig13", "Linux", 9.1),
        ],
        recoveries: vec![RecoveryCell {
            label: "trial0".into(),
            threads: 8,
            order_rebuild_ms: 54.0,
            data_recovery_ms: 30.0,
            records: 4_673,
            discards: 767,
        }],
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
    assert_eq!(stdout.matches("PASS fig10b_optane").count(), 3, "{stdout}");
    assert!(stdout.contains("grid PASS (6 cells compared)"), "{stdout}");
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
    assert!(stdout.contains("FAIL fig10b_optane/RIO"), "{stdout}");
    assert!(
        stdout.contains("events regression: 532030 vs baseline 532029 (+0.0%, tolerance +0%)"),
        "{stdout}"
    );
    assert!(stdout.contains("PASS fig10b_optane/orderless"), "{stdout}");
    assert!(stdout.contains("PASS fig10b_optane/Linux"), "{stdout}");
    assert!(stdout.contains("bench_gate: grid FAIL"), "{stdout}");
    assert!(stdout.contains("bench_gate: recoveries PASS"), "{stdout}");
}

#[test]
fn doctored_p99_regression_fails_naming_the_cell() {
    // The orderless cell's tail grows 30%; event counts unchanged.
    let mut cur = baseline();
    cur.grid[1].group_p99_us *= 1.30;
    let (code, stdout, _) = gate("p99", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/orderless"), "{stdout}");
    assert!(stdout.contains("p99 regression"), "{stdout}");
    assert!(stdout.contains("PASS fig10b_optane/RIO"), "{stdout}");
}

#[test]
fn within_tolerance_and_improvements_pass() {
    let mut cur = baseline();
    cur.grid[1].group_p99_us *= 1.10; // 10% worse tail: inside 15%.
    cur.grid[2].events /= 2; // Half the events.
    cur.grid[2].group_p99_us *= 0.5; // 2x tighter tail.
    cur.grid[3].kiops *= 0.92; // 8% fewer KIOPS: inside 10%.
    cur.recoveries[0].data_recovery_ms *= 1.10; // 10% slower: inside 15%.
    let (code, stdout, _) = gate("improved", &cur);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("note: group p99 drift"), "{stdout}");
}

#[test]
fn missing_cell_fails_a_full_comparison() {
    let mut cur = baseline();
    cur.grid.remove(2);
    let (code, stdout, _) = gate("missing", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("missing from the current grid"), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/Linux"), "{stdout}");
}

#[test]
fn schema_mismatch_exits_2() {
    let good = baseline().render();
    let old = good.replace("\"schema\": 6", "\"schema\": 5");
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
        stdout.contains(
            "fig10b_optane/RIO t=2 init=1 loss=0 paths=1 groups=60000: event-count drift: \
             expected 532029 events, measured 527000"
        ),
        "{stdout}"
    );
}

#[test]
fn fig_identical_trajectory_passes() {
    let (code, stdout, _) = gate("fig_same", &baseline());
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("grid PASS (6 cells compared)"), "{stdout}");
    assert!(
        stdout.contains("PASS fig13/Linux t=2 init=1 loss=0 paths=1 groups=6000"),
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
    assert!(stdout.contains("FAIL fig10a_flash/RIO"), "{stdout}");
    assert!(stdout.contains("kiops regression"), "{stdout}");
    assert!(stdout.contains("PASS fig10a_flash/orderless"), "{stdout}");
    assert!(stdout.contains("PASS fig13/Linux"), "{stdout}");
    assert!(stdout.contains("bench_gate: recoveries PASS"), "{stdout}");
}

#[test]
fn fig_missing_cell_fails() {
    let mut cur = baseline();
    cur.grid.pop();
    let (code, stdout, _) = gate("fig_missing", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("missing from the current grid"), "{stdout}");
    assert!(stdout.contains("FAIL fig13/Linux"), "{stdout}");
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
        stderr.contains("file has schema 1, this gate reads schema 6"),
        "{stderr}"
    );
    assert!(
        stderr.contains("bench_gate -- --write BENCH.json"),
        "{stderr}"
    );
}

#[test]
fn one_current_document_feeds_both_sections() {
    // Regressions in both sections, all in the one `--current` file.
    let mut cur = baseline();
    cur.grid[2].events += 100;
    cur.grid[5].kiops *= 0.5;
    cur.recoveries[0].order_rebuild_ms *= 1.2;
    let (code, stdout, _) = gate("both", &cur);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/Linux"), "{stdout}");
    assert!(stdout.contains("FAIL fig13/Linux"), "{stdout}");
    assert!(stdout.contains("FAIL recovery trial0 t=8"), "{stdout}");
    assert!(stdout.contains("order rebuild regression"), "{stdout}");
    for section in ["grid", "recoveries"] {
        assert!(
            stdout.contains(&format!("bench_gate: {section} FAIL")),
            "{stdout}"
        );
    }
    // And a document missing a section is unusable, not a pass.
    let text = cur.render().replace("\"recoveries\": [", "\"other\": [");
    let (code, _, stderr) = gate_texts("no_section", &baseline().render(), &text);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no \"recoveries\" array"), "{stderr}");
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
    let key = "fig10d_4ssd/RIO t=8 init=1 loss=0 paths=1 groups=480000";
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
    let key = "fig13/RIO t=16 init=1 loss=0 paths=1 groups=14400";
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
