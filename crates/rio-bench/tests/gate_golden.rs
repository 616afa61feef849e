//! Golden-file tests for the `bench_gate` binary: a fixture baseline
//! against doctored current runs must fail naming the right cells,
//! improved runs must pass, and wrong-schema files must exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

use rio_bench::fig::{render_fig_json, FigCell};
use rio_bench::sweep::{render_json, Cell};

fn cell(figure: &str, mode: &str, wall_secs: f64, events: u64, p99: f64) -> Cell {
    Cell {
        figure: figure.into(),
        mode: mode.into(),
        threads: 2,
        initiators: 1,
        loss: 0.0,
        paths: 1,
        wall_secs,
        events,
        sim_span_secs: 0.2,
        blocks_done: 120_000,
        groups: 60_000,
        group_p99_us: p99,
    }
}

fn baseline_cells() -> Vec<Cell> {
    vec![
        cell("fig10b_optane", "RIO", 0.200, 532_029, 48.0),
        cell("fig10b_optane", "orderless", 0.150, 538_569, 30.0),
        cell("fig10b_optane", "Linux", 0.0013, 9_602, 21.5),
    ]
}

/// Renders a fixture with a fixed machine-calibration stamp, so both
/// sides claim the same machine speed and comparisons are raw.
fn render(cells: &[Cell], smoke: bool) -> String {
    render_json(cells, smoke, 0.05)
}

fn write(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

fn gate(baseline: &PathBuf, current: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .output()
        .expect("run bench_gate")
}

#[test]
fn identical_run_passes() {
    let base = write("golden_base.json", &render(&baseline_cells(), false));
    let cur = write("golden_same.json", &render(&baseline_cells(), false));
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout.matches("PASS fig10b_optane").count(), 3, "{stdout}");
}

#[test]
fn doctored_events_per_sec_regression_fails_naming_the_cell() {
    let base = write("golden_base_eps.json", &render(&baseline_cells(), false));
    // RIO cell 20% slower on the wall clock; others untouched.
    let mut cells = baseline_cells();
    cells[0].wall_secs *= 1.25;
    let cur = write("golden_eps_regressed.json", &render(&cells, false));
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/RIO"), "{stdout}");
    assert!(stdout.contains("events/s regression"), "{stdout}");
    assert!(stdout.contains("PASS fig10b_optane/orderless"), "{stdout}");
    assert!(stdout.contains("PASS fig10b_optane/Linux"), "{stdout}");
}

#[test]
fn doctored_p99_regression_fails_naming_the_cell() {
    let base = write("golden_base_p99.json", &render(&baseline_cells(), false));
    // The orderless cell's tail grows 30%; throughput unchanged.
    let mut cells = baseline_cells();
    cells[1].group_p99_us *= 1.30;
    let cur = write("golden_p99_regressed.json", &render(&cells, false));
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/orderless"), "{stdout}");
    assert!(stdout.contains("p99 regression"), "{stdout}");
    assert!(stdout.contains("PASS fig10b_optane/RIO"), "{stdout}");
}

#[test]
fn within_tolerance_and_improvements_pass() {
    let base = write("golden_base_tol.json", &render(&baseline_cells(), false));
    let mut cells = baseline_cells();
    cells[0].wall_secs /= 0.92; // 8% slower: inside the 10% tolerance.
    cells[1].group_p99_us *= 1.10; // 10% worse tail: inside 15%.
    cells[2].wall_secs *= 0.5; // 2x faster.
    cells[2].group_p99_us *= 0.5; // 2x tighter tail.
    let cur = write("golden_improved.json", &render(&cells, false));
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
}

#[test]
fn uniformly_slower_machine_passes_when_calibration_agrees() {
    let base = write(
        "golden_base_calib.json",
        &render(&baseline_cells(), false),
    );
    // Every cell 25% slower on the wall clock — on an equal-speed
    // machine that is an engine regression...
    let mut cells = baseline_cells();
    for c in &mut cells {
        c.wall_secs *= 1.25;
    }
    let raw = write("golden_slow_raw.json", &render(&cells, false));
    let out = gate(&base, &raw);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");

    // ...but when the calibration loop also ran 25% slower, the gate
    // attributes the slowdown to the machine and passes.
    let normalized = write(
        "golden_slow_calibrated.json",
        &render_json(&cells, false, 0.05 * 1.25),
    );
    let out = gate(&base, &normalized);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(0), "{stdout}");

    // A genuine regression on the slow machine still fails: same
    // calibration stamp, but one cell is 60% slower rather than 25%.
    let mut worse = baseline_cells();
    for c in &mut worse {
        c.wall_secs *= 1.25;
    }
    worse[0].wall_secs = baseline_cells()[0].wall_secs * 1.60;
    let cur = write(
        "golden_slow_regressed.json",
        &render_json(&worse, false, 0.05 * 1.25),
    );
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/RIO"), "{stdout}");
    assert!(stdout.contains("machine factor"), "{stdout}");
}

#[test]
fn missing_cell_fails_a_full_comparison() {
    let base = write("golden_base_miss.json", &render(&baseline_cells(), false));
    let cur = write(
        "golden_missing.json",
        &render(&baseline_cells()[..2], false),
    );
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("missing from current run"), "{stdout}");
    assert!(stdout.contains("FAIL fig10b_optane/Linux"), "{stdout}");
}

#[test]
fn schema_mismatch_exits_2() {
    let old = render(&baseline_cells(), false).replace("\"schema\": 4", "\"schema\": 2");
    let base = write("golden_base_schema2.json", &old);
    let cur = write("golden_cur_ok.json", &render(&baseline_cells(), false));
    let out = gate(&base, &cur);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("schema mismatch"), "{stderr}");

    // And a current-run schema mismatch is the same error path.
    let good_base = write("golden_base_ok.json", &render(&baseline_cells(), false));
    let bad_cur = write("golden_cur_schema2.json", &old);
    let out = gate(&good_base, &bad_cur);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("schema mismatch"), "{stderr}");
}

#[test]
fn event_count_drift_warning_names_cells_with_expected_and_actual() {
    let base = write("golden_base_drift.json", &render(&baseline_cells(), false));
    // Event counts drift by ~1% (same wall clock): inside the events/s
    // tolerance, so the gate passes but must name the drifted cell with
    // both counts.
    let mut cells = baseline_cells();
    cells[0].events = 527_000;
    let cur = write("golden_drifted.json", &render(&cells, false));
    let out = gate(&base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("WARNING — deterministic event counts drifted in 1 cell(s)"),
        "{stdout}"
    );
    assert!(
        stdout.contains(
            "fig10b_optane/RIO t=2 init=1 loss=0 paths=1: event-count drift: \
             expected 532029 events, measured 527000"
        ),
        "{stdout}"
    );
}

fn fig_cell(figure: &str, mode: &str, kiops: f64) -> FigCell {
    FigCell {
        figure: figure.into(),
        mode: mode.into(),
        threads: 2,
        initiators: 1,
        targets: 1,
        loss: 0.0,
        paths: 1,
        kiops,
        groups: 6_000,
    }
}

fn fig_baseline_cells() -> Vec<FigCell> {
    vec![
        fig_cell("fig10a", "RIO", 704.2),
        fig_cell("fig10a", "orderless", 761.9),
        fig_cell("fig13", "Linux", 9.1),
    ]
}

/// Runs the gate with a passing engine comparison plus the given
/// figure baseline/current pair, so the exit code reflects the figure
/// gate alone.
fn fig_gate(name: &str, fig_base: &PathBuf, fig_cur: &PathBuf) -> Output {
    let eng_base = write(
        &format!("golden_eng_base_{name}.json"),
        &render(&baseline_cells(), false),
    );
    let eng_cur = write(
        &format!("golden_eng_cur_{name}.json"),
        &render(&baseline_cells(), false),
    );
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--baseline")
        .arg(&eng_base)
        .arg("--current")
        .arg(&eng_cur)
        .arg("--fig")
        .arg(fig_base)
        .arg("--fig-current")
        .arg(fig_cur)
        .output()
        .expect("run bench_gate")
}

#[test]
fn fig_identical_trajectory_passes() {
    let base = write("golden_fig_base.json", &render_fig_json(&fig_baseline_cells()));
    let cur = write("golden_fig_same.json", &render_fig_json(&fig_baseline_cells()));
    let out = fig_gate("same", &base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("figures PASS (3 cells compared)"), "{stdout}");
}

#[test]
fn fig_doctored_kiops_regression_fails_naming_the_cell() {
    let base = write(
        "golden_fig_base_kiops.json",
        &render_fig_json(&fig_baseline_cells()),
    );
    // The RIO cell loses 20% of its KIOPS; others untouched.
    let mut cells = fig_baseline_cells();
    cells[0].kiops *= 0.80;
    let cur = write("golden_fig_regressed.json", &render_fig_json(&cells));
    let out = fig_gate("kiops", &base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL fig10a RIO"), "{stdout}");
    assert!(stdout.contains("kiops regression"), "{stdout}");
    assert!(stdout.contains("PASS fig10a orderless"), "{stdout}");
    assert!(stdout.contains("PASS fig13 Linux"), "{stdout}");
}

#[test]
fn fig_missing_cell_fails() {
    let base = write(
        "golden_fig_base_miss.json",
        &render_fig_json(&fig_baseline_cells()),
    );
    let cur = write(
        "golden_fig_missing.json",
        &render_fig_json(&fig_baseline_cells()[..2]),
    );
    let out = fig_gate("miss", &base, &cur);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("missing from current trajectory"), "{stdout}");
    assert!(stdout.contains("FAIL fig13 Linux"), "{stdout}");
}

#[test]
fn fig_schema_mismatch_exits_2() {
    let doc = render_fig_json(&fig_baseline_cells()).replace("\"schema\": 1", "\"schema\": 99");
    let base = write("golden_fig_base_schema99.json", &doc);
    let cur = write(
        "golden_fig_cur_ok.json",
        &render_fig_json(&fig_baseline_cells()),
    );
    let out = fig_gate("schema", &base, &cur);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("schema mismatch"), "{stderr}");
}

#[test]
fn smoke_baseline_is_refused() {
    let base = write("golden_base_smoke.json", &render(&baseline_cells(), true));
    let cur = write("golden_cur_full.json", &render(&baseline_cells(), false));
    let out = gate(&base, &cur);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--smoke sweep"), "{stderr}");
}

#[test]
fn non_finite_engine_measurement_exits_2_naming_file_and_offset() {
    let base = write("golden_base_nan.json", &render(&baseline_cells(), false));
    // A `NaN` p99 satisfies no `<` / `>` threshold; it must not pass.
    let doc = render(&baseline_cells(), false);
    assert!(doc.contains("\"group_p99_us\": 48.000"), "{doc}");
    let cur = write(
        "golden_cur_nan.json",
        &doc.replace("\"group_p99_us\": 48.000", "\"group_p99_us\": NaN"),
    );
    let out = gate(&base, &cur);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("golden_cur_nan.json"), "{stderr}");
    assert!(stderr.contains("at byte"), "{stderr}");
}

#[test]
fn fig_non_finite_kiops_exits_2_naming_file_and_offset() {
    let base = write(
        "golden_fig_base_nan.json",
        &render_fig_json(&fig_baseline_cells()),
    );
    let doc = render_fig_json(&fig_baseline_cells());
    assert!(doc.contains("\"kiops\": 704.200000"), "{doc}");
    let cur = write(
        "golden_fig_cur_nan.json",
        &doc.replace("\"kiops\": 704.200000", "\"kiops\": NaN"),
    );
    let out = fig_gate("nan", &base, &cur);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("golden_fig_cur_nan.json"), "{stderr}");
    assert!(stderr.contains("at byte"), "{stderr}");
}
