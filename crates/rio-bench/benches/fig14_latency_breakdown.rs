//! Figure 14: fsync latency breakdown (single thread), plus the
//! per-command stage breakdown the `StageTrace` subsystem records for
//! *any* cluster configuration.
//!
//! One append + fsync is three dispatches (D user data, JM journaled
//! metadata, JC commit record) plus the I/O wait. The paper's table:
//!
//! | system  | D    | JM    | JC    | wait  | fsync |
//! |---------|------|-------|-------|-------|-------|
//! | HoraeFS | 5861 | 19327 | 16658 | 34899 | 76745 |
//! | RioFS   | 5861 |  1440 |  1107 | 34796 | 43204 |
//!
//! (nanoseconds). HoraeFS pays a synchronous control-path round trip
//! before each of JM and JC; RioFS dispatches them back to back.
//!
//! The second half renders the fig. 14-style *stage* breakdown from
//! [`rio_stack::LatencyBreakdown`] — where each microsecond of a
//! command goes (dispatch, network, gate, PMR, media, completion,
//! in-order delivery) with deterministic p50/p99/p999 per stage — for
//! three fabrics: lossless, 1% loss, and a survivable crash mid-run.

use rio_bench::trace_export::traced_cell;
use rio_bench::{header, row, run};
use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    ClusterConfig, FabricConfig, FaultPlan, LatencyBreakdown, OrderingMode, TraceConfig, Workload,
};

fn paper_table() {
    header("Figure 14: 1 thread, append + fsync on remote Optane");
    row("system", &["D", "JM", "JC", "wait IO", "fsync"]);
    let ns = |values: [f64; 5]| values.map(|v| format!("{v:.0}"));
    row(
        "HORAEFS(paper)",
        &ns([5861.0, 19327.0, 16658.0, 34899.0, 76745.0]),
    );
    row(
        "RIOFS(paper)",
        &ns([5861.0, 1440.0, 1107.0, 34796.0, 43204.0]),
    );
    for (mode, label) in [
        (OrderingMode::Horae, "HORAEFS(sim)"),
        (OrderingMode::Rio { merge: true }, "RIOFS(sim)"),
        (OrderingMode::LinuxNvmf, "Ext4(sim)"),
    ] {
        let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 1);
        let m = run(cfg, Workload::fsync_append(1, 2_000));
        let d = &m.stage_dispatch;
        let total = m.op_latency.mean().as_nanos() as f64;
        row(
            label,
            &ns([d[0].mean(), d[1].mean(), d[2].mean(), d[3].mean(), total]),
        );
    }
}

fn stage_table(b: &LatencyBreakdown) {
    row("stage", &["p50 ns", "p99 ns", "p999 ns"]);
    for (seg, label) in LatencyBreakdown::SEGMENT_LABELS.iter().enumerate() {
        if b.stages[seg].count() == 0 {
            continue;
        }
        let (p50, p99, p999) = b.segment_quantiles(seg);
        row(label, &[p50, p99, p999].map(|d| d.as_nanos()));
    }
    let (p50, p99, p999) = b.total_quantiles();
    row("total", &[p50, p99, p999].map(|d| d.as_nanos()));
    println!(
        "{:>16} completed={} aborted={} retx pkts={} completer held peak={}",
        "", b.completed, b.aborted, b.retx_pkts, b.completer_held_peak
    );
    // A truncated trace must be visible: the ring keeps the newest
    // closed records and silently dropping the rest would skew the
    // span view in ways the quantiles above do not show.
    println!(
        "{:>16} trace ring: {} record(s) kept, {} evicted",
        "",
        b.records.len(),
        b.records_dropped
    );
}

fn traced_config(loss: f64, crash: bool) -> ClusterConfig {
    let rio = OrderingMode::Rio { merge: true };
    let mut cfg = if crash {
        ClusterConfig::four_ssd_two_targets(rio, 3)
    } else {
        ClusterConfig::single_ssd(rio, SsdProfile::optane905p(), 3)
    };
    cfg.cores = 8;
    cfg.max_inflight_per_stream = 16;
    if loss > 0.0 {
        cfg.net = FabricConfig::lossy(loss, 2);
    }
    if crash {
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
    }
    cfg.trace = Some(TraceConfig::default());
    cfg
}

fn main() {
    // The crash-mid-run cell: spans, retransmits, the recovery band and
    // the watchdog's stall windows all in one trace.
    let crash = traced_config(1e-3, true);
    let what = "the crash-mid-run stage breakdown";
    if traced_cell(what, crash, Workload::random_4k(3, 2_000)) {
        return;
    }
    println!("Reproduction of paper Figure 14 (fsync latency breakdown, ns).");
    paper_table();

    println!();
    println!("Per-command stage breakdown (StageTrace, RIO, 3 threads):");
    for (title, loss, crash) in [
        ("lossless fabric", 0.0, false),
        ("1% loss, 2 paths", 0.01, false),
        ("crash mid-run (1e-3 loss, survivable)", 1e-3, true),
    ] {
        header(title);
        let m = run(traced_config(loss, crash), Workload::random_4k(3, 2_000));
        let b = m.breakdown.as_ref().expect("tracing enabled");
        stage_table(b);
    }
}
