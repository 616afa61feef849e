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

use rio_bench::trace_export::{trace_out_arg, write_chrome_trace};
use rio_bench::{header, row, run};
use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    ClusterConfig, FabricConfig, FaultPlan, LatencyBreakdown, OrderingMode, TelemetryConfig,
    TraceConfig, Workload,
};

fn paper_table() {
    header("Figure 14: 1 thread, append + fsync on remote Optane");
    row(
        "system",
        &["D", "JM", "JC", "wait IO", "fsync"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    let paper = [
        (
            "HORAEFS(paper)",
            [5861.0, 19327.0, 16658.0, 34899.0, 76745.0],
        ),
        ("RIOFS(paper)", [5861.0, 1440.0, 1107.0, 34796.0, 43204.0]),
    ];
    for (label, vals) in paper {
        row(
            label,
            &vals.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>(),
        );
    }
    for (mode, label) in [
        (OrderingMode::Horae, "HORAEFS(sim)"),
        (OrderingMode::Rio { merge: true }, "RIOFS(sim)"),
        (OrderingMode::LinuxNvmf, "Ext4(sim)"),
    ] {
        let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 1);
        let wl = Workload::fsync_append(1, 2_000);
        let m = run(cfg, wl);
        let d = m.stage_dispatch[0].mean();
        let jm = m.stage_dispatch[1].mean();
        let jc = m.stage_dispatch[2].mean();
        let wait = m.stage_dispatch[3].mean();
        let total = m.op_latency.mean().as_nanos() as f64;
        row(
            label,
            &[d, jm, jc, wait, total]
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>(),
        );
    }
}

fn stage_table(b: &LatencyBreakdown) {
    row(
        "stage",
        &["p50 ns", "p99 ns", "p999 ns"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    for (seg, label) in LatencyBreakdown::SEGMENT_LABELS.iter().enumerate() {
        if b.stages[seg].count() == 0 {
            continue;
        }
        let (p50, p99, p999) = b.segment_quantiles(seg);
        row(
            label,
            &[p50, p99, p999]
                .iter()
                .map(|d| format!("{}", d.as_nanos()))
                .collect::<Vec<_>>(),
        );
    }
    let (p50, p99, p999) = b.total_quantiles();
    row(
        "total",
        &[p50, p99, p999]
            .iter()
            .map(|d| format!("{}", d.as_nanos()))
            .collect::<Vec<_>>(),
    );
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
    let mut cfg = if crash {
        ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 3)
    } else {
        ClusterConfig::single_ssd(
            OrderingMode::Rio { merge: true },
            SsdProfile::optane905p(),
            3,
        )
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
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = trace_out_arg(&args) {
        // The crash-mid-run cell: spans, retransmits, the recovery
        // band and the watchdog's stall windows all in one trace.
        let mut cfg = traced_config(1e-3, true);
        cfg.telemetry = Some(TelemetryConfig::default());
        let m = run(cfg, Workload::random_4k(3, 2_000));
        write_chrome_trace(&path, &m).expect("write Chrome trace");
        println!("wrote Chrome trace of the crash-mid-run stage breakdown to {path}");
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
