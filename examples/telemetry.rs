//! Virtual-time telemetry: the run as a time series, plus a Chrome
//! trace you can open in Perfetto.
//!
//! Three initiators (one tenant each) drive ordered 4 KB writes onto
//! two shared targets over a lossy two-path fabric; target 1 loses
//! power mid-run and the cluster recovers in place. With
//! `ClusterConfig.telemetry` set, the run records a deterministic
//! bucketed series — delivered KIOPS, in-flight commands, pending
//! groups, gate occupancy, SSD queue depths, retransmissions — and a
//! stall watchdog flags the outage windows, annotated with the
//! recovery span that explains them.
//!
//! The same run, traced, exports as Chrome `trace_event` JSON:
//! per-command stage spans, per-bucket counter tracks, and a watchdog
//! lane with the recovery/stall bands.
//!
//! Run with: `cargo run --release --example telemetry [-- <trace.json>]`

use rio::sim::SimTime;
use rio::stack::laws::check_laws;
use rio::stack::{
    Cluster, ClusterConfig, FabricConfig, FaultPlan, OrderingMode, TelemetryConfig, TraceConfig,
    Workload,
};
use rio_bench::trace_export::{chrome_trace, validate_json};

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "rio_trace.json".to_string());

    let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
    cfg.net = FabricConfig::lossy(1e-3, 2);
    cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
    cfg.trace = Some(TraceConfig::default());
    cfg.telemetry = Some(TelemetryConfig {
        bucket_us: 50,
        ..Default::default()
    });
    println!("3 initiators x 2 shared targets, 0.1% loss on 2 paths,");
    println!("power failure of target 1 at t = 400 us, survivable.\n");
    let m = Cluster::new(cfg, Workload::random_4k(3, 400)).run();
    let t = m.telemetry.as_ref().expect("telemetry enabled");

    // ---- The time series ----------------------------------------------
    println!(
        "{:>8} {:>8} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "t(us)", "KIOPS", "inflight", "pending", "gate", "ssd q", "retx"
    );
    let mut quiet = 0usize;
    for (i, b) in t.buckets.iter().enumerate() {
        let start = t.bucket_start(i);
        if start.as_nanos() >= m.finished_at.as_nanos() {
            break;
        }
        // The recovery outage is tens of milliseconds of dead air —
        // compress the stretches where nothing happens at all.
        if b.samples == 0 && b.delivered_groups == 0 {
            quiet += 1;
            continue;
        }
        if quiet > 0 {
            println!("{:>8} ({quiet} quiet buckets)", "...");
            quiet = 0;
        }
        let ssd_q: u32 = b.ssd_queue_peak.iter().copied().max().unwrap_or(0);
        let retx: u32 = b.retx_pkts.iter().sum();
        println!(
            "{:>8.0} {:>8.1} {:>9} {:>9} {:>9} {:>7} {:>7}",
            start.as_micros_f64(),
            t.delivered_kiops(i),
            b.inflight_peak,
            b.pending_end,
            b.gate_peak,
            ssd_q,
            retx
        );
    }
    if quiet > 0 {
        println!("{:>8} ({quiet} quiet buckets)", "...");
    }

    // ---- What the watchdog saw ----------------------------------------
    println!();
    for span in &t.recovery_spans {
        println!(
            "recovery of fault {}: {:.0} us -> {:.0} us ({:.0} us outage)",
            span.fault,
            span.from.as_micros_f64(),
            span.to.as_micros_f64(),
            span.to.since(span.from).as_nanos() as f64 / 1e3,
        );
    }
    for s in &t.stalls {
        let attributed = match s.recovery {
            Some(f) => format!(" (recovery of fault {f})"),
            None => String::new(),
        };
        println!(
            "stall: {:.0} us -> {:.0} us, {} group(s) pending{attributed}",
            s.from.as_micros_f64(),
            s.to.as_micros_f64(),
            s.pending
        );
    }
    println!(
        "\ndelivered {} groups / {} blocks across {} buckets (conserved: {})",
        t.total_delivered_groups(),
        t.total_delivered_blocks(),
        t.buckets.len(),
        check_laws(&m).is_ok()
    );

    // ---- The Chrome trace ---------------------------------------------
    let json = chrome_trace(&m);
    validate_json(&json).expect("exported trace must be valid JSON");
    std::fs::write(&trace_path, &json).expect("write trace file");
    println!(
        "wrote {} ({} KiB) — open it at https://ui.perfetto.dev",
        trace_path,
        json.len() / 1024
    );
}
