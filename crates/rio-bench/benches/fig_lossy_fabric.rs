//! Lossy multi-path fabric sweep: ordering engines under packet loss.
//!
//! RIO's central claim (§4, §6) is that ordering survives a fabric
//! that does not serialize: requests fan out across queue pairs and
//! paths, arrive out of order, and the target-side ordering attributes
//! put them back together. This sweep drives the packet-level fabric
//! model — MTU segmentation, deterministic per-packet drops, go-back-N
//! recovery, asymmetric paths with per-QP pinning — through every
//! ordering engine: loss ∈ {0, 1e-5, 1e-3, 1e-2} × paths ∈ {1, 2, 4}.
//!
//! Expected shape: RIO's deep asynchronous window overlaps per-stream
//! recovery stalls, so its throughput degrades gracefully with loss
//! (and tracks orderless), while the serial Linux NVMe-oF chain pays
//! every recovery latency on its critical path and degrades sharply.
//! Multi-path spreading adds latency asymmetry that the target gate
//! absorbs without extra cost.
//!
//! Usage:
//!
//! ```sh
//! cargo bench -p rio-bench --bench fig_lossy_fabric            # full sweep
//! cargo bench -p rio-bench --bench fig_lossy_fabric -- --smoke # CI-sized
//! ```

use rio_bench::trace_export::{trace_out_arg, write_chrome_trace};
use rio_bench::{all_modes, header, kiops, lossy_cfg, row, run};
use rio_stack::{OrderingMode, RunMetrics, TelemetryConfig, TraceConfig, Workload};

const THREADS: usize = 4;

fn groups_for(mode: &OrderingMode, smoke: bool) -> u64 {
    let scale = if smoke { 10 } else { 1 };
    match mode {
        OrderingMode::LinuxNvmf => 600 / scale,
        _ => 20_000 / scale,
    }
}

fn sweep(smoke: bool) {
    let losses: &[f64] = if smoke {
        &[0.0, 1e-3]
    } else {
        &[0.0, 1e-5, 1e-3, 1e-2]
    };
    let paths_axis: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };

    for &paths in paths_axis {
        header(&format!(
            "Lossy fabric, {paths} path(s): KIOPS of 4 KB ordered writes ({THREADS} threads)"
        ));
        row(
            "mode \\ loss",
            &losses.iter().map(|l| format!("{l}")).collect::<Vec<_>>(),
        );
        let mut results: Vec<(String, Vec<RunMetrics>)> = Vec::new();
        for mode in all_modes() {
            let series: Vec<RunMetrics> = losses
                .iter()
                .map(|&loss| {
                    let cfg = lossy_cfg(mode.clone(), THREADS, loss, paths);
                    let wl = Workload::random_4k(THREADS, groups_for(&mode, smoke));
                    run(cfg, wl)
                })
                .collect();
            row(
                mode.label(),
                &series
                    .iter()
                    .map(|m| kiops(m.block_iops()))
                    .collect::<Vec<_>>(),
            );
            results.push((mode.label().to_string(), series));
        }
        // Relative throughput vs the mode's own lossless run — the
        // graceful-vs-sharp degradation panel.
        println!("--- throughput retained vs lossless (same mode) ---");
        for (label, series) in &results {
            let base = series[0].block_iops();
            let cells: Vec<String> = series
                .iter()
                .map(|m| format!("{:.1}%", 100.0 * m.block_iops() / base.max(1e-12)))
                .collect();
            row(label, &cells);
        }
        // Fabric health counters for the highest-loss RIO cell.
        let rio = &results.iter().find(|(l, _)| l == "RIO").expect("RIO ran").1;
        let worst = rio.last().expect("at least one loss point");
        println!(
            "--- RIO @ loss={}: {} pkts, {} drops, {} retransmits, {} recovery rounds, gate buffered {} ---",
            losses.last().expect("non-empty"),
            worst.net.packets,
            worst.net.drops,
            worst.net.retransmits,
            worst.net.retx_rounds,
            worst.gate_buffered,
        );
        for (i, p) in worst.net.per_path.iter().enumerate() {
            println!(
                "    path {i}: {} pkts, {} drops, {} retransmits",
                p.packets, p.drops, p.retransmits
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = trace_out_arg(&args) {
        // The interesting cell: RIO under real loss, where retransmit
        // spans and gate stalls show up in the trace.
        let mut cfg = lossy_cfg(OrderingMode::Rio { merge: true }, THREADS, 1e-3, 2);
        cfg.trace = Some(TraceConfig::default());
        cfg.telemetry = Some(TelemetryConfig::default());
        let m = run(cfg, Workload::random_4k(THREADS, 2_000));
        write_chrome_trace(&path, &m).expect("write Chrome trace");
        println!("wrote Chrome trace of lossy-fabric RIO loss=1e-3 paths=2 to {path}");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    println!(
        "Lossy multi-path fabric sweep ({} run).",
        if smoke { "smoke" } else { "full" }
    );
    sweep(smoke);
}
