//! Figure 10: block device performance — 4 KB random ordered writes.
//!
//! Four configurations: (a) one flash SSD, (b) one Optane SSD, (c) two
//! SSDs on one target, (d) four SSDs across two targets. Each thread
//! submits to its own stream. The paper reports throughput and CPU
//! efficiency normalised to the orderless stack.
//!
//! Paper's headline numbers: on flash Rio beats Linux by two orders of
//! magnitude and Horae by 2.8x on average; on Optane by 9.4x and 3.3x;
//! Rio's throughput and efficiency come close to orderless everywhere.

use rio_bench::trace_export::{trace_out_arg, write_chrome_trace};
use rio_bench::{all_modes, fig10_cfg, geomean, header, kiops, ratio, row, run};
use rio_stack::{OrderingMode, RunMetrics, TelemetryConfig, TraceConfig, Workload};

const THREADS: [usize; 4] = [2, 4, 8, 12];

fn groups_for(mode: &OrderingMode, threads: usize, ssds: usize) -> u64 {
    match mode {
        OrderingMode::LinuxNvmf => 600,
        // Long enough that the sustained rate dominates the initial
        // cache burst on every device.
        _ => (ssds as u64 * 40_000 / threads as u64).max(8_000),
    }
}

fn part(part_id: char, title: &str) {
    header(&format!(
        "Figure 10({part_id}): {title} — KIOPS of 4 KB ordered writes"
    ));
    row(
        "mode \\ threads",
        &THREADS.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    let mut results: Vec<(String, Vec<RunMetrics>)> = Vec::new();
    for mode in all_modes() {
        let mut series = Vec::new();
        for &threads in &THREADS {
            let cfg = fig10_cfg(part_id, mode.clone(), threads);
            let ssds = cfg.total_ssds();
            let wl = Workload::random_4k(threads, groups_for(&mode, threads, ssds));
            series.push(run(cfg, wl));
        }
        row(
            mode.label(),
            &series
                .iter()
                .map(|m| kiops(m.block_iops()))
                .collect::<Vec<_>>(),
        );
        results.push((mode.label().to_string(), series));
    }
    // CPU efficiency normalised to orderless (paper's lower panels).
    let orderless = results
        .iter()
        .find(|(l, _)| l == "orderless")
        .expect("orderless run")
        .1
        .clone();
    println!("--- normalised initiator CPU efficiency ---");
    for (label, series) in &results {
        let cells: Vec<String> = series
            .iter()
            .zip(orderless.iter())
            .map(|(m, o)| format!("{:.2}", m.initiator_efficiency() / o.initiator_efficiency()))
            .collect();
        row(label, &cells);
    }
    println!("--- normalised target CPU efficiency ---");
    for (label, series) in &results {
        let cells: Vec<String> = series
            .iter()
            .zip(orderless.iter())
            .map(|(m, o)| format!("{:.2}", m.target_efficiency() / o.target_efficiency()))
            .collect();
        row(label, &cells);
    }
    // Paper-style average ratios.
    let find = |l: &str| &results.iter().find(|(x, _)| x == l).expect("mode ran").1;
    let rio = find("RIO");
    let linux = find("Linux");
    let horae = find("HORAE");
    let rio_vs_linux = geomean(
        &rio.iter()
            .zip(linux.iter())
            .map(|(r, l)| r.block_iops() / l.block_iops())
            .collect::<Vec<_>>(),
    );
    let rio_vs_horae = geomean(
        &rio.iter()
            .zip(horae.iter())
            .map(|(r, h)| r.block_iops() / h.block_iops())
            .collect::<Vec<_>>(),
    );
    row(
        "avg RIO/Linux",
        &[
            ratio(rio_vs_linux),
            String::new(),
            String::new(),
            String::new(),
        ],
    );
    row(
        "avg RIO/HORAE",
        &[
            ratio(rio_vs_horae),
            String::new(),
            String::new(),
            String::new(),
        ],
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = trace_out_arg(&args) {
        // One representative traced run (RIO on Optane, part b) instead
        // of the whole sweep: the Chrome trace is per-command, so a
        // single cell is already thousands of spans.
        let mut cfg = fig10_cfg('b', OrderingMode::Rio { merge: true }, 2);
        cfg.trace = Some(TraceConfig::default());
        cfg.telemetry = Some(TelemetryConfig::default());
        let m = run(cfg, Workload::random_4k(2, 2_000));
        write_chrome_trace(&path, &m).expect("write Chrome trace");
        println!("wrote Chrome trace of fig10(b) RIO t=2 to {path}");
        return;
    }
    println!("Reproduction of paper Figure 10 (block device performance).");
    part('a', "1 flash SSD, 1 target");
    part('b', "1 Optane SSD, 1 target");
    part('c', "2 SSDs, 1 target");
    part('d', "4 SSDs, 2 targets");
}
