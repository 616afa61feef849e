//! The figures: one function per bench target, which runs the paper's
//! experiment through a [`Recorder`] and prints the series the paper
//! reports.
//!
//! A bench's `main` prints its introduction, offers its one traced
//! cell ([`crate::trace_export::traced_cell`]) and calls its function
//! here; `bench_gate` calls every function of [`ALL`] through one
//! recorder and gates each recorded run. So every number a bench
//! prints comes from a gated run, and every gated run is printed.
//! EXPERIMENTS.md records the measured numbers against the paper's.

use rio_net::FabricProfile;
use rio_proto::{RioExt, RioFlags, RioOpcode, Sqe};
use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::cpu::PMR_APPEND_NS;
use rio_stack::workload::Pattern;
use rio_stack::{
    ClusterConfig, FabricConfig, FaultKind, FaultPlan, LatencyBreakdown, OrderingMode, RunMetrics,
    TraceConfig, Workload,
};

use crate::experiment::{fault_cfg, half_span_faults, sweep};
use crate::sweep::Recorder;
use crate::{gbps, kiops, pct, recovery, row, us};

/// Every figure, in bench order: what `bench_gate` runs and gates.
pub const ALL: [fn(&mut Recorder); 14] = [
    fig2_motivation,
    fig3_merging_cpu,
    fig10_block_device,
    fig11_write_sizes,
    fig12_batch_sizes,
    fig13_fs_fsync,
    fig14_latency_breakdown,
    fig15_applications,
    t65_recovery_time,
    table1_command_format,
    ablation_qp_pinning,
    fig_lossy_fabric,
    fig_integrity,
    fig_multi_initiator,
];

/// Standard mode list in paper legend order.
fn all_modes() -> Vec<OrderingMode> {
    vec![
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
        OrderingMode::Orderless,
    ]
}

/// A cell's group count: `linux` for Linux NVMe-oF, which runs
/// synchronously (one group per round trip) and so gets
/// proportionally fewer, and `others` for every other mode.
fn groups_for(mode: OrderingMode, linux: u64, others: u64) -> u64 {
    if mode == OrderingMode::LinuxNvmf {
        linux
    } else {
        others
    }
}

/// The file-system series of Figs. 13 and 15: Ext4, HoraeFS and
/// RioFS over their ordering engines, labelled as the paper labels
/// them.
fn fs_modes() -> Vec<(String, OrderingMode)> {
    [
        (OrderingMode::LinuxNvmf, "Ext4"),
        (OrderingMode::Horae, "HORAEFS"),
        (OrderingMode::Rio { merge: true }, "RIOFS"),
    ]
    .into_iter()
    .map(|(m, label)| (label.to_string(), m))
    .collect()
}

/// `modes` labelled as the paper's legends label them: a sweep's
/// series.
fn by_label(modes: Vec<OrderingMode>) -> Vec<(String, OrderingMode)> {
    modes
        .into_iter()
        .map(|m| (m.label().to_string(), m))
        .collect()
}

/// Figure 10's cluster shapes: (a) one flash SSD, (b) one Optane SSD,
/// (c) two SSDs on one target, (d) four SSDs across two targets.
///
/// # Panics
///
/// Panics on a part other than `'a'..='d'`.
pub fn fig10_cfg(part: char, mode: OrderingMode, streams: usize) -> ClusterConfig {
    match part {
        'a' => ClusterConfig::single_ssd(mode, SsdProfile::pm981(), streams),
        'b' => ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), streams),
        'c' => {
            let ssds = vec![SsdProfile::pm981(), SsdProfile::optane905p()];
            ClusterConfig::new(mode, vec![ssds], streams)
        }
        'd' => ClusterConfig::four_ssd_two_targets(mode, streams),
        other => panic!("Figure 10 has parts a-d, not {other:?}"),
    }
}

/// The lossy-fabric cell: `threads` streams on one Optane SSD over a
/// fabric that drops packets at `loss` across `paths` paths.
pub fn lossy_cfg(mode: OrderingMode, threads: usize, loss: f64, paths: usize) -> ClusterConfig {
    ClusterConfig {
        // The paper's asynchronous window: deep enough that per-stream
        // go-back-N stalls overlap instead of starving the SSD.
        max_inflight_per_stream: 64,
        net: FabricConfig::lossy(loss, paths),
        ..ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads)
    }
}

/// Figure 14's stage-breakdown cell: three traced RIO streams on one
/// Optane SSD, or, with `crash`, on four SSDs across two targets with a
/// survivable crash of target 1 at 400 µs; `loss > 0` drops packets
/// across two paths.
pub fn stage_cfg(loss: f64, crash: bool) -> ClusterConfig {
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

/// `initiators` one-tenant initiators of `streams_each` streams over
/// `targets` shared targets and a lossy two-path fabric (1e-3).
pub fn multi_cfg(
    mode: OrderingMode,
    initiators: usize,
    streams_each: usize,
    targets: usize,
) -> ClusterConfig {
    let cfg = ClusterConfig::multi_initiator(mode, initiators, streams_each, targets);
    ClusterConfig {
        net: FabricConfig::lossy(1e-3, 2),
        ..cfg
    }
}

/// Figure 2: motivation — the cost of storage order on flash and
/// Optane SSDs.
///
/// Workload (§3.1): each thread issues an ordered write of 2 contiguous
/// 4 KB blocks followed by a consecutive 4 KB ordered write (the
/// metadata-journaling pattern), to a private SSD area.
///
/// Paper's shape: orderless saturates either SSD with one thread;
/// ordered Linux NVMe-oF is two orders of magnitude slower on flash
/// (FLUSH-bound) and far below orderless on Optane (synchronous
/// execution); Horae sits in between and needs many cores to approach
/// the device limit.
pub fn fig2_motivation(rec: &mut Recorder) {
    for (ssd, label) in [
        (
            SsdProfile::pm981 as fn() -> SsdProfile,
            "a: Samsung PM981 flash",
        ),
        (SsdProfile::optane905p, "b: Intel 905P Optane"),
    ] {
        let modes = vec![
            OrderingMode::LinuxNvmf,
            OrderingMode::Horae,
            OrderingMode::Orderless,
        ];
        sweep(
            rec,
            &format!("Figure 2({label}) ordered-write throughput, KIOPS of 4 KB blocks"),
            "mode \\ threads",
            &[1usize, 4, 8, 12],
            by_label(modes),
            &[("{}", |m| kiops(m.block_iops()))],
            |&mode, &threads| {
                // Long enough that the sustained (post-cache-burst) rate
                // dominates; synchronous Linux needs far fewer.
                let triplets = groups_for(mode, 400, (24_000 / threads as u64).max(4_000));
                let cfg = ClusterConfig::single_ssd(mode, ssd(), threads);
                (cfg, Workload::journal_triplet(threads, triplets))
            },
        );
    }
}

/// Figure 3: motivation for merging consecutive data blocks.
///
/// Orderless NVMe over RDMA, one thread, sequential 4 KB writes; the
/// X axis is the number of blocks that can potentially merge (the plug
/// batch size). The paper reports initiator and target CPU utilisation
/// with and without merging: merging substantially reduces both.
pub fn fig3_merging_cpu(rec: &mut Recorder) {
    for (ssd, label) in [
        (SsdProfile::pm981 as fn() -> SsdProfile, "a: flash"),
        (SsdProfile::optane905p, "b: Optane"),
    ] {
        sweep(
            rec,
            &format!(
                "Figure 3({label}): orderless CPU utilisation vs merge batch (1 thread, seq 4 KB)"
            ),
            "series \\ batch",
            &[1usize, 2, 4, 8, 16],
            vec![("w/o".to_string(), false), ("w/".to_string(), true)],
            // Single-core equivalent, paper scale.
            &[
                ("initiator {}", |m| pct(m.initiator_util * 36.0)),
                ("target {}", |m| pct(m.target_util * 36.0)),
            ],
            |&merging, &batch| {
                let mut cfg = ClusterConfig::single_ssd(OrderingMode::Orderless, ssd(), 1);
                cfg.plug_merge = merging;
                (cfg, Workload::seq_batched(1, 60_000, batch, 1))
            },
        );
    }
}

/// Figure 10: block device performance — 4 KB random ordered writes.
///
/// Four configurations ([`fig10_cfg`]): (a) one flash SSD, (b) one
/// Optane SSD, (c) two SSDs on one target, (d) four SSDs across two
/// targets. Each thread submits to its own stream. The paper reports
/// throughput and CPU efficiency normalised to the orderless stack.
///
/// Paper's headline numbers: on flash Rio beats Linux by two orders of
/// magnitude and Horae by 2.8x on average; on Optane by 9.4x and 3.3x;
/// Rio's throughput and efficiency come close to orderless everywhere.
pub fn fig10_block_device(rec: &mut Recorder) {
    for (part, title) in [
        ('a', "1 flash SSD, 1 target"),
        ('b', "1 Optane SSD, 1 target"),
        ('c', "2 SSDs, 1 target"),
        ('d', "4 SSDs, 2 targets"),
    ] {
        let fig = sweep(
            rec,
            &format!("Figure 10({part}): {title} — KIOPS of 4 KB ordered writes"),
            "mode \\ threads",
            &[2usize, 4, 8, 12],
            by_label(all_modes()),
            &[("{}", |m| kiops(m.block_iops()))],
            |&mode, &threads| {
                let cfg = fig10_cfg(part, mode, threads);
                // Long enough that the sustained rate dominates the
                // initial cache burst on every device.
                let groups = groups_for(
                    mode,
                    600,
                    (cfg.total_ssds() as u64 * 40_000 / threads as u64).max(8_000),
                );
                (cfg, Workload::random_4k(threads, groups))
            },
        );
        // CPU efficiency normalised to orderless (paper's lower panels).
        fig.print_over(
            "normalised initiator CPU efficiency",
            "orderless",
            RunMetrics::initiator_efficiency,
        );
        fig.print_over(
            "normalised target CPU efficiency",
            "orderless",
            RunMetrics::target_efficiency,
        );
        // Paper-style average ratios.
        fig.print_avg("RIO", "Linux", RunMetrics::block_iops, true);
        fig.print_avg("RIO", "HORAE", RunMetrics::block_iops, true);
    }
}

/// Figure 11: performance with varying write sizes (4–64 KB).
///
/// One thread, 4 SSDs over 2 targets, random and sequential ordered
/// writes. Paper: Rio beats Linux by up to two orders of magnitude and
/// Horae by up to 6.1x; asynchronous execution matters even for large
/// writes (at 64 KB Horae still reaches only half of Rio).
pub fn fig11_write_sizes(rec: &mut Recorder) {
    for (random, label) in [(true, "a: random write"), (false, "b: sequential write")] {
        sweep(
            rec,
            &format!("Figure 11({label}): 1 thread, 4 SSDs — GB/s"),
            "mode \\ KB",
            &[4u32, 8, 16, 32, 64],
            by_label(all_modes()),
            &[("{}", |m| gbps(m.bandwidth()))],
            |&mode, &kb| {
                let blocks = kb / 4;
                let groups_per_thread = groups_for(mode, 500, (200_000 / kb as u64).max(2_000));
                let pattern = if random {
                    Pattern::RandomWrite { blocks }
                } else {
                    Pattern::SeqWrite { blocks }
                };
                let wl = Workload {
                    threads: 1,
                    groups_per_thread,
                    pattern,
                    batch: 1,
                };
                (ClusterConfig::four_ssd_two_targets(mode, 1), wl)
            },
        );
    }
}

/// Figure 12: performance with varying batch sizes (merging ablation).
///
/// Each batch is a run of sequential 4 KB ordered writes that *can*
/// merge. With one thread (scarce CPU) merging raises Rio's throughput
/// over "RIO w/o merge"; with 12 threads the SSDs saturate and merging
/// instead preserves CPU efficiency (the paper's normalised efficiency
/// panel shows Horae *declining* with batch size while Rio holds).
pub fn fig12_batch_sizes(rec: &mut Recorder) {
    for (threads, label) in [(1, "a: 4 SSDs, 1 thread"), (12, "b: 4 SSDs, 12 threads")] {
        let modes = vec![
            OrderingMode::LinuxNvmf,
            OrderingMode::Horae,
            OrderingMode::Rio { merge: true },
            OrderingMode::Rio { merge: false },
            OrderingMode::Orderless,
        ];
        let fig = sweep(
            rec,
            &format!("Figure 12({label}): batch-size sweep — GB/s"),
            "mode \\ batch",
            &[2usize, 4, 8, 12, 16],
            by_label(modes),
            &[("{}", |m| gbps(m.bandwidth()))],
            |&mode, &batch| {
                let groups = groups_for(mode, 600, (160_000 / threads as u64).max(13_000));
                let cfg = ClusterConfig::four_ssd_two_targets(mode, threads);
                (cfg, Workload::seq_batched(threads, groups, batch, 1))
            },
        );
        fig.print_over(
            "normalised initiator CPU efficiency",
            "orderless",
            RunMetrics::initiator_efficiency,
        );
    }
}

/// Figure 13: file system performance (fsync latency vs throughput).
///
/// Up to 16 threads each append 4 KB to a private file and fsync,
/// always triggering metadata journaling, on a remote Optane 905P.
/// Ext4 maps to the synchronous Linux engine, HoraeFS to the Horae
/// engine, RioFS to Rio.
///
/// Paper: RioFS lifts throughput 3.0x / 1.2x over Ext4 / HoraeFS,
/// cuts average latency 67% / 18%, and p99 by 50% / 20%.
pub fn fig13_fs_fsync(rec: &mut Recorder) {
    sweep(
        rec,
        "Figure 13: fsync throughput (K ops/s), avg and p99 latency (us)",
        "series \\ thr",
        &[1usize, 2, 4, 8, 12, 16],
        fs_modes(),
        &[
            ("{} kops", |m| kiops(m.op_iops())),
            ("{} avg", |m| us(m.op_latency.mean().as_micros_f64())),
            ("{} p99", |m| {
                us(m.op_latency.quantile(0.99).as_micros_f64())
            }),
        ],
        |&mode, &threads| {
            let ops = groups_for(mode, 500, 2_000);
            let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
            (cfg, Workload::fsync_append(threads, ops))
        },
    );
}

/// Figure 14: fsync latency breakdown (single thread), plus the
/// per-command stage breakdown the `StageTrace` subsystem records for
/// *any* cluster configuration.
///
/// One append + fsync is three dispatches (D user data, JM journaled
/// metadata, JC commit record) plus the I/O wait. The paper's table:
///
/// | system  | D    | JM    | JC    | wait  | fsync |
/// |---------|------|-------|-------|-------|-------|
/// | HoraeFS | 5861 | 19327 | 16658 | 34899 | 76745 |
/// | RioFS   | 5861 |  1440 |  1107 | 34796 | 43204 |
///
/// (nanoseconds). HoraeFS pays a synchronous control-path round trip
/// before each of JM and JC; RioFS dispatches them back to back.
///
/// The second half renders the fig. 14-style *stage* breakdown from
/// [`rio_stack::LatencyBreakdown`] — where each microsecond of a
/// command goes (dispatch, network, gate, PMR, media, completion,
/// in-order delivery) with deterministic p50/p99/p999 per stage — for
/// three fabrics ([`stage_cfg`]): lossless, 1% loss, and a survivable
/// crash mid-run.
pub fn fig14_latency_breakdown(rec: &mut Recorder) {
    rec.header("Figure 14: 1 thread, append + fsync on remote Optane");
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
        let m = rec.run(label, "", cfg, Workload::fsync_append(1, 2_000));
        let d = &m.stage_dispatch;
        let total = m.op_latency.mean().as_nanos() as f64;
        row(
            label,
            &ns([d[0].mean(), d[1].mean(), d[2].mean(), d[3].mean(), total]),
        );
    }

    println!();
    println!("Per-command stage breakdown (StageTrace, RIO, 3 threads):");
    for (title, loss, crash) in [
        ("lossless fabric", 0.0, false),
        ("1% loss, 2 paths", 0.01, false),
        ("crash mid-run (1e-3 loss, survivable)", 1e-3, true),
    ] {
        rec.header(title);
        let m = rec.run(
            "",
            "",
            stage_cfg(loss, crash),
            Workload::random_4k(3, 2_000),
        );
        let b = m.breakdown.as_ref().expect("tracing enabled");
        stage_table(b);
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

/// Figure 15: application performance — Filebench Varmail and RocksDB
/// `fillsync`.
///
/// Varmail is metadata- and fsync-intensive (creates/appends/unlinks
/// with fsync); `fillsync` is a random-write-dominant key-value load
/// (16 B keys, 1 KB values, WAL append + fsync per put) that also burns
/// application CPU on in-memory indexing.
///
/// Paper: RioFS raises Varmail throughput 2.3x/1.3x and RocksDB
/// fillsync 1.9x/1.5x over Ext4/HoraeFS on average.
pub fn fig15_applications(rec: &mut Recorder) {
    // Varmail: mail files of 1–4 blocks, ~40% metadata-only ops
    // (create/unlink + fsync), little application CPU.
    let varmail = Pattern::FsyncJournal {
        data_blocks: (1, 4),
        meta_blocks: 2,
        meta_only_permille: 400,
        app_cpu_ns: 1_500,
    };
    // RocksDB fillsync: 1 KB values -> 1-block WAL appends, metadata
    // journaling per fsync, plus memtable/index CPU per put.
    let fillsync = Pattern::FsyncJournal {
        data_blocks: (1, 1),
        meta_blocks: 2,
        meta_only_permille: 0,
        app_cpu_ns: 9_000,
    };
    for (name, pattern, threads_axis) in [
        ("(a) Varmail", varmail, &[1, 4, 8, 16, 24, 32, 40][..]),
        ("(b) RocksDB fillsync", fillsync, &[1, 4, 8, 16, 24, 36]),
    ] {
        let fig = sweep(
            rec,
            &format!("Figure 15 {name}: throughput (K ops/s)"),
            "series \\ thr",
            threads_axis,
            fs_modes(),
            &[("{}", |m| kiops(m.op_iops()))],
            |&mode, &threads| {
                let groups_per_thread = groups_for(mode, 400, 1_500);
                let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
                let wl = Workload {
                    threads,
                    groups_per_thread,
                    pattern,
                    batch: 3,
                };
                (cfg, wl)
            },
        );
        fig.print_avg("RIOFS", "Ext4", RunMetrics::op_iops, false);
        fig.print_avg("RIOFS", "HORAEFS", RunMetrics::op_iops, false);
    }
}

/// §6.5: recovery time after a target crash, plus the survivable
/// fault-injection sweep.
///
/// Part 1 reproduces the paper's table: 36 threads issue 4 KB ordered
/// writes continuously; a fault crashes the target servers; the
/// initiator reconnects and recovers. The paper reports ~55 ms for Rio
/// to reconstruct the global order (dominated by reading the 2 MB PMR)
/// plus ~125 ms of data recovery (discarding the out-of-order blocks),
/// over 30 trials ([`recovery::trial`], which the `recoveries` section
/// gates); Horae reloads its smaller metadata in ~38 ms and repairs
/// data in ~101 ms.
///
/// Part 2 goes beyond the paper: the crash composes with the lossy
/// multi-path fabric and the run *survives* it. For every loss rate ×
/// crash pattern × Rio mode cell, one target subset (or a single NIC)
/// fails mid-flight, recovery runs inside the event loop, and the
/// workload resumes — the table reports both recovery phases, the
/// groups rolled back and re-queued, and the post-crash throughput
/// retention (epoch-1 KIOPS ÷ epoch-0 KIOPS).
pub fn t65_recovery_time(rec: &mut Recorder) {
    recovery_table(rec);
    survivable_sweep(rec);
}

/// Part 1: the paper's one-shot recovery-time table.
fn recovery_table(rec: &mut Recorder) {
    let (threads, trials) = (36, 30);
    rec.header(&format!(
        "§6.5: mean over {trials} crash trials, {threads} threads, 4 SSDs, 2 targets"
    ));
    let (mut rebuild_ms, mut data_ms, mut records, mut discards) = (0.0, 0.0, 0, 0);
    for trial in 0..trials {
        let report = recovery::trial(trial, threads);
        rebuild_ms += report.order_rebuild.as_secs_f64() * 1e3;
        data_ms += report.data_recovery.as_secs_f64() * 1e3;
        records += report.records_scanned;
        discards += report.discards;
    }
    let (rebuild_ms, data_ms) = (rebuild_ms / trials as f64, data_ms / trials as f64);
    row(
        "RIO (sim)",
        &[
            format!("order rebuild {rebuild_ms:.1} ms"),
            format!("data recovery {data_ms:.1} ms"),
            format!("{} records", records / trials as usize),
            format!("{} discards", discards / trials as usize),
        ],
    );
    row(
        "RIO (paper)",
        &["order rebuild ~55 ms", "data recovery ~125 ms"],
    );
    // Horae's ordering metadata is smaller (~60% of Rio's attribute,
    // per the paper's relative reload times); its scan scales with the
    // same PMR region. We report the scaled estimate for reference.
    row(
        "HORAE (model)",
        &[
            format!("order rebuild {:.1} ms", rebuild_ms * 38.0 / 55.0),
            format!("data recovery {:.1} ms", data_ms * 101.0 / 125.0),
        ],
    );
    row(
        "HORAE (paper)",
        &["order rebuild ~38 ms", "data recovery ~101 ms"],
    );
}

/// Part 2: the survivable loss × crash-pattern × mode sweep.
fn survivable_sweep(rec: &mut Recorder) {
    let threads = 4;
    let patterns = [
        (
            "crash both",
            FaultKind::PowerFail {
                targets: Vec::new(),
            },
        ),
        ("crash one", FaultKind::PowerFail { targets: vec![1] }),
        ("nic reset", FaultKind::NicReset { target: 0 }),
    ];
    for mode in [
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
    ] {
        rec.header(&format!(
            "Survivable faults, {}: mid-flight fault at half the crash-free span, \
             2 paths, {threads} threads",
            mode.label()
        ));
        let columns = [
            "rebuild",
            "discard",
            "requeued",
            "epoch0",
            "epoch1",
            "retention",
        ];
        row("loss / fault", &columns);
        for loss in [0.0, 1e-3, 1e-2] {
            let net = FabricConfig {
                migrate_every: 64,
                ..FabricConfig::lossy(loss, 2)
            };
            let cfg = fault_cfg(mode, SsdProfile::optane905p, threads, net);
            let wl = Workload::seq_batched(threads, 4_000, 4, 1);
            let faults = patterns
                .iter()
                .map(|(label, kind)| (format!("{loss:.0e} {label}"), kind.clone()));
            half_span_faults(rec, cfg, wl, faults.collect(), |m| {
                let requeued: u64 = m.recoveries[0].streams.iter().map(|s| s.requeued).sum();
                let epochs = m.epochs[..2].iter().map(|e| kiops(e.block_iops()));
                [requeued.to_string()].into_iter().chain(epochs).collect()
            });
        }
    }
}

/// Table 1: the Rio NVMe-oF command format atop the 1.4 specification.
///
/// Prints the field placement and verifies it bit-exactly against the
/// encoder, plus the §6.1 PMR constants (2 MB region, 0.6 µs per-record
/// persist). Runs no simulation.
///
/// # Panics
///
/// Panics if a field is not where Table 1 puts it, or the embedding
/// clobbers a standard field.
pub fn table1_command_format(rec: &mut Recorder) {
    rec.header("Table 1: dword:bits -> Rio field (verified against encoder)");

    let ext = RioExt {
        op: RioOpcode::Submit,
        seq_start: 0x1111_1111,
        seq_end: 0x2222_2222,
        prev: 0x3333_3333,
        num: 0x4444,
        stream: 0x5555,
        flags: RioFlags {
            boundary: true,
            split: false,
            ipu: false,
        },
        member_idx: 7,
        split_idx: 0,
        last_split: false,
        dispatch_idx: 0x6666_6666,
    };
    let mut sqe = Sqe::write(1, 0x1000, 8);
    ext.embed(&mut sqe);

    // (dword:bits, field, dword, shift, mask, what the encoder put there)
    let fields: [(&str, &str, usize, u32, u32, u32); 9] = [
        (
            "00:10-13",
            "Rio op code (submit)",
            0,
            10,
            0xf,
            RioOpcode::Submit.as_bits() as u32,
        ),
        ("02:00-31", "start sequence (seq)", 2, 0, !0, 0x1111_1111),
        ("03:00-31", "end sequence (seq)", 3, 0, !0, 0x2222_2222),
        ("04:00-31", "previous group (prev)", 4, 0, !0, 0x3333_3333),
        ("05:00-15", "number of requests (num)", 5, 0, 0xffff, 0x4444),
        ("05:16-31", "stream ID", 5, 16, !0, 0x5555),
        ("12:16-19", "special flags (boundary)", 12, 16, 0xf, 0b001),
        ("13:00-16", "member/split (impl. extension)", 13, 0, 0xff, 7),
        (
            "14:00-31",
            "dispatch ordinal (impl. extension)",
            14,
            0,
            !0,
            0x6666_6666,
        ),
    ];
    let mut all_ok = true;
    for (pos, field, dw, shift, mask, want) in fields {
        let ok = (sqe.dw[dw] >> shift) & mask == want;
        row(pos, &[field, if ok { "ok" } else { "MISMATCH" }]);
        all_ok &= ok;
    }
    // Standard fields must survive the embedding.
    assert_eq!(sqe.slba(), 0x1000, "SLBA clobbered");
    assert_eq!(sqe.nlb(), 8, "NLB clobbered");
    assert!(all_ok, "Table 1 layout mismatch");

    rec.header("§6.1 PMR constants");
    for p in [
        SsdProfile::pm981(),
        SsdProfile::optane905p(),
        SsdProfile::p4800x(),
    ] {
        row(
            p.name,
            &[
                format!("PMR {} MB", p.pmr_bytes / (1024 * 1024)),
                format!("persist {:.1} us / 32 B", PMR_APPEND_NS as f64 / 1e3),
            ],
        );
    }
    println!("\nTable 1 layout verified bit-exactly.");
}

/// Ablation: scheduler Principle 2 — pin each stream to one NIC queue.
///
/// §4.3.1/§4.5: Rio dispatches a stream's requests to the same RC queue
/// pair so the network's in-order delivery makes the target's in-order
/// submission gate free. This ablation scatters commands round-robin
/// across queue pairs instead: the gate must then buffer out-of-order
/// arrivals, adding latency and memory pressure at the target.
///
/// (The paper asserts the optimization in prose; this bench quantifies
/// it in the model.)
pub fn ablation_qp_pinning(rec: &mut Recorder) {
    let rio = || {
        let mode = OrderingMode::Rio { merge: true };
        ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 8)
    };
    let pinned = |on| {
        let mut cfg = rio();
        cfg.pin_stream_to_qp = on;
        cfg
    };
    let over = |fabric| ClusterConfig { fabric, ..rio() };
    let title = "4 KB random ordered writes, 8 threads, 1 Optane target";
    let policies = [("pinned (Rio)", pinned(true)), ("scattered", pinned(false))];
    ablation_table(rec, title, "policy", policies);
    println!("\nWith pinning, RC in-order delivery means the gate never");
    println!("buffers; scattering forces it to reorder arrivals instead.");

    let title = "Same workload over kernel TCP (Principle 2 applies per socket)";
    let fabrics = [
        ("RDMA 200G", over(FabricProfile::connectx6())),
        ("TCP 200G", over(FabricProfile::tcp_200g())),
    ];
    ablation_table(rec, title, "fabric", fabrics);
    println!("\nHigher socket latency stretches the pipeline but Rio stays");
    println!("asynchronous; per-socket FIFO keeps the gate idle on TCP too.");
}

/// Prints one ablation table: 4 KB random ordered writes from 8
/// threads on each labelled cluster.
fn ablation_table(
    rec: &mut Recorder,
    title: &str,
    corner: &str,
    cells: [(&str, ClusterConfig); 2],
) {
    rec.header(title);
    row(corner, &["KIOPS", "avg lat", "gate buffered"]);
    for (label, cfg) in cells {
        let m = rec.run(label, "", cfg, Workload::random_4k(8, 10_000));
        let lat = us(m.group_latency.mean().as_micros_f64());
        row(
            label,
            &[kiops(m.block_iops()), lat, m.gate_buffered.to_string()],
        );
    }
}

/// Threads of the lossy-fabric and integrity sweeps.
const THREADS: usize = 4;

/// Lossy multi-path fabric sweep: ordering engines under packet loss.
///
/// RIO's central claim (§4, §6) is that ordering survives a fabric
/// that does not serialize: requests fan out across queue pairs and
/// paths, arrive out of order, and the target-side ordering attributes
/// put them back together. This sweep drives the packet-level fabric
/// model — MTU segmentation, deterministic per-packet drops, go-back-N
/// recovery, asymmetric paths with per-QP pinning — through every
/// ordering engine: loss ∈ {0, 1e-5, 1e-3, 1e-2} × paths ∈ {1, 2, 4}.
///
/// Expected shape: RIO's deep asynchronous window overlaps per-stream
/// recovery stalls, so its throughput degrades gracefully with loss
/// (and tracks orderless), while the serial Linux NVMe-oF chain pays
/// every recovery latency on its critical path and degrades sharply.
/// Multi-path spreading adds latency asymmetry that the target gate
/// absorbs without extra cost.
pub fn fig_lossy_fabric(rec: &mut Recorder) {
    let losses = [0.0, 1e-5, 1e-3, 1e-2];
    for paths in [1, 2, 4] {
        let fig = sweep(
            rec,
            &format!(
                "Lossy fabric, {paths} path(s): KIOPS of 4 KB ordered writes ({THREADS} threads)"
            ),
            "mode \\ loss",
            &losses,
            by_label(all_modes()),
            &[("{}", |m| kiops(m.block_iops()))],
            |&mode, &loss| {
                let groups = groups_for(mode, 600, 20_000);
                (
                    lossy_cfg(mode, THREADS, loss, paths),
                    Workload::random_4k(THREADS, groups),
                )
            },
        );
        // Relative throughput vs the mode's own lossless run — the
        // graceful-vs-sharp degradation panel.
        fig.print_retained(
            "throughput retained vs lossless (same mode)",
            RunMetrics::block_iops,
        );
        // Fabric health counters for the highest-loss RIO cell.
        let worst = fig.runs("RIO").last().expect("at least one loss point");
        println!(
            "--- RIO @ loss={}: {} pkts, {} drops, {} retransmits, {} recovery rounds, gate buffered {} ---",
            losses[losses.len() - 1],
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

/// End-to-end data-integrity sweep: corruption × crash × ordering
/// modes.
///
/// With integrity on, every command carries real payload bytes (a
/// splitmix64 stream per 4 KB block) and a CRC-32C digest stamped at
/// submission; the fabric corrupts packets at a configurable rate;
/// receivers catch every corruption by digest and NAK it into the
/// go-back-N window, so corrupted payloads are re-fetched and never
/// reach media. Part 1 sweeps the wire corruption rate through every
/// ordering engine and reports the goodput cost plus the full
/// detection ledger.
///
/// Part 2 composes corruption with crashes: a power failure that tears
/// the in-flight media write, then at-rest bit rot, both under ongoing
/// wire corruption. The post-quiesce scrub detects every bad record by
/// its media seal, repairs what a durable-but-unacked group still
/// covers (discard + redeliver, exactly-once preserved), and reports
/// the rest as honest data loss. The run survives and completes every
/// group exactly once.
///
/// # Panics
///
/// Panics if an injected corruption escapes detection or a ledger is
/// out of balance.
pub fn fig_integrity(rec: &mut Recorder) {
    corruption_sweep(rec);
    crash_sweep(rec);
}

/// Part 1: wire corruption rate × ordering engine.
fn corruption_sweep(rec: &mut Recorder) {
    let fig = sweep(
        rec,
        &format!(
            "Wire corruption sweep: KIOPS of 4 KB ordered writes ({THREADS} threads, \
             2 paths, payload bytes + CRC-32C digests end to end)"
        ),
        "mode \\ rate",
        &[0.0, 1e-5, 1e-3],
        by_label(all_modes()),
        &[("{}", |m| kiops(m.block_iops()))],
        |&mode, &rate| {
            let mut cfg = lossy_cfg(mode, THREADS, 0.0, 2);
            cfg.net.corrupt_rate = rate;
            // rate == 0 still runs with payload bytes and digests: the
            // integrity flag isolates the checksum machinery's cost
            // from the corruption-recovery cost.
            cfg.integrity = true;
            let groups = groups_for(mode, 600, 8_000);
            (cfg, Workload::random_4k(THREADS, groups))
        },
    );
    for m in fig.series.iter().flat_map(|(_, runs)| runs) {
        let i = &m.integrity;
        assert_eq!(
            i.wire_injected, i.wire_detected,
            "an injected corruption escaped the digest check"
        );
        assert!(i.balanced(), "integrity ledger out of balance");
    }
    fig.print_retained(
        "goodput retained vs corruption-free (same mode)",
        RunMetrics::block_iops,
    );
    println!("--- detection ledger at the highest rate (per mode) ---");
    let columns = ["injected", "detected", "refetched", "retx rounds"];
    row("mode", &columns);
    for (label, runs) in &fig.series {
        let worst = runs.last().expect("at least one rate");
        let i = &worst.integrity;
        let counts = [
            i.wire_injected,
            i.wire_detected,
            i.wire_refetched,
            worst.net.retx_rounds,
        ];
        row(label, &counts);
    }
}

/// Part 2: corruption × crash (Rio only: recovery needs the persisted
/// attributes). Two media-fault cells per corruption rate:
///
/// * **torn write** on volatile-cache SSDs (`pm981`) — the cache is
///   essentially never empty mid-run, so the power cut reliably tears
///   the in-flight media write; the torn block usually backed an
///   already-acknowledged group, so the scrub reports honest loss.
/// * **bit rot** on PLP SSDs (`optane905p`) — media fills quickly, so
///   at-rest flips land on sealed blocks and the scrub catches every
///   single-bit error by its CRC-32C seal.
fn crash_sweep(rec: &mut Recorder) {
    let cells = [
        (
            "torn write",
            SsdProfile::pm981 as fn() -> SsdProfile,
            FaultKind::TornWrite {
                targets: Vec::new(),
            },
        ),
        (
            "bit rot",
            SsdProfile::optane905p,
            FaultKind::BitRot {
                targets: Vec::new(),
                flips: 3,
            },
        ),
    ];
    for mode in [
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
    ] {
        rec.header(&format!(
            "Corruption × crash, {}: media fault at half span, survivable, \
             {THREADS} threads",
            mode.label()
        ));
        let columns = [
            "rebuild",
            "scrub+disc",
            "injected",
            "detected",
            "repaired",
            "lost",
            "retention",
        ];
        row("rate / fault", &columns);
        for rate in [0.0, 1e-3] {
            for (label, ssd, kind) in &cells {
                let wl = Workload::seq_batched(THREADS, 2_000, 4, 1);
                let net = FabricConfig {
                    corrupt_rate: rate,
                    ..FabricConfig::lossy(0.0, 2)
                };
                let cfg = ClusterConfig {
                    integrity: true,
                    ..fault_cfg(mode, *ssd, THREADS, net)
                };
                let fault = vec![(format!("{rate:.0e} {label}"), kind.clone())];
                half_span_faults(rec, cfg, wl, fault, |m| {
                    let i = &m.integrity;
                    let counts = [
                        i.torn_injected + i.rot_injected,
                        i.media_detected,
                        i.media_repaired,
                        i.media_unrepairable,
                    ];
                    counts.map(|c| c.to_string()).to_vec()
                });
            }
        }
    }
}

/// Multi-initiator scaling sweep: initiators × streams × targets.
///
/// Many tenants sharing a storage pool, in miniature: M
/// initiators — each with its own sequencer, NIC, completer and stream
/// slice, one tenant per initiator — converge on a shared set of
/// targets ([`multi_cfg`]). Every target NIC serializes the incast on
/// its egress link and a deficit-round-robin scheduler arbitrates SSD
/// admission across tenants, so this sweep shows (a) how aggregate
/// throughput scales with initiators until the shared targets
/// saturate, (b) where the per-target gate stops scaling (adding
/// initiators beyond the target capacity only grows the DRR admission
/// wait), (c) that equal QoS weights keep the tenants inside a Jain
/// fairness index ≥ 0.95 while a skewed weight reorders throughput,
/// and (d) every ordering engine on the same incast.
///
/// # Panics
///
/// Panics if equal-weight tenants fall out of fairness, or a heavier
/// tenant does not outrun a lighter one.
pub fn fig_multi_initiator(rec: &mut Recorder) {
    scaling_sweep(rec);
    weight_sweep(rec);
    engine_sweep(rec);
}

fn scaling_sweep(rec: &mut Recorder) {
    for streams_each in [1, 2] {
        let fig = sweep(
            rec,
            &format!(
                "Multi-initiator scaling, {streams_each} stream(s)/initiator: aggregate KIOPS \
                 (RIO, loss=1e-3, 2 paths)"
            ),
            "targets \\ inits",
            &[1usize, 2, 4, 8],
            [1usize, 2, 4]
                .map(|t| (format!("{t} target(s)"), t))
                .to_vec(),
            &[
                ("{}", |m| kiops(m.block_iops())),
                // The saturation tell: mean DRR admission wait per
                // tenant. Once the shared targets are the bottleneck,
                // piling on initiators stops raising KIOPS and starts
                // raising this.
                ("  drr wait", |m| {
                    let t = &m.tenants;
                    let total: f64 = t.iter().map(|t| t.gate_wait.mean().as_nanos() as f64).sum();
                    let mean_ns = if t.is_empty() {
                        0.0
                    } else {
                        total / t.len() as f64
                    };
                    us(mean_ns / 1e3)
                }),
                ("  jain", |m| format!("{:.3}", m.tenant_fairness())),
            ],
            |&targets, &initiators| {
                let wl = Workload::random_4k(initiators * streams_each, 2_000);
                let rio = OrderingMode::Rio { merge: true };
                (multi_cfg(rio, initiators, streams_each, targets), wl)
            },
        );
        for m in fig.series.iter().flat_map(|(_, runs)| runs) {
            assert!(
                m.tenants.len() < 2 || m.tenant_fairness() >= 0.95,
                "equal-weight tenants fell out of fairness: {}",
                m.tenant_fairness()
            );
        }
    }
}

fn weight_sweep(rec: &mut Recorder) {
    rec.header("QoS weights: 2 initiators, 1 shared target, equal demand");
    let columns = ["1:1", "2:1", "4:1"];
    row("weights", &columns);
    let mut tenants = [Vec::new(), Vec::new()];
    for (w, column) in [1u32, 2, 4].into_iter().zip(columns) {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 2, 1);
        cfg.initiators[0] = cfg.initiators[0].clone().with_weight(w);
        let m = rec.run("", column, cfg, Workload::random_4k(4, 2_000));
        for (cells, t) in tenants.iter_mut().zip(&m.tenants) {
            cells.push(kiops(t.block_iops()));
        }
        if w > 1 {
            let heavy = m.tenants.iter().find(|t| t.weight == w).expect("heavy");
            let light = m.tenants.iter().find(|t| t.weight == 1).expect("light");
            assert!(
                heavy.block_iops() > light.block_iops(),
                "weight {w} must outrun weight 1"
            );
        }
    }
    for (i, cells) in tenants.iter().enumerate() {
        row(&format!("tenant {i}"), cells);
    }
}

/// Every ordering engine on the incast: one-tenant initiators of two
/// streams each over two shared lossy targets.
fn engine_sweep(rec: &mut Recorder) {
    sweep(
        rec,
        "Multi-initiator, every engine, 2 streams/initiator, 2 targets: aggregate KIOPS \
         (loss=1e-3, 2 paths)",
        "mode \\ inits",
        &[2usize, 4],
        by_label(all_modes()),
        &[("{}", |m| kiops(m.block_iops()))],
        |&mode, &initiators| {
            let groups = groups_for(mode, 600, 6_000);
            let wl = Workload::random_4k(initiators * 2, groups);
            (multi_cfg(mode, initiators, 2, 2), wl)
        },
    );
}

#[cfg(test)]
mod tests {
    use crate::gate::{compare, Document};
    use crate::json::Record;
    use crate::sweep::Cell;

    fn cell(table: &str, series: &str, kiops: f64) -> Cell {
        Cell {
            table: table.into(),
            series: series.into(),
            axis: "2".into(),
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
            cell("Figure 10(a)", "RIO", 512.125),
            cell("Figure 13", "Ext4 kops", 1.5),
        ]);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].table, "Figure 10(a)");
        assert_eq!(parsed[1].series, "Ext4 kops");
        assert!((parsed[0].kiops - 512.125).abs() < 1e-9);
        assert_eq!(parsed[0].axis, "2");
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
        let base = vec![cell("Figure 10(a)", "RIO", 500.0)];
        // 8% slower: tolerated, but noted as drift.
        let ok = vec![cell("Figure 10(a)", "RIO", 460.0)];
        let out = compare(&base, &ok);
        assert!(!out.failed());
        assert!(out.verdicts[0].notes[0].contains("kiops drift"));
        // 20% slower: fails.
        let slow = vec![cell("Figure 10(a)", "RIO", 400.0)];
        let out = compare(&base, &slow);
        assert!(out.failed());
        assert!(out.verdicts[0].failures[0].contains("kiops regression"));
        // Faster: an improvement passes (with a drift note).
        let better = vec![cell("Figure 10(a)", "RIO", 600.0)];
        assert!(!compare(&base, &better).failed());
    }

    #[test]
    fn missing_cells_always_fail() {
        let base = vec![
            cell("Figure 10(a)", "RIO", 500.0),
            cell("Figure 13", "Ext4 kops", 2.0),
        ];
        let partial = vec![cell("Figure 10(a)", "RIO", 500.0)];
        let out = compare(&base, &partial);
        assert!(out.failed());
        assert_eq!(
            out.verdicts[1].failures,
            ["cell missing from the current grid"]
        );
    }

    #[test]
    fn delimiters_inside_strings_round_trip() {
        let odd = cell("fig, \"10\" }a{ [x] \\ \t", "Li}nux", 7.5);
        let parsed = round_trip(vec![odd.clone(), cell("Figure 13", "RIO", 1.0)]);
        assert_eq!(
            parsed.len(),
            2,
            "a delimiter inside a string is not a delimiter"
        );
        assert_eq!(parsed[0].table, odd.table);
        assert_eq!(parsed[0].series, "Li}nux");
        assert_eq!(parsed[0].key_label(), odd.key_label());
        assert_eq!(parsed[1].series, "RIO");
    }
}
