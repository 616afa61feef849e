//! In-crate cluster tests: everything here runs whole simulations
//! through `Cluster`, a few peeking at private state (the media check
//! of `run_and_verify`, per-SSD writes, thread placement).

use super::*;
use crate::config::{FabricConfig, FaultEvent, FaultKind, FaultPlan};
use proptest::prelude::*;
use rio_ssd::SsdProfile;

impl Cluster {
    /// Runs the workload, then asserts every target's media holds
    /// exactly what was submitted and the run keeps every law: every
    /// sealed block matches its seal (no corrupt block survives a run
    /// — all are detected and either rolled back + resubmitted or
    /// discarded during recovery) and is byte-for-byte the payload its
    /// embedded seed generates (recovered bytes == submitted bytes).
    fn run_and_verify(mut self) -> RunMetrics {
        self.run_loop();
        let m = self.metrics();
        for (t, target) in self.targets.iter().enumerate() {
            for (s, ssd) in target.ssds.iter().enumerate() {
                assert!(
                    ssd.media_verified(),
                    "corrupt block survived the run on target {t} ssd {s}"
                );
                assert!(
                    ssd.payload_verified(),
                    "media block differs from its submitted payload on target {t} ssd {s}"
                );
            }
        }
        m.lawful()
    }
}

const ALL_MODES: [OrderingMode; 4] = [
    OrderingMode::Orderless,
    OrderingMode::LinuxNvmf,
    OrderingMode::Horae,
    OrderingMode::Rio { merge: true },
];

/// One Optane target, eight cores and QPs a side, a 16-deep window.
fn small_cfg(mode: OrderingMode, threads: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
    cfg.cores = 8;
    cfg.seed = 7;
    cfg.max_inflight_per_stream = 16;
    cfg
}

fn run(mode: OrderingMode, threads: usize, groups: u64) -> RunMetrics {
    let cfg = small_cfg(mode, threads);
    let wl = Workload::random_4k(threads, groups);
    Cluster::new(cfg, wl).run().lawful()
}

#[test]
fn orderless_completes_all_groups() {
    let m = run(OrderingMode::Orderless, 2, 200);
    assert_eq!(m.groups_done, 400);
    assert_eq!(m.blocks_done, 400);
    assert!(m.span.as_nanos() > 0);
    assert!(m.initiator_util > 0.0);
}

#[test]
fn rio_completes_all_groups() {
    let m = run(OrderingMode::Rio { merge: true }, 2, 200);
    assert_eq!(m.groups_done, 400);
    assert_eq!(m.blocks_done, 400);
}

#[test]
fn linux_completes_all_groups() {
    let m = run(OrderingMode::LinuxNvmf, 2, 50);
    assert_eq!(m.groups_done, 100);
}

#[test]
fn horae_completes_all_groups() {
    let m = run(OrderingMode::Horae, 2, 100);
    assert_eq!(m.groups_done, 200);
}

#[test]
fn only_rio_targets_build_a_gate_and_a_log() {
    let targets = |mode| Cluster::new(small_cfg(mode, 2), Workload::random_4k(2, 1)).targets;
    for mode in [OrderingMode::Orderless, OrderingMode::Horae, OrderingMode::LinuxNvmf] {
        assert!(targets(mode).iter().all(|t| t.rio.is_none()), "{mode:?}");
    }
    assert!(targets(OrderingMode::Rio { merge: true }).iter().all(|t| t.rio.is_some()));
}

#[test]
fn ordering_cost_ranking_holds() {
    // The paper's headline shape: orderless ≥ Rio > Horae > Linux.
    let orderless = run(OrderingMode::Orderless, 4, 300).block_iops();
    let rio = run(OrderingMode::Rio { merge: true }, 4, 300).block_iops();
    let horae = run(OrderingMode::Horae, 4, 300).block_iops();
    let linux = run(OrderingMode::LinuxNvmf, 4, 100).block_iops();
    assert!(rio > horae, "rio {rio:.0} <= horae {horae:.0}");
    assert!(horae > linux, "horae {horae:.0} <= linux {linux:.0}");
    assert!(
        rio > orderless * 0.5,
        "rio {rio:.0} too far below orderless {orderless:.0}"
    );
}

#[test]
fn rio_merging_reduces_commands() {
    let cfg = small_cfg(OrderingMode::Rio { merge: true }, 1);
    let wl = Workload::seq_batched(1, 256, 8, 1);
    let merged = Cluster::new(cfg, wl.clone()).run().lawful();
    let cfg = small_cfg(OrderingMode::Rio { merge: false }, 1);
    let unmerged = Cluster::new(cfg, wl).run().lawful();
    assert_eq!(merged.groups_done, unmerged.groups_done);
    assert!(
        merged.commands_sent * 2 <= unmerged.commands_sent,
        "merged {} vs unmerged {}",
        merged.commands_sent,
        unmerged.commands_sent
    );
}

#[test]
fn journal_triplet_halves_commands() {
    // §4.1: two consecutive ordered requests merge into one command.
    let cfg = small_cfg(OrderingMode::Rio { merge: true }, 1);
    let wl = Workload::journal_triplet(1, 100);
    let m = Cluster::new(cfg, wl).run().lawful();
    assert_eq!(m.groups_done, 200);
    assert!(
        m.commands_sent <= 110,
        "expected ~100 merged commands, sent {}",
        m.commands_sent
    );
}

#[test]
fn fsync_journal_completes_in_all_modes() {
    for mode in [
        OrderingMode::Rio { merge: true },
        OrderingMode::Horae,
        OrderingMode::LinuxNvmf,
    ] {
        let cfg = small_cfg(mode, 2);
        let wl = Workload::fsync_append(2, 50);
        let m = Cluster::new(cfg, wl).run().lawful();
        assert_eq!(m.ops_done, 100, "{} lost fsyncs", mode.label());
        assert_eq!(m.groups_done, 300, "{}: 3 groups per op", mode.label());
        assert!(m.op_latency.count() == 100);
        assert!(m.op_latency.mean().as_micros_f64() > 1.0);
    }
}

#[test]
fn every_engine_drains_its_bookkeeping() {
    // A fault-free run ends with nothing in flight anywhere: every
    // command and dispatch unit retired, every thread's window, queue
    // and undelivered FIFO empty, and each group delivered once. (An
    // orderless thread may end in `Wait::Slot`, so that is allowed.)
    let modes = ALL_MODES.into_iter().chain([OrderingMode::Rio { merge: false }]);
    for mode in modes {
        let (threads, units) = (3, 24);
        // Each pattern with the groups one script unit emits.
        let patterns = [
            (Workload::random_4k(threads, units), 1),
            (Workload::seq_batched(threads, units, 4, 2), 1),
            (Workload::journal_triplet(threads, units / 2), 1),
            (Workload::fsync_append(threads, units), 3),
        ];
        for (wl, groups_per_unit) in patterns {
            let what = format!("{} {:?}", mode.label(), wl.pattern);
            let mut cl = Cluster::new(small_cfg(mode, threads), wl);
            cl.run_loop();
            assert!(cl.cmds.is_empty(), "{what}: commands left in flight");
            assert!(cl.units.is_empty(), "{what}: dispatch units left in flight");
            for (t, th) in cl.threads.iter().enumerate() {
                assert_eq!(th.inflight, 0, "{what}: thread {t} inflight");
                assert!(th.queue.is_empty(), "{what}: thread {t} queue");
                assert!(th.undelivered.is_empty(), "{what}: thread {t} undelivered");
                assert!(
                    !matches!(th.wait, Wait::Ack(_) | Wait::Sync),
                    "{what}: thread {t} ends in {:?}",
                    th.wait
                );
            }
            let m = cl.metrics().lawful();
            assert_eq!(m.groups_done, threads as u64 * units * groups_per_unit, "{what}");
        }
    }
}

#[test]
fn a_horae_thread_wakes_once_per_group() {
    // A Horae thread blocked on its control ack takes no wake from a
    // data completion: the gate `Resume` after the ack is its one wake
    // per group. Each group then costs seven events (the gate
    // `Resume`, the control message's two, the data write's four) and
    // each thread one start `Resume`. The configs keep Optane
    // unsaturated: an SSD-bound run can open its gate onto a full
    // window and park, which adds a data-completion wake.
    for threads in [1, 3, 8] {
        for window in [2, 16] {
            let groups = 50;
            let mut cfg = small_cfg(OrderingMode::Horae, threads);
            cfg.max_inflight_per_stream = window;
            let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run().lawful();
            let total = threads as u64 * groups;
            assert_eq!(m.groups_done, total);
            assert_eq!(
                m.events_processed,
                7 * total + threads as u64,
                "{threads} threads, window {window}"
            );
        }
    }
}

#[test]
fn fsync_rio_beats_ext4_and_horae_latency() {
    // The Fig. 13/14 shape: RioFS < HoraeFS < Ext4 fsync latency.
    let lat = |mode: OrderingMode| {
        let cfg = small_cfg(mode, 1);
        let wl = Workload::fsync_append(1, 200);
        let m = Cluster::new(cfg, wl).run().lawful();
        m.op_latency.mean().as_micros_f64()
    };
    let rio = lat(OrderingMode::Rio { merge: true });
    let horae = lat(OrderingMode::Horae);
    let ext4 = lat(OrderingMode::LinuxNvmf);
    assert!(rio < horae, "rio {rio:.1}us !< horae {horae:.1}us");
    assert!(horae < ext4, "horae {horae:.1}us !< ext4 {ext4:.1}us");
}

#[test]
fn fsync_stage_breakdown_shape() {
    // Fig. 14: Rio dispatches JM/JC immediately (CPU-only), Horae
    // pays a control-path round trip per stage.
    let stages = |mode: OrderingMode| {
        let cfg = small_cfg(mode, 1);
        let wl = Workload::fsync_append(1, 100);
        let m = Cluster::new(cfg, wl).run().lawful();
        [
            m.stage_dispatch[0].mean(),
            m.stage_dispatch[1].mean(),
            m.stage_dispatch[2].mean(),
            m.stage_dispatch[3].mean(),
        ]
    };
    let rio = stages(OrderingMode::Rio { merge: true });
    let horae = stages(OrderingMode::Horae);
    // JM dispatch: Horae's control path makes it an order of
    // magnitude slower than Rio's CPU-only dispatch.
    assert!(
        horae[1] > rio[1] * 4.0,
        "horae JM {:.0}ns vs rio JM {:.0}ns",
        horae[1],
        rio[1]
    );
    assert!(rio[1] < 5_000.0, "rio JM dispatch should be ~CPU-only");
    // Both spend comparable time waiting on I/O.
    assert!(rio[3] > 0.0 && horae[3] > 0.0);
}

#[test]
fn qp_pinning_keeps_the_gate_idle() {
    // Principle 2: with streams pinned to queue pairs, RC in-order
    // delivery means the gate never buffers; scattering commands
    // across QPs forces it to.
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 4);
    cfg.pin_stream_to_qp = true;
    let pinned = Cluster::new(cfg, Workload::random_4k(4, 400)).run().lawful();
    assert_eq!(pinned.gate_buffered, 0, "pinned streams must not buffer");

    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 4);
    cfg.pin_stream_to_qp = false;
    let scattered = Cluster::new(cfg, Workload::random_4k(4, 400)).run().lawful();
    assert!(
        scattered.gate_buffered > 0,
        "scattered QPs should reorder arrivals"
    );
    assert_eq!(
        scattered.groups_done, pinned.groups_done,
        "ordering still intact"
    );
}

#[test]
fn lossy_fabric_completes_and_counts_retransmits() {
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
    cfg.net = FabricConfig::lossy(0.05, 2);
    cfg.net.migrate_every = 64;
    let m = Cluster::new(cfg, Workload::random_4k(2, 300)).run().lawful();
    assert_eq!(m.groups_done, 600, "loss must not lose groups");
    assert_eq!(m.blocks_done, 600);
    assert!(m.net.drops > 0, "5% loss must drop packets");
    assert!(m.net.retransmits > 0, "drops must be retransmitted");
    assert!(m.net.retx_rounds > 0);
    assert_eq!(m.net.per_path.len(), 2, "both paths reported");
    assert!(
        m.net.per_path.iter().all(|p| p.packets > 0),
        "migration + QP spread must load both paths: {:?}",
        m.net.per_path
    );
}

#[test]
fn retransmission_reorders_into_the_gate() {
    // Streams are pinned to QPs, so without loss the gate never
    // buffers. A retransmitted command is overtaken by its QP
    // successors, and the target-side gate must absorb exactly
    // that reordering (the paper's §4.3.1 argument, now driven by
    // the fabric instead of the scatter ablation).
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
    cfg.net = FabricConfig::lossy(0.08, 1);
    let lossy = Cluster::new(cfg, Workload::random_4k(2, 400)).run().lawful();
    assert!(
        lossy.gate_buffered > 0,
        "retransmitted commands should arrive after successors"
    );
    assert_eq!(lossy.groups_done, 800, "ordering still intact");

    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
    cfg.net = FabricConfig::default();
    let clean = Cluster::new(cfg, Workload::random_4k(2, 400)).run().lawful();
    assert_eq!(clean.gate_buffered, 0, "lossless pinned gate stays idle");
}

#[test]
fn lossy_fabric_degrades_linux_more_than_rio() {
    // The fig_lossy_fabric headline in miniature: with a deep
    // asynchronous window (Rio's whole design), per-stream recovery
    // stalls overlap and the SSD stays fed, so relative throughput
    // loss under packet loss is far worse for the serial Linux
    // path than for Rio's pipelined one.
    let run = |mode: OrderingMode, loss: f64, groups: u64| {
        let mut cfg = small_cfg(mode, 4);
        cfg.max_inflight_per_stream = 64;
        cfg.net = FabricConfig::lossy(loss, 1);
        Cluster::new(cfg, Workload::random_4k(4, groups))
            .run().lawful()
            .block_iops()
    };
    let rio_drop = 1.0
        - run(OrderingMode::Rio { merge: true }, 0.02, 2000)
            / run(OrderingMode::Rio { merge: true }, 0.0, 2000);
    let linux_drop = 1.0
        - run(OrderingMode::LinuxNvmf, 0.02, 300) / run(OrderingMode::LinuxNvmf, 0.0, 300);
    assert!(
        linux_drop > rio_drop,
        "linux lost {linux_drop:.3} vs rio {rio_drop:.3}"
    );
}

#[test]
fn telemetry_charges_each_retransmit_to_the_nic_that_sent_it() {
    // The per-NIC retransmit series must split exactly as the NICs'
    // own counters do: a pull's data window is resent by the initiator
    // (the source), only a lost pull request by the target (the
    // reader). Horae's control messages and acknowledgements ride the
    // same legs and are charged the same way.
    for mode in ALL_MODES {
        let mut cfg = small_cfg(mode, 3);
        cfg.net = FabricConfig::lossy(0.05, 2);
        cfg.telemetry = Some(crate::TelemetryConfig::default());
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let mut cl = Cluster::new(cfg, Workload::random_4k(3, groups));
        cl.run_loop();
        let tm = cl.metrics().lawful().telemetry.expect("telemetry on");
        let nics = cl.initiators.iter().map(|i| &i.nic).chain(cl.targets.iter().map(|t| &t.nic));
        for (n, nic) in nics.enumerate() {
            let charged: u64 = tm.buckets.iter().map(|b| b.retx_pkts[n] as u64).sum();
            assert!(nic.stats().retransmits > 0, "{}: NIC {n} never resent", mode.label());
            assert_eq!(charged, nic.stats().retransmits, "{}: NIC {n}", mode.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For any loss rate < 1 and any path layout, every submitted
    /// group completes exactly once under every ordering engine,
    /// and retransmission never breaks the per-mode invariants.
    #[test]
    fn prop_lossy_exactly_once_all_modes(
        loss in 0.0f64..0.5,
        paths in 1usize..5,
        migrate in 0u64..3,
        seed in any::<u64>(),
    ) {
        for mode in ALL_MODES {
            let groups = if mode == OrderingMode::LinuxNvmf { 15 } else { 60 };
            let mut cfg = small_cfg(mode, 2);
            cfg.seed = seed;
            cfg.net = FabricConfig::lossy(loss, paths);
            cfg.net.migrate_every = migrate * 32;
            let m = Cluster::new(cfg, Workload::random_4k(2, groups)).run().lawful();
            prop_assert_eq!(m.groups_done, 2 * groups, "{} lost groups", mode.label());
            prop_assert_eq!(m.blocks_done, 2 * groups, "{} lost blocks", mode.label());
            if loss > 0.01 {
                prop_assert!(
                    m.net.drops == 0 || m.net.retransmits > 0,
                    "{}: drops without retransmission", mode.label()
                );
            }
        }
    }
}

// ---- fault injection ---------------------------------------------------

/// [`small_cfg`] under Rio with a second, identical target.
fn two_target_cfg(threads: usize) -> ClusterConfig {
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, threads);
    cfg.seed = 9;
    cfg.targets.push(cfg.targets[0].clone());
    cfg
}

/// A one-fault plan: `kind` strikes halfway through the fault-free run
/// of `cfg` under `wl`, and the run resumes.
fn fault_at_half(cfg: &ClusterConfig, wl: &Workload, kind: FaultKind) -> FaultPlan {
    let baseline = Cluster::new(cfg.clone(), wl.clone()).run().lawful();
    let at = SimTime::from_nanos(baseline.finished_at.as_nanos() / 2);
    FaultPlan {
        events: vec![FaultEvent { at, kind, resume: true }],
    }
}

/// The acceptance scenario: loss = 1e-3, 2 paths, one of two
/// targets power-fails mid-flight; the run survives, completes
/// every group exactly once, and replays byte-identically.
#[test]
fn survivable_crash_completes_every_group_exactly_once() {
    let threads = 2usize;
    let groups = 600u64;
    let lossy = |faults: FaultPlan| {
        let mut cfg = two_target_cfg(threads);
        cfg.net = FabricConfig::lossy(1e-3, 2);
        cfg.faults = faults;
        Cluster::new(cfg, Workload::random_4k(threads, groups)).run().lawful()
    };
    // Probe the crash-free span, then crash target 1 mid-flight.
    let baseline = lossy(FaultPlan::none());
    let crash_at = SimTime::from_nanos(baseline.finished_at.as_nanos() / 2);
    let run = || lossy(FaultPlan::survivable_crash(crash_at, vec![1]));
    let m = run();

    assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
    assert_eq!(m.blocks_done, threads as u64 * groups);
    assert_eq!(m.recoveries.len(), 1);
    assert_eq!(m.epochs.len(), 2, "one crash splits the run in two");
    let r = &m.recoveries[0];
    assert_eq!(r.crashed_targets, vec![1]);
    assert!(r.power_fail);
    assert_eq!(r.crashed_at, crash_at);
    assert!(r.resumed_at > r.crashed_at, "recovery takes time");
    assert!(r.records_scanned > 0, "mid-flight work left records");
    let requeued: u64 = r.streams.iter().map(|s| s.requeued).sum();
    assert!(requeued > 0, "a mid-flight crash must roll back work");
    assert!(
        m.finished_at > r.resumed_at,
        "the workload resumed to the configured end"
    );
    // PLP drives: the valid prefix covers everything the app saw
    // complete — no acknowledged group is ever rolled back.
    for s in &r.streams {
        assert!(s.valid_through >= s.delivered_through);
    }
    assert_eq!(m, run(), "same seed replays byte-identically");
}

#[test]
fn nic_reset_fault_recovers_without_power_loss() {
    let threads = 2usize;
    let groups = 400u64;
    let wl = Workload::random_4k(threads, groups);
    let mut cfg = two_target_cfg(threads);
    cfg.faults = fault_at_half(&cfg, &wl, FaultKind::NicReset { target: 0 });
    let m = Cluster::new(cfg, wl).run().lawful();
    assert_eq!(m.groups_done, threads as u64 * groups);
    assert_eq!(m.recoveries.len(), 1);
    assert!(!m.recoveries[0].power_fail, "link flap, not power failure");
    assert_eq!(m.recoveries[0].crashed_targets, vec![0]);
}

#[test]
fn a_run_survives_multiple_faults() {
    let threads = 2usize;
    let groups = 900u64;
    let baseline = Cluster::new(
        two_target_cfg(threads),
        Workload::random_4k(threads, groups),
    )
    .run().lawful();
    let span = baseline.finished_at.as_nanos();
    let mut cfg = two_target_cfg(threads);
    cfg.faults = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_nanos(span / 3),
                kind: FaultKind::PowerFail { targets: vec![0] },
                resume: true,
            },
            FaultEvent {
                at: SimTime::from_nanos(2 * span / 3),
                kind: FaultKind::PowerFail {
                    targets: Vec::new(),
                },
                resume: true,
            },
        ],
    };
    let m = Cluster::new(cfg.clone(), Workload::random_4k(threads, groups)).run().lawful();
    assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
    assert_eq!(m.recoveries.len(), 2);
    assert_eq!(m.epochs.len(), 3);
    assert_eq!(m.recoveries[1].crashed_targets, vec![0, 1]);
    // The same plan halting at its last fault: the open epoch is empty
    // and the closed ones still account for everything delivered.
    cfg.faults.events[1].resume = false;
    let halted = Cluster::new(cfg, Workload::random_4k(threads, groups)).run().lawful();
    assert!(halted.groups_done < m.groups_done, "the run stopped at the fault");
    assert_eq!(halted.epochs.len(), 3);
}

#[test]
fn crash_during_fsync_ops_preserves_op_count() {
    let threads = 2usize;
    let ops = 60u64;
    let baseline = Cluster::new(
        two_target_cfg(threads),
        Workload::fsync_append(threads, ops),
    )
    .run().lawful();
    let mut cfg = two_target_cfg(threads);
    cfg.net = FabricConfig::lossy(1e-3, 2);
    cfg.faults = FaultPlan::survivable_crash(
        SimTime::from_nanos(baseline.finished_at.as_nanos() / 2),
        vec![1],
    );
    let m = Cluster::new(cfg, Workload::fsync_append(threads, ops)).run().lawful();
    assert_eq!(m.ops_done, threads as u64 * ops, "every fsync returns once");
    assert_eq!(m.groups_done, threads as u64 * ops * 3, "D/JM/JC each once");
}

#[test]
#[should_panic(expected = "fault injection requires a Rio mode")]
fn fault_plan_rejected_outside_rio() {
    let mut cfg = two_target_cfg(2);
    cfg.mode = OrderingMode::Orderless;
    cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(1_000), vec![0]);
    let _ = Cluster::new(cfg, Workload::random_4k(2, 10));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash-under-loss: a random target subset power-fails at a
    /// random mid-flight instant with loss in [0, 1e-2) over 1, 2
    /// or 4 paths. Afterwards every fsync'ed group is exactly-once
    /// (each op returns once, each of its groups completes once),
    /// and on these PLP drives the valid prefix always covers the
    /// acknowledged prefix — an acked group is either fully durable
    /// in storage order or was never acked and re-executes.
    #[test]
    fn prop_crash_under_loss_exactly_once(
        loss in 0.0f64..0.01,
        paths_sel in 0usize..3,
        subset in 1usize..4,
        frac in 0.2f64..0.8,
        seed in any::<u64>(),
    ) {
        let paths = [1usize, 2, 4][paths_sel];
        let threads = 2usize;
        let ops = 40u64;
        let mut cfg = two_target_cfg(threads);
        cfg.seed = seed;
        cfg.net = FabricConfig::lossy(loss, paths);
        let baseline =
            Cluster::new(cfg.clone(), Workload::fsync_append(threads, ops)).run().lawful();
        let crash_at =
            SimTime::from_nanos((baseline.finished_at.as_nanos() as f64 * frac) as u64);
        let targets: Vec<usize> = (0..2).filter(|t| subset & (1 << t) != 0).collect();
        let mut crashing = cfg.clone();
        crashing.faults = FaultPlan::survivable_crash(crash_at, targets.clone());
        let m = Cluster::new(crashing, Workload::fsync_append(threads, ops)).run().lawful();

        prop_assert_eq!(m.ops_done, threads as u64 * ops, "fsyncs exactly once");
        prop_assert_eq!(m.groups_done, baseline.groups_done, "groups exactly once");
        prop_assert_eq!(m.blocks_done, baseline.blocks_done);
        prop_assert_eq!(m.recoveries.len(), 1);
        let r = &m.recoveries[0];
        prop_assert_eq!(&r.crashed_targets, &targets);
        for s in &r.streams {
            prop_assert!(
                s.valid_through >= s.delivered_through,
                "PLP: acked prefix {:?} beyond valid prefix {:?}",
                s.delivered_through, s.valid_through
            );
        }

        // Same scenario with end-to-end integrity on: every sealed
        // media block must read back byte-for-byte as submitted
        // (recovered payload == submitted payload), and the run keeps
        // every law, the corruption ledger included.
        let mut verified = cfg;
        verified.integrity = true;
        verified.faults = FaultPlan::survivable_crash(crash_at, targets);
        let v = Cluster::new(verified, Workload::fsync_append(threads, ops))
            .run_and_verify();
        prop_assert_eq!(v.ops_done, threads as u64 * ops);
        prop_assert_eq!(v.groups_done, baseline.groups_done);
    }
}

// ---- end-to-end data integrity ----------------------------------------

#[test]
fn integrity_off_keeps_the_ledger_empty() {
    let m = run(OrderingMode::Rio { merge: true }, 2, 200);
    assert_eq!(m.integrity, IntegrityMetrics::default());
}

#[test]
fn integrity_on_clean_run_lands_verified_payloads() {
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
    cfg.integrity = true;
    let m = Cluster::new(cfg, Workload::random_4k(2, 200)).run_and_verify();
    assert_eq!(m.groups_done, 400);
    assert_eq!(m.integrity.injected(), 0, "nothing injected: {:?}", m.integrity);
}

#[test]
fn wire_corruption_is_detected_refetched_and_never_delivered() {
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
    cfg.net.corrupt_rate = 0.01;
    let m = Cluster::new(cfg, Workload::random_4k(2, 400)).run_and_verify();
    assert_eq!(m.groups_done, 800, "corruption must not lose groups");
    assert!(m.integrity.wire_injected > 0, "1% corruption must strike");
    assert!(
        m.integrity.wire_refetched >= m.integrity.wire_detected,
        "go-back-N re-fetches at least the corrupted packet"
    );
    assert!(m.net.retx_rounds > 0, "NAKs enter the recovery machinery");
    assert!(m.recoveries.is_empty(), "wire corruption needs no recovery");
}

#[test]
fn packet_corrupt_fault_turns_corruption_on_mid_run() {
    let threads = 2usize;
    let groups = 400u64;
    let wl = Workload::random_4k(threads, groups);
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, threads);
    cfg.faults = fault_at_half(&cfg, &wl, FaultKind::PacketCorrupt { rate: 0.05 });
    let m = Cluster::new(cfg, wl).run_and_verify();
    assert_eq!(m.groups_done, threads as u64 * groups);
    assert!(
        m.integrity.wire_injected > 0,
        "the second half of the run must see corruption"
    );
    assert!(m.recoveries.is_empty(), "a rate change is not a crash");
    assert_eq!(m.epochs.len(), 1, "no epoch closes on a rate change");
}

#[test]
fn torn_write_tears_are_scrubbed_and_repaired() {
    let threads = 2usize;
    let groups = 600u64;
    let wl = Workload::random_4k(threads, groups);
    // Volatile-cache drives: the write cache is essentially never
    // empty mid-run, so the power cut reliably catches a write
    // mid-drain and tears it. (A PLP Optane completes writes in
    // microseconds and may be idle at any given instant.)
    let mut cfg = two_target_cfg(threads);
    for t in &mut cfg.targets {
        *t = vec![SsdProfile::pm981()];
    }
    cfg.faults = fault_at_half(&cfg, &wl, FaultKind::TornWrite { targets: vec![1] });
    cfg.integrity = true;
    let m = Cluster::new(cfg, wl).run_and_verify();
    assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
    assert_eq!(m.recoveries.len(), 1);
    assert!(m.recoveries[0].power_fail, "a torn write rides a power cut");
    assert!(
        m.integrity.torn_injected >= 1,
        "a mid-flight power cut tears the in-flight write"
    );
    assert!(m.integrity.scrubbed_records > 0);
    assert!(m.integrity.scrub_us > 0.0);
}

#[test]
fn bit_rot_is_detected_and_repaired_or_reported() {
    let threads = 2usize;
    let groups = 600u64;
    let wl = Workload::random_4k(threads, groups);
    let mut cfg = two_target_cfg(threads);
    let rot = FaultKind::BitRot {
        targets: Vec::new(),
        flips: 3,
    };
    cfg.faults = fault_at_half(&cfg, &wl, rot);
    let m = Cluster::new(cfg, wl).run_and_verify();
    assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
    assert_eq!(m.recoveries.len(), 1);
    assert!(!m.recoveries[0].power_fail, "rot strikes powered media");
    assert!(m.integrity.rot_injected > 0, "flips must land");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline guarantee: under any combination of packet
    /// corruption, packet loss and multi-path layout, in every
    /// ordering mode, no corrupted payload is ever delivered —
    /// every injected corruption is detected, every group
    /// completes exactly once, and the media ends byte-for-byte
    /// equal to what was submitted.
    #[test]
    fn prop_corruption_never_delivered(
        corrupt in 0.0f64..0.2,
        loss in 0.0f64..0.05,
        paths_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let paths = [1usize, 2, 4][paths_sel];
        for mode in ALL_MODES {
            let groups = if mode == OrderingMode::LinuxNvmf { 15 } else { 60 };
            let mut cfg = small_cfg(mode, 2);
            cfg.seed = seed;
            cfg.net = FabricConfig::lossy(loss, paths);
            cfg.net.corrupt_rate = corrupt;
            let m = Cluster::new(cfg, Workload::random_4k(2, groups)).run_and_verify();
            prop_assert_eq!(m.groups_done, 2 * groups, "{} lost groups", mode.label());
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let a = run(OrderingMode::Rio { merge: true }, 3, 100);
    assert_eq!(a, run(OrderingMode::Rio { merge: true }, 3, 100));
}

// ---- multi-initiator & tenancy -----------------------------------------

/// The 4-initiator × 4-target acceptance scenario: lossy fabric,
/// one tenant per initiator, every group delivered exactly once
/// per tenant, equal weights serviced fairly (Jain ≥ 0.95), and
/// the whole thing replays byte-identically.
#[test]
fn four_initiators_four_targets_lossy_exactly_once_and_fair() {
    let groups = 150u64;
    let run = || {
        let mut cfg =
            ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 4, 2, 4);
        cfg.net = FabricConfig::lossy(1e-3, 2);
        Cluster::new(cfg, Workload::random_4k(8, groups)).run().lawful()
    };
    let m = run();
    assert_eq!(m.groups_done, 8 * groups, "exactly once overall");
    assert_eq!(m.tenants.len(), 4);
    for t in &m.tenants {
        assert_eq!(t.groups_done, 2 * groups, "tenant {} exactly once", t.tenant);
    }
    for i in &m.initiators {
        assert_eq!(i.groups_done, 2 * groups);
        assert!(i.commands_sent > 0, "initiator {} sent nothing", i.initiator);
        assert!(i.util > 0.0);
    }
    let jain = m.tenant_fairness();
    assert!(jain >= 0.95, "equal weights must be fair: {jain}");
    assert!(
        m.tenants.iter().any(|t| t.gate_wait.count() > 0),
        "multi-tenant DRR admission must be exercised"
    );
    assert_eq!(m, run(), "same seed replays byte-identically");
}

/// The one normalisation the event path relies on instead of
/// per-use fallbacks: a zero QoS weight is raised to 1 once, in
/// `effective_initiators()`, before the DRR (whose quantum would
/// otherwise never grow) or the metrics see it.
#[test]
fn zero_weight_is_raised_to_one_at_normalisation() {
    let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 1);
    cfg.initiators[0].weight = 0;
    assert_eq!(cfg.effective_initiators()[0].weight, 1);
    let m = Cluster::new(cfg, Workload::random_4k(2, 100)).run().lawful();
    assert_eq!(m.groups_done, 200, "a zero-weight tenant still progresses");
    assert_eq!(m.initiators[0].weight, 1);
    assert!(m.tenants.iter().all(|t| t.weight == 1));
}

/// Every global stream has an owning initiator by construction:
/// spare streams of a single-initiator config (more streams than
/// threads) belong to initiator 0, and multi-initiator slices map
/// to their hosts.
#[test]
fn every_stream_has_an_owning_initiator_by_construction() {
    let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
    cfg.initiators[0].streams = 5;
    let cl = Cluster::new(cfg, Workload::random_4k(2, 10));
    assert_eq!(cl.init_of_stream, vec![0; 5]);
    let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 2, 1);
    cfg.initiators[1].streams = 1;
    let cl = Cluster::new(cfg, Workload::random_4k(5, 10));
    assert_eq!(cl.init_of_stream, vec![0, 0, 1, 2, 2]);
    assert_eq!(cl.threads[3].init, 2);
    assert_eq!(cl.threads[4].core, 1, "cores count from the slice base");
}

/// `metrics()` averages over the targets unconditionally because a
/// cluster without targets cannot be built.
#[test]
#[should_panic(expected = "need at least one target")]
fn a_cluster_without_targets_is_rejected_at_construction() {
    let mut cfg = small_cfg(OrderingMode::Orderless, 1);
    cfg.targets.clear();
    let _ = Cluster::new(cfg, Workload::random_4k(1, 1));
}

/// Regression for the latent single-NIC assumption in metrics
/// assembly: `NetMetrics::absorb` must fold in *every* initiator's
/// NIC (the run laws check that the per-initiator rows partition the
/// totals).
#[test]
fn per_initiator_breakdowns_partition_global_totals() {
    let groups = 200u64;
    let m = {
        let cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
        Cluster::new(cfg, Workload::random_4k(3, groups)).run().lawful()
    };
    assert_eq!(m.initiators.len(), 3);
    // Each initiator moved real bytes through its own NIC; if
    // absorb only saw one NIC the aggregate would undercount the
    // per-command wire traffic by ~3x.
    let single = {
        let cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 1, 1, 2);
        Cluster::new(cfg, Workload::random_4k(1, groups)).run().lawful()
    };
    assert!(
        m.net.bytes_out > 2 * single.net.bytes_out,
        "3 initiators must put ~3x one initiator's bytes on the wire \
         ({} vs {})",
        m.net.bytes_out,
        single.net.bytes_out
    );
}

/// Skewed QoS weights order tenant throughput: with equal demand
/// and a shared saturated target, the weight-4 tenant must beat
/// the weight-1 tenant, and weight-normalized fairness stays high.
#[test]
fn skewed_weights_order_tenant_throughput() {
    let groups = 400u64;
    let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 2, 1);
    cfg.initiators[0] = cfg.initiators[0].clone().with_weight(4);
    let m = Cluster::new(cfg, Workload::random_4k(4, groups)).run().lawful();
    assert_eq!(m.groups_done, 4 * groups, "exactly once");
    assert_eq!(m.tenants.len(), 2);
    let heavy = m.tenants.iter().find(|t| t.weight == 4).expect("weight 4");
    let light = m.tenants.iter().find(|t| t.weight == 1).expect("weight 1");
    assert!(
        heavy.block_iops() > light.block_iops(),
        "weight 4 must outrun weight 1: {} vs {}",
        heavy.block_iops(),
        light.block_iops()
    );
    assert!(
        heavy.gate_wait.count() + light.gate_wait.count() > 0,
        "a saturated shared target must queue in the DRR"
    );
}

/// A multi-initiator run whose initiators all share one tenant id
/// keeps the DRR scheduler inert: no admission queueing, and one
/// tenant row (whose counters the run laws equate to the totals).
#[test]
fn single_tenant_multi_initiator_keeps_drr_inert() {
    let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 1);
    for ic in &mut cfg.initiators {
        ic.tenant = 7;
    }
    let m = Cluster::new(cfg, Workload::random_4k(2, 200)).run().lawful();
    assert_eq!(m.tenants.len(), 1);
    assert_eq!(m.tenants[0].tenant, 7);
    assert_eq!(m.tenants[0].gate_wait.count(), 0, "single tenant: no DRR");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Exactly-once and per-stream in-order for any M∈1..=4
    /// initiators × per-initiator stream count × loss < 1e-2, in
    /// every ordering mode — plus, for Rio, an optional mid-run
    /// target crash that the run must survive with the same
    /// guarantee per tenant.
    #[test]
    fn prop_multi_initiator_exactly_once(
        n_init in 1usize..=4,
        streams_each in 1usize..=2,
        loss in 0.0f64..0.01,
        crash in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let threads = n_init * streams_each;
        for mode in ALL_MODES {
            let groups = if mode == OrderingMode::LinuxNvmf { 12 } else { 40 };
            let mut cfg = ClusterConfig::multi_initiator(mode, n_init, streams_each, 2);
            cfg.seed = seed;
            cfg.net = FabricConfig::lossy(loss, 2);
            let m = Cluster::new(cfg.clone(), Workload::random_4k(threads, groups)).run().lawful();
            prop_assert_eq!(
                m.groups_done, threads as u64 * groups,
                "{} lost groups", mode.label()
            );
            prop_assert_eq!(m.tenants.len(), n_init);
            for t in &m.tenants {
                prop_assert_eq!(
                    t.groups_done, streams_each as u64 * groups,
                    "tenant {} not exactly-once in {}", t.tenant, mode.label()
                );
            }

            // The crash leg only exists on Rio (fault injection
            // requires persisted ORDER attributes).
            if crash && matches!(mode, OrderingMode::Rio { .. }) {
                let crash_at = SimTime::from_nanos(m.finished_at.as_nanos() / 2);
                let mut crashing = cfg;
                crashing.faults = FaultPlan::survivable_crash(crash_at, vec![1]);
                let c = Cluster::new(crashing, Workload::random_4k(threads, groups)).run().lawful();
                prop_assert_eq!(c.groups_done, threads as u64 * groups);
                prop_assert_eq!(c.recoveries.len(), 1);
                for t in &c.tenants {
                    prop_assert_eq!(
                        t.groups_done, streams_each as u64 * groups,
                        "tenant {} not exactly-once across the crash", t.tenant
                    );
                }
            }
        }
    }

    /// Fairness: equal-weight tenants on one saturated target stay
    /// within Jain ≥ 0.95; a 4:1 weight skew strictly orders the
    /// two tenants' throughput.
    #[test]
    fn prop_tenant_fairness(
        n_init in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let groups = 250u64;
        let mut cfg =
            ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, n_init, 1, 1);
        cfg.seed = seed;
        let m = Cluster::new(cfg, Workload::random_4k(n_init, groups)).run().lawful();
        prop_assert_eq!(m.groups_done, n_init as u64 * groups);
        let jain = m.tenant_fairness();
        prop_assert!(jain >= 0.95, "equal weights must be fair: {}", jain);

        let mut skew =
            ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 1);
        skew.seed = seed;
        skew.initiators[0] = skew.initiators[0].clone().with_weight(4);
        let s = Cluster::new(skew, Workload::random_4k(2, 400)).run().lawful();
        let heavy = s.tenants.iter().find(|t| t.weight == 4).expect("weight 4");
        let light = s.tenants.iter().find(|t| t.weight == 1).expect("weight 1");
        prop_assert!(
            heavy.block_iops() > light.block_iops(),
            "weight 4 ({}) must outrun weight 1 ({})",
            heavy.block_iops(), light.block_iops()
        );
    }
}

#[test]
fn multi_target_striping_reaches_all_ssds() {
    let cfg = ClusterConfig {
        cores: 8,
        ..ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 2)
    };
    let wl = Workload {
        threads: 2,
        groups_per_thread: 100,
        pattern: crate::workload::Pattern::SeqWrite { blocks: 8 },
        batch: 1,
    };
    let mut cl = Cluster::new(cfg, wl);
    cl.run_loop();
    let m = cl.metrics().lawful();
    assert_eq!(m.groups_done, 200);
    // Every SSD saw writes.
    for ssd in cl.targets.iter().flat_map(|t| &t.ssds) {
        assert!(ssd.stats().writes > 0, "an SSD saw no writes");
    }
}

// ---- layout ------------------------------------------------------------

#[test]
fn an_event_is_two_words() {
    // The heap moves every event by value. `Resend`, which carries a
    // parked go-back-N window, is the widest payload.
    assert_eq!(std::mem::size_of::<Event>(), 16);
}

#[test]
fn a_command_carries_no_parked_state() {
    // A parked window rides in its event, the rendezvous is one
    // instant and the payload tag is derived: none of them is stored.
    assert!(std::mem::size_of::<Cmd>() <= 160, "Cmd is {} bytes", std::mem::size_of::<Cmd>());
}
