//! Cross-crate integration tests: the whole pipeline from workload to
//! device and back, plus end-to-end crash consistency.

use rio::fs::{OrderedDev, RioFs};
use rio::sim::SimTime;
use rio::ssd::SsdProfile;
use rio::stack::laws::check_laws;
use rio::stack::{
    Cluster, ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, InitiatorConfig,
    OrderingMode, RunMetrics, TelemetryConfig, TraceConfig, Workload,
};
use rio::workloads::{MiniKv, Varmail};

/// The crash-under-loss shape: 4 SSDs over 2 targets, 0.1 % loss on two
/// paths, target 1 power-fails mid-flight and the run survives.
fn crash_under_loss() -> ClusterConfig {
    let mut cfg = ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 3);
    cfg.cores = 8;
    cfg.max_inflight_per_stream = 16;
    cfg.net = FabricConfig::lossy(1e-3, 2);
    cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
    cfg
}

/// Runs `wl` on `cfg` and holds the run to every law.
fn lawful(cfg: ClusterConfig, wl: Workload) -> RunMetrics {
    let m = Cluster::new(cfg, wl).run();
    check_laws(&m).unwrap_or_else(|broken| panic!("{broken}"));
    m
}

fn small(mode: OrderingMode, threads: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
    cfg.cores = 8;
    cfg.max_inflight_per_stream = 16;
    cfg
}

/// Events `small(mode, 3)` processes on `random_4k(3, groups)` (60
/// groups under Linux, 400 otherwise), as `(mode, lossless, lossy)`;
/// lossy is 5 % loss on two paths migrating every 32 messages. Every
/// run with tracing and telemetry off is pinned to these. Lossy HORAE
/// moved 10 647 → 10 763 when its control messages joined the
/// event-driven legs (each retransmission became a `Resend` event).
/// Both HORAE pins moved (10 784 → 8 403, 10 763 → 8 813) when its
/// thread became woken only by the gate `Resume` after its control ack.
const EVENT_PINS: [(OrderingMode, u64, u64); 4] = [
    (OrderingMode::Orderless, 5_039, 5_351),
    (OrderingMode::LinuxNvmf, 1_443, 1_497),
    (OrderingMode::Horae, 8_403, 8_813),
    (OrderingMode::Rio { merge: true }, 5_061, 5_297),
];

/// `(events, commands_sent)` of `crash_under_loss()` on
/// `random_4k(3, 400)` with tracing and telemetry off. The events moved
/// 5 046 → 5 062 when recovery's messages joined the wire legs; its
/// messages are not commands, so `commands_sent` held.
const CRASH_PINS: (u64, u64) = (5_062, 1_237);

#[test]
fn ordering_ladder_from_the_paper() {
    // Orderless >= Rio > Horae > Linux, the shape of Figs. 2 and 10.
    let run = |mode, groups| lawful(small(mode, 4), Workload::random_4k(4, groups));
    let orderless = run(OrderingMode::Orderless, 2_000);
    let rio = run(OrderingMode::Rio { merge: true }, 2_000);
    let horae = run(OrderingMode::Horae, 2_000);
    let linux = run(OrderingMode::LinuxNvmf, 200);
    let [orderless_iops, rio_iops, horae_iops, linux_iops] =
        [&orderless, &rio, &horae, &linux].map(|m| m.block_iops());
    assert!(
        rio_iops > horae_iops && horae_iops > linux_iops,
        "{rio_iops} / {horae_iops} / {linux_iops}"
    );
    assert!(rio_iops > orderless_iops * 0.6, "Rio must track orderless");
    // The CPU half (§3.1, Fig. 10): Horae's synchronous control path
    // blocks a thread once per group, so RIO does far more per core.
    let (rio_eff, horae_eff) = (rio.initiator_efficiency(), horae.initiator_efficiency());
    assert!(rio_eff > 1.5 * horae_eff, "RIO {rio_eff} vs Horae {horae_eff} IOPS per core");
}

#[test]
fn rio_merging_halves_journal_commands() {
    let run = |merge| lawful(small(OrderingMode::Rio { merge }, 1), Workload::journal_triplet(1, 400));
    let merged = run(true);
    let plain = run(false);
    assert_eq!(merged.blocks_done, plain.blocks_done);
    assert!(
        merged.commands_sent * 2 <= plain.commands_sent,
        "merge {} vs plain {}",
        merged.commands_sent,
        plain.commands_sent
    );
}

#[test]
fn whole_cluster_runs_are_deterministic() {
    let run = || {
        let m = lawful(small(OrderingMode::Rio { merge: true }, 3), Workload::fsync_append(3, 100));
        (m.ops_done, m.span.as_nanos(), m.commands_sent)
    };
    assert_eq!(run(), run());
}

#[test]
fn run_metrics_snapshot_identical_across_all_modes() {
    // The engine-internals safety rail: for every ordering engine, the
    // same `(config, seed)` must reproduce the *entire* `RunMetrics` —
    // every counter, histogram bucket and utilisation figure — so slab,
    // ring or heap refactors cannot silently change replay behavior.
    for mode in [
        OrderingMode::Orderless,
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ] {
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let run = || lawful(small(mode, 3), Workload::random_4k(3, groups));
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{} replay diverged", mode.label());
        assert!(a.events_processed > 0, "{} processed no events", mode.label());
    }
}

#[test]
fn run_metrics_snapshot_identical_on_a_lossy_fabric() {
    // Same rail as above, but over the lossy multi-path fabric: drops,
    // go-back-N timeouts and path migration are all driven by the
    // seeded rng, so the same `(config, seed)` must still reproduce
    // the entire `RunMetrics` — including the fabric counters — for
    // every ordering engine.
    for mode in [
        OrderingMode::Orderless,
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ] {
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let run = || {
            let mut cfg = small(mode, 3);
            cfg.net = FabricConfig::lossy(0.05, 2);
            cfg.net.migrate_every = 32;
            lawful(cfg, Workload::random_4k(3, groups))
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{} lossy replay diverged", mode.label());
        assert!(a.net.drops > 0, "{}: 5% loss must drop packets", mode.label());
        assert!(
            a.net.retransmits > 0,
            "{}: dropped packets must be retransmitted",
            mode.label()
        );
        assert_eq!(
            a.groups_done,
            3 * groups,
            "{}: loss must not lose groups",
            mode.label()
        );
    }
}

#[test]
fn run_metrics_snapshot_identical_with_crash_under_loss() {
    // The hardest replay case: packet loss, multi-path spreading AND a
    // mid-flight power failure of one target, all driven by the seeded
    // rng and the virtual clock. The same `(config, seed)` must still
    // reproduce the entire `RunMetrics` — recovery breakdowns, epochs
    // and fabric counters included — and the run must survive the
    // crash with every group delivered exactly once. The volatile-cache
    // pm981 drives in this topology also exercise the valid-prefix <
    // delivered-prefix rollback path.
    let run = || lawful(crash_under_loss(), Workload::random_4k(3, 400));
    let (a, b) = (run(), run());
    assert_eq!(a, b, "crash-under-loss replay diverged");
    assert_eq!(a.groups_done, 1_200, "crash must not lose or double groups");
    assert_eq!(a.recoveries.len(), 1);
    assert_eq!(a.epochs.len(), 2);
    assert!(a.recoveries[0].records_scanned > 0);
    assert!(a.finished_at > a.recoveries[0].resumed_at, "run resumed");
}

#[test]
fn run_metrics_snapshot_identical_with_multi_initiator_crash_under_loss() {
    // The multi-initiator counterpart of the crash-under-loss rail:
    // three initiators (one tenant each, own sequencer / NIC /
    // completer / stream slice) over two shared targets, 0.1% loss on
    // two paths, and a mid-flight power failure of target 1. The same
    // `(config, seed)` must reproduce the *entire* `RunMetrics` —
    // per-initiator and per-tenant breakdowns included — and every
    // tenant must come through the crash exactly-once.
    let run = || {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
        cfg.net = FabricConfig::lossy(1e-3, 2);
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
        lawful(cfg, Workload::random_4k(3, 400))
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "multi-initiator crash-under-loss replay diverged");
    assert_eq!(a.groups_done, 1_200, "crash must not lose or double groups");
    assert_eq!(a.recoveries.len(), 1);
    assert_eq!(a.initiators.len(), 3);
    assert_eq!(a.tenants.len(), 3);
    for t in &a.tenants {
        assert_eq!(t.groups_done, 400, "tenant {} not exactly-once", t.tenant);
    }
    assert!(a.tenant_fairness() >= 0.95, "equal weights must stay fair");
}

#[test]
fn explicit_default_initiator_reproduces_legacy_snapshots() {
    // The compatibility pin: the one-entry initiator list the canned
    // constructor builds must keep the event interleaving of the
    // pre-tenancy single-initiator engine (pinned to the lossless
    // `EVENT_PINS`) in every mode. A divergence here means the
    // multi-initiator generalization changed single-initiator runs.
    for (mode, pinned_events, _) in EVENT_PINS {
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let cfg = small(mode, 3);
        assert_eq!(
            cfg.initiators,
            vec![InitiatorConfig {
                streams: 3,
                tenant: 0,
                weight: 1,
            }],
            "the constructor spells out the default initiator"
        );
        let m = lawful(cfg, Workload::random_4k(3, groups));
        assert_eq!(
            m.events_processed,
            pinned_events,
            "{}: single-initiator event count moved off the snapshot",
            mode.label()
        );
    }
}

#[test]
fn run_metrics_snapshot_identical_with_tracing_enabled() {
    // The tracing counterpart of the three snapshot rails above: with
    // per-command stage tracing on, the whole `RunMetrics` — the
    // `LatencyBreakdown` histograms and every trace record included —
    // must still be a pure function of `(config, seed)`, across all
    // four engines, over a lossy fabric, and through a crash.
    for mode in [
        OrderingMode::Orderless,
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ] {
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let run = || {
            let mut cfg = small(mode, 3);
            cfg.net = FabricConfig::lossy(0.05, 2);
            cfg.net.migrate_every = 32;
            cfg.trace = Some(TraceConfig { ring: 1 << 16 });
            lawful(cfg, Workload::random_4k(3, groups))
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "{} traced replay diverged", mode.label());
        let bd = a.breakdown.as_ref().expect("tracing was on");
        assert!(bd.completed > 0, "{} traced no commands", mode.label());
    }
    // And the crash-under-loss shape.
    let run = || {
        let mut cfg = crash_under_loss();
        cfg.trace = Some(TraceConfig { ring: 1 << 16 });
        lawful(cfg, Workload::random_4k(3, 400))
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "traced crash-under-loss replay diverged");
    assert!(a.breakdown.as_ref().unwrap().aborted > 0, "crash strands traces");
}

#[test]
fn tracing_disabled_is_observably_free() {
    // The zero-overhead contract: with `trace: None` the simulation
    // must be *bit-identical* to the pre-tracing engine — tracing may
    // not add events, consume rng draws, or perturb any counter. Two
    // teeth: (1) event counts pinned to `EVENT_PINS` and `CRASH_PINS`;
    // (2) an enabled run differs from a disabled run in the `breakdown`
    // field and nothing else.
    for (mode, clean_events, lossy_events) in EVENT_PINS {
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let run = |trace: Option<TraceConfig>, lossy: bool| {
            let mut cfg = small(mode, 3);
            if lossy {
                cfg.net = FabricConfig::lossy(0.05, 2);
                cfg.net.migrate_every = 32;
            }
            cfg.trace = trace;
            lawful(cfg, Workload::random_4k(3, groups))
        };
        for (lossy, pinned) in [(false, clean_events), (true, lossy_events)] {
            let off = run(None, lossy);
            assert_eq!(
                off.events_processed,
                pinned,
                "{} (lossy={lossy}): disabled-tracing event count moved off the snapshot",
                mode.label()
            );
            assert!(off.breakdown.is_none());
            let mut on = run(Some(TraceConfig::default()), lossy);
            assert!(on.breakdown.is_some());
            on.breakdown = None;
            assert_eq!(
                on,
                off,
                "{} (lossy={lossy}): tracing perturbed the simulation",
                mode.label()
            );
        }
    }
    // The crash shape, pinned the same way.
    let run = |trace: Option<TraceConfig>| {
        let mut cfg = crash_under_loss();
        cfg.trace = trace;
        lawful(cfg, Workload::random_4k(3, 400))
    };
    let off = run(None);
    assert_eq!(
        (off.events_processed, off.commands_sent),
        CRASH_PINS,
        "crash counts moved"
    );
    let mut on = run(Some(TraceConfig::default()));
    assert!(on.breakdown.is_some());
    on.breakdown = None;
    assert_eq!(on, off, "tracing perturbed the crash run");
}

#[test]
fn telemetry_disabled_is_observably_free() {
    // Telemetry holds the same zero-overhead contract as tracing: with
    // `telemetry: None` the run is pinned to the same `EVENT_PINS` and
    // `CRASH_PINS` the tracing test reads, and an enabled run differs in
    // the `telemetry` field and nothing else — the sampler is passive,
    // so it may not add events, consume rng draws, or perturb a counter.
    for (mode, clean_events, lossy_events) in EVENT_PINS {
        let groups = if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
        let run = |telemetry: Option<TelemetryConfig>, lossy: bool| {
            let mut cfg = small(mode, 3);
            if lossy {
                cfg.net = FabricConfig::lossy(0.05, 2);
                cfg.net.migrate_every = 32;
            }
            cfg.telemetry = telemetry;
            lawful(cfg, Workload::random_4k(3, groups))
        };
        for (lossy, pinned) in [(false, clean_events), (true, lossy_events)] {
            let off = run(None, lossy);
            assert_eq!(
                off.events_processed,
                pinned,
                "{} (lossy={lossy}): disabled-telemetry event count moved off the snapshot",
                mode.label()
            );
            assert!(off.telemetry.is_none());
            let mut on = run(Some(TelemetryConfig::default()), lossy);
            assert!(on.telemetry.is_some());
            on.telemetry = None;
            assert_eq!(
                on,
                off,
                "{} (lossy={lossy}): telemetry perturbed the simulation",
                mode.label()
            );
        }
    }
    // The crash shape, pinned the same way.
    let run = |telemetry: Option<TelemetryConfig>| {
        let mut cfg = crash_under_loss();
        cfg.telemetry = telemetry;
        lawful(cfg, Workload::random_4k(3, 400))
    };
    let off = run(None);
    assert_eq!(
        (off.events_processed, off.commands_sent),
        CRASH_PINS,
        "crash counts moved"
    );
    let mut on = run(Some(TelemetryConfig::default()));
    assert!(on.telemetry.is_some());
    on.telemetry = None;
    assert_eq!(on, off, "telemetry perturbed the crash run");
}

#[test]
fn telemetry_times_the_crash_dip_and_recovery() {
    // The observability acceptance rail: on the 3-initiator
    // crash-under-loss config the time series must *show* the crash —
    // healthy delivery before the fault, a dip to zero while the
    // cluster recovers, the watchdog flagging those windows as stalls
    // annotated with the recovery span, and delivery resuming after.
    let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
    cfg.net = FabricConfig::lossy(1e-3, 2);
    cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
    cfg.telemetry = Some(TelemetryConfig::default());
    let m = lawful(cfg, Workload::random_4k(3, 400));
    let t = m.telemetry.as_ref().expect("telemetry enabled");

    assert_eq!(t.recovery_spans.len(), 1, "one crash, one recovery span");
    let span = &t.recovery_spans[0];
    assert_eq!(span.fault, 0);

    // Throughput before the crash: some pre-fault bucket delivers.
    let bucket_ns = t.bucket.as_nanos();
    let pre_crash_peak = t
        .buckets
        .iter()
        .enumerate()
        .filter(|(i, _)| t.bucket_start(*i).as_nanos() + bucket_ns <= span.from.as_nanos())
        .map(|(_, b)| b.delivered_groups)
        .max()
        .expect("buckets before the crash");
    assert!(pre_crash_peak > 0, "no delivery before the crash");

    // The dip: every bucket fully inside the recovery span delivers
    // nothing (redelivery happens at the resume instant, outside).
    let inside: Vec<_> = t
        .buckets
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let start = t.bucket_start(*i).as_nanos();
            start >= span.from.as_nanos() && start + bucket_ns <= span.to.as_nanos()
        })
        .collect();
    assert!(!inside.is_empty(), "recovery span shorter than a bucket");
    assert!(
        inside.iter().all(|(_, b)| b.delivered_groups == 0),
        "delivery during the outage"
    );

    // The watchdog marks the outage and attributes it to the recovery.
    assert!(
        t.stalls.iter().any(|s| s.recovery == Some(0)),
        "no stall window annotated with the recovery span: {:?}",
        t.stalls
    );

    // And the run comes back: a bucket ending after the resume instant
    // delivers again.
    let resumed = t
        .buckets
        .iter()
        .enumerate()
        .filter(|(i, _)| t.bucket_start(*i).as_nanos() + bucket_ns > span.to.as_nanos())
        .any(|(_, b)| b.delivered_groups > 0);
    assert!(resumed, "delivery never resumed after recovery");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Telemetry conservation: whatever the mode, fabric loss, or a
    /// mid-run crash (crash only under Rio — fault injection requires
    /// a Rio mode), the per-bucket delivered series sums exactly to
    /// the run's delivered totals. Nothing is double-counted across
    /// crash, redelivery, and requeue.
    #[test]
    fn prop_telemetry_conserves_delivered_totals(
        mode_idx in 0usize..4,
        loss_idx in 0usize..3,
        crash in proptest::prelude::any::<bool>(),
        seed in 1u64..500,
    ) {
        let modes = [
            OrderingMode::Orderless,
            OrderingMode::LinuxNvmf,
            OrderingMode::Horae,
            OrderingMode::Rio { merge: true },
        ];
        let losses = [0.0f64, 1e-3, 0.05];
        let mode = modes[mode_idx];
        let groups = if mode == OrderingMode::LinuxNvmf { 40 } else { 200 };
        let mut cfg = small(mode, 3);
        cfg.seed = seed;
        if losses[loss_idx] > 0.0 {
            cfg.net = FabricConfig::lossy(losses[loss_idx], 2);
        }
        if crash && matches!(mode, OrderingMode::Rio { .. }) {
            cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(300_000), vec![0]);
        }
        cfg.telemetry = Some(TelemetryConfig::default());
        let m = lawful(cfg, Workload::random_4k(3, groups));
        proptest::prop_assert!(m.telemetry.is_some());
    }
}

#[test]
fn crash_recovery_restores_a_prefix_on_every_stream() {
    let mut cfg = ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 6);
    cfg.cores = 8;
    cfg.faults = FaultPlan::crash_all_at(SimTime::from_nanos(2_500_000));
    let m = lawful(cfg, Workload::random_4k(6, 1_000_000));
    let report = &m.recoveries[0];
    assert!(report.records_scanned > 0);
    assert_eq!(report.plan.streams.len(), 6);
    // Discards only ever target blocks beyond the valid prefix — the
    // plan itself encodes that, but spot-check shape here.
    for sp in &report.plan.streams {
        assert!(sp.discard.iter().all(|d| d.range.blocks > 0));
    }
}

#[test]
fn riofs_full_crash_sweep_with_applications() {
    // Varmail + MiniKV over RioFS on an ordered device; crash at a
    // sample of prefixes; recovery must always produce a consistent FS.
    let mut fs = RioFs::mkfs(OrderedDev::new(16 * 1024), 4);
    let mut vm = Varmail::new(5, 8, 0);
    for _ in 0..150 {
        vm.step(&mut fs).expect("varmail");
    }
    let mut kv = MiniKv::open(&mut fs, 1, 8 * 1024);
    for i in 0..50u32 {
        kv.put(&mut fs, format!("k{i}").as_bytes(), &[i as u8; 256])
            .expect("put");
    }
    let dev = fs.into_device();
    let groups = dev.groups();
    assert!(groups > 100, "expected plenty of ordered groups");
    // Sweep a sample of crash points (every 7th, plus the edges).
    let mut points: Vec<u64> = (0..=groups).step_by(7).collect();
    points.push(groups);
    for keep in points {
        let img = dev.crash_image(keep);
        let recovered = RioFs::mount(img).expect("mount crash image");
        let problems = recovered.fsck();
        assert!(
            problems.is_empty(),
            "fsck at prefix {keep}/{groups}: {problems:?}"
        );
    }
    // The settled image retains every fsync'ed KV record.
    let settled = RioFs::mount(dev.crash_image(groups)).expect("settled");
    assert!(settled.stat("kv.wal.0").unwrap_or(0) > 0);
}

#[test]
fn fsync_semantics_hold_across_all_engines() {
    for mode in [
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
        OrderingMode::Horae,
        OrderingMode::LinuxNvmf,
    ] {
        let m = lawful(small(mode, 2), Workload::fsync_append(2, 50));
        assert_eq!(m.ops_done, 100, "{}", mode.label());
        assert!(m.op_latency.mean().as_micros_f64() > 1.0);
        assert!(
            m.op_latency.quantile(0.99) >= m.op_latency.quantile(0.5),
            "tail sanity"
        );
    }
}

/// FNV-1a over the `Debug` rendering of the whole `RunMetrics`: every
/// counter, histogram bucket, float and trace record of a run folded
/// into one literal.
fn fingerprint(m: &rio::stack::RunMetrics) -> u64 {
    format!("{m:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn run_metrics_fingerprints_are_pinned_across_commits() {
    // The snapshot rails above compare two runs of the *same* binary, so
    // a refactor that changes behaviour deterministically passes them.
    // These literals were captured from the commit before the
    // `cluster.rs` consolidation (PR 13) and pin the full `RunMetrics`
    // of every snapshot configuration across commits: a mismatch means
    // simulated behaviour changed, not just code shape. Re-capture them
    // (the failure message prints the new table) only in a PR that
    // changes behaviour on purpose. `RIO fsync` and `nic reset during
    // fsync` were re-captured when the op clock stopped treating a
    // start at t = 0 as "unset" (a thread's first op was measured from
    // its JM group); no other literal moved. The seven telemetry-on
    // runs over a lossy fabric (the four `lossy sampled`, `crash under
    // loss sampled`, `3 initiators crash traced + sampled`, `weighted
    // tenants, …`) were re-captured when pull retransmits stopped being
    // charged to the target NIC's series; no other literal moved. The
    // three `HORAE lossy` runs were re-captured when Horae's control
    // messages moved onto the event-driven command legs (their
    // retransmissions now run in event order); no other literal moved.
    // The nine runs with a recovering fault (the five `crash` rows,
    // `integrity torn write + rot`, `one-shot crash`, `nic reset during
    // fsync` and `weighted tenants, …`) were re-captured when recovery's
    // scans, records and discards moved onto the same legs; no
    // fault-free literal moved. The five `HORAE` rows were re-captured
    // when a thread blocked on its control ack stopped taking data
    // completions' wakes and its blocking wait was charged once per
    // control message; no other literal moved.
    // A failure lists every moved row as `name: old → new`.
    const MODES: [OrderingMode; 4] = [
        OrderingMode::Orderless,
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ];
    let groups = |mode| if mode == OrderingMode::LinuxNvmf { 60 } else { 400 };
    let lossy = |mode| {
        let mut cfg = small(mode, 3);
        cfg.net = FabricConfig::lossy(0.05, 2);
        cfg.net.migrate_every = 32;
        cfg
    };
    let crash = crash_under_loss;
    let multi = || {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
        cfg.net = FabricConfig::lossy(1e-3, 2);
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
        cfg
    };
    let traced = |mut cfg: ClusterConfig| {
        cfg.trace = Some(TraceConfig { ring: 1 << 16 });
        cfg
    };
    let sampled = |mut cfg: ClusterConfig| {
        cfg.telemetry = Some(TelemetryConfig::default());
        cfg
    };

    let mut runs: Vec<(String, ClusterConfig, Workload)> = Vec::new();
    for mode in MODES {
        let (l, wl) = (mode.label(), Workload::random_4k(3, groups(mode)));
        runs.push((format!("{l} clean"), small(mode, 3), wl.clone()));
        runs.push((format!("{l} lossy"), lossy(mode), wl.clone()));
        runs.push((format!("{l} lossy traced"), traced(lossy(mode)), wl.clone()));
        runs.push((format!("{l} lossy sampled"), sampled(lossy(mode)), wl));
        runs.push((
            format!("{l} fsync"),
            small(mode, 2),
            Workload::fsync_append(2, 50),
        ));
    }
    let wl = Workload::random_4k(3, 400);
    runs.push(("crash under loss".into(), crash(), wl.clone()));
    runs.push(("crash under loss traced".into(), traced(crash()), wl.clone()));
    runs.push(("crash under loss sampled".into(), sampled(crash()), wl.clone()));
    runs.push(("3 initiators crash under loss".into(), multi(), wl.clone()));
    runs.push(("3 initiators crash traced + sampled".into(), traced(sampled(multi())), wl.clone()));
    // Integrity on volatile-cache drives: a power cut that tears the
    // in-flight write, scrubbed and repaired, then bit rot at rest.
    let mut torn = crash();
    torn.integrity = true;
    torn.faults = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_nanos(400_000),
                kind: FaultKind::TornWrite { targets: vec![1] },
                resume: true,
            },
            FaultEvent {
                at: SimTime::from_nanos(55_600_000),
                kind: FaultKind::BitRot { targets: Vec::new(), flips: 3 },
                resume: true,
            },
        ],
    };
    runs.push(("integrity torn write + rot".into(), torn, wl.clone()));
    // Paths the configurations above leave cold: cross-group merging,
    // the one-shot (non-resuming) crash, a NIC flap, the scatter-QP
    // gate, and weighted multi-tenant DRR over a corrupting fabric.
    runs.push((
        "seq merge".into(),
        small(OrderingMode::Rio { merge: true }, 2),
        Workload::seq_batched(2, 512, 16, 1),
    ));
    runs.push((
        "journal triplet unmerged".into(),
        small(OrderingMode::Rio { merge: false }, 2),
        Workload::journal_triplet(2, 100),
    ));
    let mut oneshot = crash();
    oneshot.faults = FaultPlan::crash_all_at(SimTime::from_nanos(400_000));
    runs.push(("one-shot crash".into(), oneshot, wl.clone()));
    let mut flap = crash();
    flap.faults = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_nanos(300_000),
            kind: FaultKind::NicReset { target: 0 },
            resume: true,
        }],
    };
    runs.push(("nic reset during fsync".into(), flap, Workload::fsync_append(3, 60)));
    let mut scatter = small(OrderingMode::Rio { merge: true }, 3);
    scatter.pin_stream_to_qp = false;
    scatter.initiators[0].streams = 5;
    runs.push(("scatter qp, spare streams".into(), scatter, wl));
    let mut tenants = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 2, 1);
    tenants.initiators[0] = tenants.initiators[0].clone().with_weight(4);
    tenants.net = FabricConfig::lossy(1e-2, 4);
    tenants.net.corrupt_rate = 1e-3;
    tenants.faults = FaultPlan {
        events: vec![FaultEvent {
            at: SimTime::from_nanos(500_000),
            kind: FaultKind::TornWrite { targets: Vec::new() },
            resume: true,
        }],
    };
    runs.push((
        "weighted tenants, corrupting fabric, torn write".into(),
        sampled(tenants),
        Workload::random_4k(4, 300),
    ));

    let expected: [u64; 32] = [
        0xa1288f017cbb373f, // orderless clean
        0x1afec728a749ada3, // orderless lossy
        0x6a9056285dd971bf, // orderless lossy traced
        0x6b4894402c864c5d, // orderless lossy sampled
        0x7e5949745ccd1b9f, // orderless fsync
        0x92fbbb0a4b6f388d, // Linux clean
        0xd2f25ad7a651ea0c, // Linux lossy
        0xee03b9cee7d9baa8, // Linux lossy traced
        0xd753baceadc35691, // Linux lossy sampled
        0xcc4f54287cd8bb37, // Linux fsync
        0xc4171e91724b47b7, // HORAE clean
        0x6b11090bc2b95717, // HORAE lossy
        0x58855ef8c6ead299, // HORAE lossy traced
        0x48218fa436b12a74, // HORAE lossy sampled
        0xbcc727801fed9cc2, // HORAE fsync
        0x36b0fe3ad2339284, // RIO clean
        0xb96d2f3b160b38a2, // RIO lossy
        0x0a3fa64482cc5ea2, // RIO lossy traced
        0xb7cdadb4325ab472, // RIO lossy sampled
        0x7a337e6d54a1e587, // RIO fsync
        0xaf56a55c43d32c13, // crash under loss
        0xbd23631ad34f8a84, // crash under loss traced
        0x3a0c181ed4f79df1, // crash under loss sampled
        0x6ce843507cbe242e, // 3 initiators crash under loss
        0x3835a04cd7e5b268, // 3 initiators crash traced + sampled
        0x9c965e8c8172e463, // integrity torn write + rot
        0x6130bdd8ceddd3e5, // seq merge
        0xeb1311814aeca5c5, // journal triplet unmerged
        0x02654fc699b4ad63, // one-shot crash
        0xeb69c92aa3e7d51d, // nic reset during fsync
        0xee4558d483ecda90, // scatter qp, spare streams
        0x6ad48c8bfedc27c9, // weighted tenants, corrupting fabric, torn write
    ];
    assert_eq!(runs.len(), expected.len(), "one literal per configuration");
    let got: Vec<(String, u64)> = runs
        .into_iter()
        .map(|(name, cfg, wl)| (name, fingerprint(&lawful(cfg, wl))))
        .collect();
    let moved: String = got
        .iter()
        .zip(expected)
        .filter(|((_, fp), want)| fp != want)
        .map(|((name, fp), want)| format!("    {name}: {want:#018x} → {fp:#018x}\n"))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, fp)| format!("        {fp:#018x}, // {name}\n"))
        .collect();
    assert!(
        moved.is_empty(),
        "these configurations changed behaviour:\n{moved}actual table:\n{table}"
    );
}
