//! Stage-trace invariants: for every ordering engine, over lossless,
//! lossy and crash-injected fabrics, per-command traces must be
//! monotone, complete, exactly-once, and their retransmit annotations
//! must reconcile with the wire-level NIC counters.

use proptest::prelude::*;
use rio::sim::SimTime;
use rio::ssd::SsdProfile;
use rio::stack::trace::{Stage, STAGES};
use rio::stack::{
    Cluster, ClusterConfig, FabricConfig, FaultPlan, OrderingMode, RunMetrics, TraceConfig,
    Workload,
};

fn modes() -> [OrderingMode; 4] {
    [
        OrderingMode::Orderless,
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
    ]
}

/// A small traced cluster: single target unless `crash` (which needs
/// the two-target topology so one target can die), ring sized so no
/// record is ever evicted.
fn traced_cfg(mode: OrderingMode, threads: usize, loss: f64, paths: usize, crash: bool) -> ClusterConfig {
    let mut cfg = if crash {
        ClusterConfig::four_ssd_two_targets(mode, threads)
    } else {
        ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads)
    };
    cfg.cores = 8;
    cfg.max_inflight_per_stream = 16;
    if loss > 0.0 {
        cfg.net = FabricConfig::lossy(loss, paths);
        cfg.net.migrate_every = 32;
    }
    if crash {
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![1]);
    }
    cfg.trace = Some(TraceConfig { ring: 1 << 16 });
    cfg
}

/// The invariant pack every traced run must satisfy.
fn check_trace_invariants(mode: &OrderingMode, m: &RunMetrics) {
    let label = mode.label();
    let b = m.breakdown.as_ref().expect("tracing was enabled");
    assert_eq!(b.records_dropped, 0, "{label}: ring sized for the run");
    assert_eq!(
        b.records.len() as u64,
        b.completed + b.aborted,
        "{label}: every closed trace is in the ring"
    );
    assert!(b.completed > 0, "{label}: some commands completed");
    assert_eq!(
        b.completed + b.aborted,
        m.commands_sent,
        "{label}: every command opened exactly one trace and closed it"
    );

    let mut seen = std::collections::HashSet::new();
    for r in &b.records {
        // 1. Stage stamps are monotonically non-decreasing in stage
        //    order.
        let mut prev = None;
        for i in 0..STAGES {
            if let Some(t) = r.stages[i] {
                if let Some(p) = prev {
                    assert!(t >= p, "{label}: stage {i} of {r:?} goes backwards");
                }
                prev = Some(t);
            }
        }
        // 2. Completed commands carry the full chain (PMR persist is
        //    Rio-only); aborted ones died mid-chain with the crash
        //    annotated.
        match r.aborted_by {
            None => {
                assert!(r.chain_complete(), "{label}: incomplete chain in {r:?}");
                assert!(
                    r.stage(Stage::Delivered).unwrap() >= r.stage(Stage::Complete).unwrap(),
                    "{label}: delivery precedes completion"
                );
                assert_eq!(
                    r.stage(Stage::PmrPersist).is_some(),
                    r.ordered,
                    "{label}: PMR stage iff ordered"
                );
            }
            Some(fault) => {
                assert_eq!(fault, 0, "{label}: single-fault plans only");
                assert!(
                    r.stage(Stage::Delivered).is_none(),
                    "{label}: an aborted command must not reach delivery"
                );
            }
        }
        // 3. Exactly-once: no two live ordered traces in one epoch
        //    describe the same fragment. (Retransmits annotate the one
        //    trace; crash redispatch opens a new epoch.) Baseline
        //    commands carry no sequence range — distinct FLUSH legs
        //    would collide on the key — so for them exactly-once is
        //    pinned by the aggregate count check above instead.
        if r.ordered && r.aborted_by.is_none() {
            let key = (
                r.epoch, r.stream, r.seq_start, r.seq_end, r.server, r.ssd, r.lba, r.is_flush,
            );
            assert!(seen.insert(key), "{label}: duplicate trace for {key:?}");
        }
    }

    // 4. Retransmit annotations reconcile with the wire: every data,
    //    capsule and completion retransmission — Horae's control
    //    messages included — is annotated exactly once, so the
    //    aggregate equals the NIC counter.
    assert_eq!(
        b.retx_pkts, m.net.retransmits,
        "{label}: retx annotations must partition the wire count"
    );
    if m.recoveries.is_empty() {
        assert_eq!(
            b.retx_rounds, m.net.retx_rounds,
            "{label}: retx rounds must partition the wire rounds"
        );
    } else {
        // The wire counts a round at drop time; a crash can clear
        // the resend event before the trace annotates it.
        assert!(
            b.retx_rounds <= m.net.retx_rounds,
            "{label}: trace rounds {} beyond wire {}",
            b.retx_rounds,
            m.net.retx_rounds
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        ..ProptestConfig::default()
    })]

    /// Random engine x loss x paths x crash plan: the invariant pack
    /// holds for every completed run.
    #[test]
    fn prop_trace_stage_monotonic(
        mode_idx in 0usize..4,
        threads in 1usize..=3,
        loss_idx in 0usize..3,
        paths in 1usize..=2,
        crash in any::<bool>(),
        groups in 40u64..=120,
    ) {
        let mode = modes()[mode_idx].clone();
        let loss = [0.0, 1e-3, 0.02][loss_idx];
        // Fault plans require Rio (recovery needs persisted attributes).
        let crash = crash && matches!(mode, OrderingMode::Rio { .. });
        let groups = if mode == OrderingMode::LinuxNvmf { groups / 4 } else { groups };
        // A crash case needs enough work that the 400 us fault fires
        // mid-run with commands in flight; pin the known-good shape.
        let (threads, groups) = if crash { (3, 400) } else { (threads, groups) };
        let cfg = traced_cfg(mode.clone(), threads, loss, paths, crash);
        let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run();
        prop_assert_eq!(m.groups_done, threads as u64 * groups);
        check_trace_invariants(&mode, &m);
        if crash {
            prop_assert_eq!(m.recoveries.len(), 1);
            let b = m.breakdown.as_ref().unwrap();
            // The crash fired mid-run, so epoch-1 records exist.
            prop_assert!(b.records.iter().any(|r| r.epoch == 1));
        }
    }
}

#[test]
fn traced_crash_run_aborts_inflight_and_survives() {
    let cfg = traced_cfg(OrderingMode::Rio { merge: true }, 3, 1e-3, 2, true);
    let m = Cluster::new(cfg, Workload::random_4k(3, 400)).run();
    assert_eq!(m.groups_done, 1_200, "crash loses no groups");
    check_trace_invariants(&OrderingMode::Rio { merge: true }, &m);
    let b = m.breakdown.as_ref().unwrap();
    assert!(b.aborted > 0, "a mid-run crash strands in-flight commands");
    assert!(
        b.records.iter().any(|r| r.aborted_by == Some(0)),
        "aborted records name the fault"
    );
}

#[test]
fn traced_lossy_run_annotates_retransmits_on_the_right_commands() {
    let cfg = traced_cfg(OrderingMode::Rio { merge: true }, 3, 0.05, 2, false);
    let m = Cluster::new(cfg, Workload::random_4k(3, 400)).run();
    check_trace_invariants(&OrderingMode::Rio { merge: true }, &m);
    let b = m.breakdown.as_ref().unwrap();
    assert!(b.retx_pkts > 0, "5% loss must retransmit");
    let annotated: u64 = b
        .records
        .iter()
        .map(|r| u64::from(r.retx_pkts))
        .sum();
    assert_eq!(annotated, b.retx_pkts, "aggregate equals per-record sum");
    assert!(
        b.records.iter().any(|r| r.retx_pkts == 0),
        "not every command is punished for loss"
    );
}

#[test]
fn breakdown_quantiles_cover_every_stage_for_rio() {
    let cfg = traced_cfg(OrderingMode::Rio { merge: true }, 3, 0.0, 1, false);
    let m = Cluster::new(cfg, Workload::random_4k(3, 400)).run();
    let b = m.breakdown.as_ref().unwrap();
    for (seg, label) in rio::stack::LatencyBreakdown::SEGMENT_LABELS.iter().enumerate() {
        assert!(
            b.stages[seg].count() > 0,
            "Rio must exercise segment {label}"
        );
        let (p50, p99, p999) = b.segment_quantiles(seg);
        assert!(p50 <= p99 && p99 <= p999, "{label}: quantile order");
    }
    let (p50, p99, _) = b.total_quantiles();
    assert!(p50 <= p99);
    assert!(p50 >= b.stages[0].quantile(0.5), "total covers the chain");
}
