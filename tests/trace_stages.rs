//! Stage traces: for every ordering engine, over lossless, lossy and
//! crash-injected fabrics, each traced run keeps every run law (its
//! per-command traces monotone, complete and exactly-once, and their
//! retransmit annotations reconciled with the NIC counters).

use proptest::prelude::*;
use rio::sim::SimTime;
use rio::ssd::SsdProfile;
use rio::stack::laws::check_laws;
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

/// Runs `threads` × `groups` random 4 KB writes on `cfg`, holds the run
/// to every law (`rio::stack::laws`: one trace per command, ring plus
/// evictions, retransmit annotations, whole records, one live trace
/// per ordered fragment) and checks what this file's configs add: a
/// ring sized for the run, single-fault plans and some completion.
fn run_traced(cfg: ClusterConfig, threads: usize, groups: u64) -> RunMetrics {
    let label = cfg.mode.label();
    let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run();
    check_laws(&m).unwrap_or_else(|broken| panic!("{label}: {broken}"));
    let b = m.breakdown.as_ref().expect("tracing was enabled");
    assert_eq!(b.records_dropped, 0, "{label}: ring sized for the run");
    assert!(b.completed > 0, "{label}: some commands completed");
    assert!(b.records.iter().all(|r| r.aborted_by.unwrap_or(0) == 0), "{label}: single-fault plans only");
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

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
        let mode = modes()[mode_idx];
        let loss = [0.0, 1e-3, 0.02][loss_idx];
        // Fault plans require Rio (recovery needs persisted attributes).
        let crash = crash && matches!(mode, OrderingMode::Rio { .. });
        let groups = if mode == OrderingMode::LinuxNvmf { groups / 4 } else { groups };
        // A crash case needs enough work that the 400 us fault fires
        // mid-run with commands in flight; pin the known-good shape.
        let (threads, groups) = if crash { (3, 400) } else { (threads, groups) };
        let m = run_traced(traced_cfg(mode, threads, loss, paths, crash), threads, groups);
        prop_assert_eq!(m.groups_done, threads as u64 * groups);
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
    let m = run_traced(cfg, 3, 400);
    assert_eq!(m.groups_done, 1_200, "crash loses no groups");
    let b = m.breakdown.as_ref().unwrap();
    assert!(b.aborted > 0, "a mid-run crash strands in-flight commands");
    assert!(
        b.records.iter().any(|r| r.aborted_by == Some(0)),
        "aborted records name the fault"
    );
}

#[test]
fn traced_lossy_run_annotates_retransmits_on_the_right_commands() {
    let m = run_traced(traced_cfg(OrderingMode::Rio { merge: true }, 3, 0.05, 2, false), 3, 400);
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
    let m = run_traced(traced_cfg(OrderingMode::Rio { merge: true }, 3, 0.0, 1, false), 3, 400);
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
