//! Cluster behaviour pinned through the public API only
//! (`lawful(..)` and the `RunMetrics` it returns).

use rio_sim::{SimDuration, SimTime};
use rio_ssd::SsdProfile;
use rio_stack::laws::check_laws;
use rio_stack::{
    Cluster, ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode,
    RunMetrics, Workload,
};

/// Runs `wl` on `cfg` and holds the run to every law.
fn lawful(cfg: ClusterConfig, wl: Workload) -> RunMetrics {
    let m = Cluster::new(cfg, wl).run();
    check_laws(&m).unwrap_or_else(|broken| panic!("{broken}"));
    m
}

fn rio_cfg(threads: usize) -> ClusterConfig {
    ClusterConfig::single_ssd(OrderingMode::Rio { merge: true }, SsdProfile::optane905p(), threads)
}

/// A zero window admits nothing: the run would "complete" with no
/// group delivered and an empty span, so construction refuses it.
#[test]
#[should_panic(expected = "non-zero in-flight window")]
fn a_zero_inflight_window_is_rejected_at_construction() {
    let mut cfg = rio_cfg(2);
    cfg.max_inflight_per_stream = 0;
    let _ = Cluster::new(cfg, Workload::random_4k(2, 10));
}

/// A thread's first fsync op submits its D group at t = 0, and the op
/// is measured from there — not from the JM group a microsecond later,
/// which is where a clock that reads "started at 0" as "not started"
/// restarts it.
#[test]
fn the_first_fsync_op_is_measured_from_its_data_submission() {
    let m = lawful(rio_cfg(1), Workload::fsync_append(1, 1));
    assert_eq!((m.ops_done, m.op_latency.count()), (1, 1));
    // One thread, one op: the op spans the whole run.
    assert_eq!(m.op_latency.max(), m.span);
}

/// A recovery discard that cuts through a write still sitting in a
/// volatile cache must take the write's seal with it: the block later
/// lands as zeroes, and a scrub that still held the discarded data's
/// CRC would report corruption nobody injected. A NIC flap rolls back
/// 60 cached blocks; the zero-flip `BitRot` that follows is a pure
/// scrub of what landed since.
#[test]
fn a_rollback_through_cached_sealed_writes_scrubs_clean() {
    let rio = OrderingMode::Rio { merge: true };
    let mut cfg = ClusterConfig::single_ssd(rio, SsdProfile::pm981(), 2);
    cfg.integrity = true;
    let fault = |us: u64, kind| FaultEvent {
        at: SimTime::from_nanos(us * 1_000),
        kind,
        resume: true,
    };
    cfg.faults = FaultPlan {
        events: vec![
            fault(300, FaultKind::NicReset { target: 0 }),
            fault(700, FaultKind::BitRot { targets: Vec::new(), flips: 0 }),
        ],
    };
    let m = lawful(cfg, Workload::random_4k(2, 400));
    assert_eq!(m.groups_done, 800, "both faults resume: exactly once");
    let i = &m.integrity;
    assert_eq!(i.wire_injected + i.torn_injected + i.rot_injected, 0);
    assert_eq!((i.media_detected, i.media_unrepairable), (0, 0));
    assert_eq!(m.recoveries[0].discards, 60);
    assert_eq!(m.recoveries[1].discards, 60, "no phantom corruption to purge");
}

/// A fault scheduled inside an earlier fault's recovery fires at that
/// recovery's end, whether or not the run resumes after it (and the
/// run laws check that recoveries never overlap and no epoch runs
/// backward).
#[test]
fn a_fault_inside_a_recovery_waits_for_it() {
    let us = |us: u64| SimTime::from_nanos(us * 1_000);
    for resume in [true, false] {
        let mut cfg = rio_cfg(2);
        let all = FaultKind::PowerFail { targets: Vec::new() };
        cfg.faults = FaultPlan {
            events: vec![
                FaultEvent { at: us(200), kind: all, resume },
                FaultEvent { at: us(300), kind: FaultKind::NicReset { target: 0 }, resume: true },
            ],
        };
        let m = lawful(cfg, Workload::random_4k(2, 2_000));
        let r = &m.recoveries;
        assert_eq!(r.len(), 2, "resume {resume}");
        let inside = r[0].resumed_at > us(300);
        assert!(inside, "resume {resume}: the second fault is not inside the first recovery");
        assert_eq!(r[1].crashed_at, r[0].resumed_at, "resume {resume}");
    }
}

/// A resuming recovery gives every target a fresh gate, and the run's
/// `gate_buffered` still counts the out-of-order arrivals of both
/// epochs: like every run total, it is the sum of the initiator rows
/// (a run law).
#[test]
fn gate_buffered_counts_arrivals_from_before_a_recovery() {
    let mut cfg = ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 8);
    cfg.net = FabricConfig::lossy(1e-2, 4);
    cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(2_000_000), vec![0]);
    let m = lawful(cfg, Workload::random_4k(8, 3_000));
    assert_eq!(m.recoveries.len(), 1);
    assert!(m.gate_buffered > 0, "the lossy fabric reordered nothing");
}

/// Recovery is traffic. Crashing an idle cluster after its last
/// completion makes every packet after the fault a recovery packet:
/// they show in the fabric counters, and a lossy fabric drops and
/// resends them like any others, so the order rebuild takes longer.
#[test]
fn recovery_traffic_rides_the_wire() {
    let run = |loss: f64, crash_after: Option<SimTime>| {
        let mut cfg = rio_cfg(2);
        cfg.net = FabricConfig::lossy(loss, 1);
        if let Some(done) = crash_after {
            cfg.faults = FaultPlan::crash_all_at(done + SimDuration::from_nanos(100_000));
        }
        lawful(cfg, Workload::random_4k(2, 200))
    };
    let (clean, lossy) = (run(0.0, None), run(1e-2, None));
    let crash = run(0.0, Some(clean.finished_at));
    let lossy_crash = run(1e-2, Some(lossy.finished_at));
    assert!(crash.net.packets > clean.net.packets, "recovery sent no packet");
    let rebuild = |m: &RunMetrics| m.recoveries[0].order_rebuild;
    assert!(rebuild(&lossy_crash) > rebuild(&crash), "loss cost recovery nothing");
    assert!(lossy_crash.net.retransmits > lossy.net.retransmits, "no recovery packet resent");
}

/// The fabric profile's path is the wire's timing however many paths
/// `net` splits it into: a slower path 0 slows the run on one path and
/// on two.
#[test]
fn the_profile_path_times_the_wire_on_one_path_and_on_two() {
    let p50_us = |paths: usize, one_way_us: Option<f64>| {
        let mut cfg = ClusterConfig::four_ssd_two_targets(OrderingMode::Orderless, 4);
        cfg.net.paths = paths;
        if let Some(us) = one_way_us {
            cfg.fabric.paths[0].one_way_latency_us = us;
        }
        let m = lawful(cfg, Workload::random_4k(4, 500));
        m.group_latency.quantile(0.5).as_micros_f64()
    };
    for paths in [1, 2] {
        let (fast, slow) = (p50_us(paths, None), p50_us(paths, Some(20.0)));
        // Every crossing of the wire takes 18.2 µs longer.
        assert!(slow > fast + 10.0, "{paths} path(s): p50 {fast} -> {slow} us");
    }
}
