//! Cluster behaviour pinned through the public API only
//! (`Cluster::new(..).run()` and the `RunMetrics` it returns).

use rio_ssd::SsdProfile;
use rio_stack::{Cluster, ClusterConfig, OrderingMode, Workload};

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
    let m = Cluster::new(rio_cfg(1), Workload::fsync_append(1, 1)).run();
    assert_eq!((m.ops_done, m.op_latency.count()), (1, 1));
    // One thread, one op: the op spans the whole run.
    assert_eq!(m.op_latency.max(), m.span);
}
