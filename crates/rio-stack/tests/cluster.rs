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
