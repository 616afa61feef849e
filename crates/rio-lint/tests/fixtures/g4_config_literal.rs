//! G4 fixture: a `ClusterConfig` literal that spells out every field.

use rio::stack::{ClusterConfig, FaultPlan, OrderingMode};

#[test]
fn spelled_out() {
    let base = ClusterConfig::single_ssd(OrderingMode::Rio, 4);
    let cfg = ClusterConfig {
        seed: 7,
        mode: OrderingMode::Rio,
        targets: base.targets.clone(),
        fabric: base.fabric.clone(),
        net: base.net.clone(),
        initiators: base.initiators.clone(),
        cores: 1,
        max_inflight_per_stream: 32,
        plug_merge: true,
        pin_stream_to_qp: true,
        integrity: false,
        faults: FaultPlan::default(),
        trace: None,
        telemetry: None,
    };
    // pin_stream_to_qp: in a comment, and in a string, stays silent.
    let _ = (cfg, "pin_stream_to_qp: true");
}
