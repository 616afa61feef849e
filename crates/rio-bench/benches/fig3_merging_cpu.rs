//! Figure 3: motivation for merging consecutive data blocks.
//!
//! Orderless NVMe over RDMA, one thread, sequential 4 KB writes; the
//! X axis is the number of blocks that can potentially merge (the plug
//! batch size). The paper reports initiator and target CPU utilisation
//! with and without merging: merging substantially reduces both.

use rio_bench::experiment::sweep;
use rio_bench::pct;
use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, OrderingMode, Workload};

fn series(ssd: fn() -> SsdProfile, label: &str) {
    sweep(
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

fn main() {
    println!("Reproduction of paper Figure 3 (merging cuts CPU overhead).");
    println!("Paper: merging reduces initiator and target CPU at every batch");
    println!("size; the gap widens as the batch grows.");
    series(SsdProfile::pm981, "a: flash");
    series(SsdProfile::optane905p, "b: Optane");
}
