//! Scaling ordered writes across multiple target servers (Fig. 10d).
//!
//! Rio's per-server ordering lists mean targets never coordinate on the
//! data path; this example shows ordered throughput scaling from one
//! SSD to four SSDs across two servers, while Linux NVMe-oF stays flat.
//!
//! Run with: `cargo run --release --example multi_target_scaling`

use rio::ssd::SsdProfile;
use rio::stack::{Cluster, ClusterConfig, OrderingMode, Workload};

fn main() {
    println!("Ordered 4 KB random writes, 8 threads, scaling the cluster:\n");
    for (label, mk) in [
        (
            "1 SSD / 1 target ",
            Box::new(|mode: OrderingMode| {
                ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 8)
            }) as Box<dyn Fn(OrderingMode) -> ClusterConfig>,
        ),
        (
            "4 SSDs / 2 targets",
            Box::new(|mode: OrderingMode| ClusterConfig::four_ssd_two_targets(mode, 8)),
        ),
    ] {
        for mode in [OrderingMode::LinuxNvmf, OrderingMode::Rio { merge: true }] {
            let groups = if mode == OrderingMode::LinuxNvmf {
                400
            } else {
                20_000
            };
            let m = Cluster::new(mk(mode), Workload::random_4k(8, groups)).run();
            println!(
                "  {label} {:>14}: {:>8.1} K blocks/s",
                mode.label(),
                m.block_iops() / 1e3
            );
        }
    }
    println!("\nRio scales with the hardware because ordering is reconstructed");
    println!("from per-server lists — no cross-server coordination (§4.3.1).");
}
