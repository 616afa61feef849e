//! Quickstart: the Rio ordering pipeline end to end, in miniature.
//!
//! Builds a tiny cluster (one initiator, one Optane target), runs the
//! paper's journal-triplet workload under all four ordering engines,
//! and prints the throughput ladder the paper's Figure 2 motivates.
//!
//! Run with: `cargo run --release --example quickstart`

use rio::ssd::SsdProfile;
use rio::stack::{Cluster, ClusterConfig, OrderingMode, Workload};

fn main() {
    println!("Rio quickstart: ordered journal-triplet writes, 4 threads");
    println!("(an 8 KB journal record followed by a 4 KB commit, ordered)\n");
    let mut results = Vec::new();
    for mode in [
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
        OrderingMode::Orderless,
    ] {
        let triplets = if mode == OrderingMode::LinuxNvmf {
            300
        } else {
            6_000
        };
        let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 4);
        let wl = Workload::journal_triplet(4, triplets);
        let m = Cluster::new(cfg, wl).run();
        println!(
            "{:>14}: {:>8.1} K blocks/s, initiator CPU {:>5.2}%, {} NVMe-oF commands",
            mode.label(),
            m.block_iops() / 1e3,
            m.initiator_util * 100.0,
            m.commands_sent,
        );
        results.push((mode.label(), m.block_iops()));
    }
    let rio = results
        .iter()
        .find(|(l, _)| *l == "RIO")
        .expect("rio ran")
        .1;
    let linux = results
        .iter()
        .find(|(l, _)| *l == "Linux")
        .expect("linux ran")
        .1;
    println!(
        "\nRio preserves storage order at {:.0}x the throughput of ordered\nLinux NVMe-oF on this workload — the paper's headline result.",
        rio / linux
    );
}
