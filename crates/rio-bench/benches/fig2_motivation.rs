//! Figure 2: motivation — the cost of storage order on flash and
//! Optane SSDs.
//!
//! Workload (§3.1): each thread issues an ordered write of 2 contiguous
//! 4 KB blocks followed by a consecutive 4 KB ordered write (the
//! metadata-journaling pattern), to a private SSD area.
//!
//! Paper's shape: orderless saturates either SSD with one thread;
//! ordered Linux NVMe-oF is two orders of magnitude slower on flash
//! (FLUSH-bound) and far below orderless on Optane (synchronous
//! execution); Horae sits in between and needs many cores to approach
//! the device limit.

use rio_bench::experiment::sweep;
use rio_bench::{by_label, groups_for, kiops};
use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, OrderingMode, Workload};

fn series(ssd: fn() -> SsdProfile, label: &str) {
    let modes = vec![
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Orderless,
    ];
    sweep(
        &format!("Figure 2({label}) ordered-write throughput, KIOPS of 4 KB blocks"),
        "mode \\ threads",
        &[1usize, 4, 8, 12],
        by_label(modes),
        &[("{}", |m| kiops(m.block_iops()))],
        |&mode, &threads| {
            // Long enough that the sustained (post-cache-burst) rate
            // dominates; synchronous Linux needs far fewer.
            let triplets = groups_for(mode, 400, (24_000 / threads as u64).max(4_000));
            let cfg = ClusterConfig::single_ssd(mode, ssd(), threads);
            (cfg, Workload::journal_triplet(threads, triplets))
        },
    );
}

fn main() {
    println!("Reproduction of paper Figure 2 (motivation experiments).");
    println!("Paper: orderless saturates with 1 thread; Linux NVMe-oF is");
    println!("~100x slower on flash, and all ordered systems trail orderless.");
    series(SsdProfile::pm981, "a: Samsung PM981 flash");
    series(SsdProfile::optane905p, "b: Intel 905P Optane");
}
