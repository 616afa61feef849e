//! Figure 11: performance with varying write sizes (4–64 KB).
//!
//! One thread, 4 SSDs over 2 targets, random and sequential ordered
//! writes. Paper: Rio beats Linux by up to two orders of magnitude and
//! Horae by up to 6.1x; asynchronous execution matters even for large
//! writes (at 64 KB Horae still reaches only half of Rio).

use rio_bench::experiment::sweep;
use rio_bench::{all_modes, by_label, gbps, groups_for};
use rio_stack::workload::Pattern;
use rio_stack::{ClusterConfig, Workload};

fn series(random: bool, label: &str) {
    sweep(
        &format!("Figure 11({label}): 1 thread, 4 SSDs — GB/s"),
        "mode \\ KB",
        &[4u32, 8, 16, 32, 64],
        by_label(all_modes()),
        &[("{}", |m| gbps(m.bandwidth()))],
        |&mode, &kb| {
            let blocks = kb / 4;
            let groups_per_thread = groups_for(mode, 500, (200_000 / kb as u64).max(2_000));
            let pattern = if random {
                Pattern::RandomWrite { blocks }
            } else {
                Pattern::SeqWrite { blocks }
            };
            let wl = Workload {
                threads: 1,
                groups_per_thread,
                pattern,
                batch: 1,
            };
            (ClusterConfig::four_ssd_two_targets(mode, 1), wl)
        },
    );
}

fn main() {
    println!("Reproduction of paper Figure 11 (varying write sizes).");
    println!("Paper: asynchronous execution is vital even for 64 KB writes;");
    println!("Horae reaches only half of Rio at 64 KB.");
    series(true, "a: random write");
    series(false, "b: sequential write");
}
