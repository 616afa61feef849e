//! Figure 15: application performance — Filebench Varmail and RocksDB
//! `fillsync`.
//!
//! Varmail is metadata- and fsync-intensive (creates/appends/unlinks
//! with fsync); `fillsync` is a random-write-dominant key-value load
//! (16 B keys, 1 KB values, WAL append + fsync per put) that also burns
//! application CPU on in-memory indexing.
//!
//! Paper: RioFS raises Varmail throughput 2.3x/1.3x and RocksDB
//! fillsync 1.9x/1.5x over Ext4/HoraeFS on average.

use rio_bench::experiment::sweep;
use rio_bench::{fs_modes, groups_for, kiops};
use rio_ssd::SsdProfile;
use rio_stack::workload::Pattern;
use rio_stack::{ClusterConfig, RunMetrics, Workload};

fn series(name: &str, pattern: Pattern, threads_axis: &[usize]) {
    let fig = sweep(
        &format!("Figure 15 {name}: throughput (K ops/s)"),
        "series \\ thr",
        threads_axis,
        fs_modes(),
        &[("{}", |m| kiops(m.op_iops()))],
        |&mode, &threads| {
            let groups_per_thread = groups_for(mode, 400, 1_500);
            let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
            let wl = Workload {
                threads,
                groups_per_thread,
                pattern,
                batch: 3,
            };
            (cfg, wl)
        },
    );
    fig.print_avg("RIOFS", "Ext4", RunMetrics::op_iops, false);
    fig.print_avg("RIOFS", "HORAEFS", RunMetrics::op_iops, false);
}

fn main() {
    println!("Reproduction of paper Figure 15 (application performance).");
    println!("Paper: Varmail 2.3x/1.3x and RocksDB fillsync 1.9x/1.5x over");
    println!("Ext4/HoraeFS on average.");
    // Varmail: mail files of 1–4 blocks, ~40% metadata-only ops
    // (create/unlink + fsync), little application CPU.
    let varmail = Pattern::FsyncJournal {
        data_blocks: (1, 4),
        meta_blocks: 2,
        meta_only_permille: 400,
        app_cpu_ns: 1_500,
    };
    series("(a) Varmail", varmail, &[1, 4, 8, 16, 24, 32, 40]);
    // RocksDB fillsync: 1 KB values -> 1-block WAL appends, metadata
    // journaling per fsync, plus memtable/index CPU per put.
    let fillsync = Pattern::FsyncJournal {
        data_blocks: (1, 1),
        meta_blocks: 2,
        meta_only_permille: 0,
        app_cpu_ns: 9_000,
    };
    series("(b) RocksDB fillsync", fillsync, &[1, 4, 8, 16, 24, 36]);
}
