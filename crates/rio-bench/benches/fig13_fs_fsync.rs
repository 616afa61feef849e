//! Figure 13: file system performance (fsync latency vs throughput).
//!
//! Up to 16 threads each append 4 KB to a private file and fsync,
//! always triggering metadata journaling, on a remote Optane 905P.
//! Ext4 maps to the synchronous Linux engine, HoraeFS to the Horae
//! engine, RioFS to Rio.
//!
//! Paper: RioFS lifts throughput 3.0x / 1.2x over Ext4 / HoraeFS,
//! cuts average latency 67% / 18%, and p99 by 50% / 20%.

use rio_bench::experiment::sweep;
use rio_bench::trace_export::traced_cell;
use rio_bench::{fs_modes, groups_for, kiops, us};
use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, OrderingMode, Workload};

fn main() {
    let riofs = ClusterConfig::single_ssd(
        OrderingMode::Rio { merge: true },
        SsdProfile::optane905p(),
        4,
    );
    if traced_cell("fig13 RIOFS t=4", riofs, Workload::fsync_append(4, 500)) {
        return;
    }
    println!("Reproduction of paper Figure 13 (file system fsync).");
    println!("Paper: RioFS saturates the Optane SSD with fewer cores, with");
    println!("3.0x/1.2x the throughput of Ext4/HoraeFS and lower tails.");
    sweep(
        "Figure 13: fsync throughput (K ops/s), avg and p99 latency (us)",
        "series \\ thr",
        &[1usize, 2, 4, 8, 12, 16],
        fs_modes(),
        &[
            ("{} kops", |m| kiops(m.op_iops())),
            ("{} avg", |m| us(m.op_latency.mean().as_micros_f64())),
            ("{} p99", |m| {
                us(m.op_latency.quantile(0.99).as_micros_f64())
            }),
        ],
        |&mode, &threads| {
            let ops = groups_for(mode, 500, 2_000);
            let cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), threads);
            (cfg, Workload::fsync_append(threads, ops))
        },
    );
}
