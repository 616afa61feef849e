//! Figure 13 (file system fsync): prints
//! [`rio_bench::fig::fig13_fs_fsync`], or with `--trace-out <path>`
//! writes a Chrome trace of one cell instead.

use rio_bench::fig::fig13_fs_fsync;
use rio_bench::sweep::Recorder;
use rio_bench::trace_export::traced_cell;
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
    fig13_fs_fsync(&mut Recorder::default());
}
