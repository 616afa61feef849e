//! Figure 15 (application performance): prints
//! [`rio_bench::fig::fig15_applications`].

use rio_bench::fig::fig15_applications;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper Figure 15 (application performance).");
    println!("Paper: Varmail 2.3x/1.3x and RocksDB fillsync 1.9x/1.5x over");
    println!("Ext4/HoraeFS on average.");
    fig15_applications(&mut Recorder::default());
}
