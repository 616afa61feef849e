//! Figure 2 (motivation: the cost of storage order): prints
//! [`rio_bench::fig::fig2_motivation`].

use rio_bench::fig::fig2_motivation;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper Figure 2 (motivation experiments).");
    println!("Paper: orderless saturates with 1 thread; Linux NVMe-oF is");
    println!("~100x slower on flash, and all ordered systems trail orderless.");
    fig2_motivation(&mut Recorder::default());
}
