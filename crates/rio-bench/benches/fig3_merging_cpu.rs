//! Figure 3 (merging cuts CPU overhead): prints
//! [`rio_bench::fig::fig3_merging_cpu`].

use rio_bench::fig::fig3_merging_cpu;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper Figure 3 (merging cuts CPU overhead).");
    println!("Paper: merging reduces initiator and target CPU at every batch");
    println!("size; the gap widens as the batch grows.");
    fig3_merging_cpu(&mut Recorder::default());
}
