//! Figure 12 (batch sizes and merging): prints
//! [`rio_bench::fig::fig12_batch_sizes`].

use rio_bench::fig::fig12_batch_sizes;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper Figure 12 (batch sizes / merging).");
    println!("Paper: with 1 thread merging lifts Rio's throughput; with 12");
    println!("threads it preserves CPU efficiency while Horae's declines.");
    fig12_batch_sizes(&mut Recorder::default());
}
