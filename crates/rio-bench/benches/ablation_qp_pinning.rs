//! Ablation of stream-to-QP pinning (scheduler Principle 2): prints
//! [`rio_bench::fig::ablation_qp_pinning`].

use rio_bench::fig::ablation_qp_pinning;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Ablation: stream-to-QP pinning (scheduler Principle 2).");
    ablation_qp_pinning(&mut Recorder::default());
}
