//! Figure 11 (varying write sizes): prints
//! [`rio_bench::fig::fig11_write_sizes`].

use rio_bench::fig::fig11_write_sizes;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper Figure 11 (varying write sizes).");
    println!("Paper: asynchronous execution is vital even for 64 KB writes;");
    println!("Horae reaches only half of Rio at 64 KB.");
    fig11_write_sizes(&mut Recorder::default());
}
