//! End-to-end integrity sweep: prints
//! [`rio_bench::fig::fig_integrity`].

use rio_bench::fig::fig_integrity;
use rio_bench::sweep::Recorder;

fn main() {
    println!("End-to-end integrity sweep (full run): corruption x crash x ordering modes.");
    fig_integrity(&mut Recorder::default());
}
