//! §6.5 (recovery time) and the survivable fault sweep: prints
//! [`rio_bench::fig::t65_recovery_time`].

use rio_bench::fig::t65_recovery_time;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper §6.5 (recovery time) + survivable fault sweep.");
    println!("Paper: Rio ~55 ms order rebuild + ~125 ms data recovery;");
    println!("Horae ~38 ms + ~101 ms (smaller ordering metadata).");
    t65_recovery_time(&mut Recorder::default());
}
