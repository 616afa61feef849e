//! Table 1 (the Rio NVMe-oF command format): prints
//! [`rio_bench::fig::table1_command_format`].

use rio_bench::fig::table1_command_format;
use rio_bench::sweep::Recorder;

fn main() {
    println!("Reproduction of paper Table 1 (Rio NVMe-oF command format).");
    table1_command_format(&mut Recorder::default());
}
