//! Figure 10 (block device performance): prints
//! [`rio_bench::fig::fig10_block_device`], or with `--trace-out <path>`
//! writes a Chrome trace of one cell instead.

use rio_bench::fig::{fig10_block_device, fig10_cfg};
use rio_bench::sweep::Recorder;
use rio_bench::trace_export::traced_cell;
use rio_stack::{OrderingMode, Workload};

fn main() {
    // One representative traced run (RIO on Optane, part b) instead of
    // the whole sweep: the Chrome trace is per-command, so a single
    // cell is already thousands of spans.
    let rio = fig10_cfg('b', OrderingMode::Rio { merge: true }, 2);
    if traced_cell("fig10(b) RIO t=2", rio, Workload::random_4k(2, 2_000)) {
        return;
    }
    println!("Reproduction of paper Figure 10 (block device performance).");
    fig10_block_device(&mut Recorder::default());
}
