//! Lossy multi-path fabric sweep: prints
//! [`rio_bench::fig::fig_lossy_fabric`], or with `--trace-out <path>`
//! writes a Chrome trace of one cell instead.

use rio_bench::fig::{fig_lossy_fabric, lossy_cfg};
use rio_bench::sweep::Recorder;
use rio_bench::trace_export::traced_cell;
use rio_stack::{OrderingMode, Workload};

fn main() {
    // The interesting cell: RIO under real loss, where retransmit spans
    // and gate stalls show up in the trace.
    let rio = lossy_cfg(OrderingMode::Rio { merge: true }, 4, 1e-3, 2);
    if traced_cell(
        "lossy-fabric RIO loss=1e-3 paths=2",
        rio,
        Workload::random_4k(4, 2_000),
    ) {
        return;
    }
    println!("Lossy multi-path fabric sweep (full run).");
    fig_lossy_fabric(&mut Recorder::default());
}
