//! Multi-initiator / multi-tenant sweep: prints
//! [`rio_bench::fig::fig_multi_initiator`], or with
//! `--trace-out <path>` writes a Chrome trace of one cell instead.

use rio_bench::fig::{fig_multi_initiator, multi_cfg};
use rio_bench::sweep::Recorder;
use rio_bench::trace_export::traced_cell;
use rio_stack::{OrderingMode, Workload};

fn main() {
    // Three initiators incast onto two shared targets over a lossy
    // fabric — the trace shows per-tenant lanes plus DRR waits.
    let rio = multi_cfg(OrderingMode::Rio { merge: true }, 3, 1, 2);
    if traced_cell("multi-initiator RIO 3x2", rio, Workload::random_4k(3, 400)) {
        return;
    }
    println!("Multi-initiator / multi-tenant sweep (full run).");
    fig_multi_initiator(&mut Recorder::default());
}
