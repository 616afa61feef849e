//! Figure 14 (fsync latency and stage breakdowns): prints
//! [`rio_bench::fig::fig14_latency_breakdown`], or with
//! `--trace-out <path>` writes a Chrome trace of one cell instead.

use rio_bench::fig::{fig14_latency_breakdown, stage_cfg};
use rio_bench::sweep::Recorder;
use rio_bench::trace_export::traced_cell;
use rio_stack::Workload;

fn main() {
    // The crash-mid-run cell: spans, retransmits, the recovery band and
    // the watchdog's stall windows all in one trace.
    let crash = stage_cfg(1e-3, true);
    let what = "the crash-mid-run stage breakdown";
    if traced_cell(what, crash, Workload::random_4k(3, 2_000)) {
        return;
    }
    println!("Reproduction of paper Figure 14 (fsync latency breakdown, ns).");
    fig14_latency_breakdown(&mut Recorder::default());
}
