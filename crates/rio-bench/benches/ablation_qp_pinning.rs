//! Ablation: scheduler Principle 2 — pin each stream to one NIC queue.
//!
//! §4.3.1/§4.5: Rio dispatches a stream's requests to the same RC queue
//! pair so the network's in-order delivery makes the target's in-order
//! submission gate free. This ablation scatters commands round-robin
//! across queue pairs instead: the gate must then buffer out-of-order
//! arrivals, adding latency and memory pressure at the target.
//!
//! (The paper asserts the optimization in prose; this bench quantifies
//! it in the model.)

use rio_bench::{header, kiops, row, run, us};
use rio_net::FabricProfile;
use rio_ssd::SsdProfile;
use rio_stack::{ClusterConfig, OrderingMode, Workload};

/// Prints one table: 4 KB random ordered writes from 8 threads on
/// each labelled cluster.
fn table(title: &str, corner: &str, cells: [(&str, ClusterConfig); 2]) {
    header(title);
    row(corner, &["KIOPS", "avg lat", "gate buffered"]);
    for (label, cfg) in cells {
        let m = run(cfg, Workload::random_4k(8, 10_000));
        let lat = us(m.group_latency.mean().as_micros_f64());
        row(
            label,
            &[kiops(m.block_iops()), lat, m.gate_buffered.to_string()],
        );
    }
}

fn main() {
    let rio = || {
        let mode = OrderingMode::Rio { merge: true };
        ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 8)
    };
    let pinned = |on| {
        let mut cfg = rio();
        cfg.pin_stream_to_qp = on;
        cfg
    };
    let over = |fabric| ClusterConfig { fabric, ..rio() };
    println!("Ablation: stream-to-QP pinning (scheduler Principle 2).");
    let title = "4 KB random ordered writes, 8 threads, 1 Optane target";
    table(
        title,
        "policy",
        [("pinned (Rio)", pinned(true)), ("scattered", pinned(false))],
    );
    println!("\nWith pinning, RC in-order delivery means the gate never");
    println!("buffers; scattering forces it to reorder arrivals instead.");

    let title = "Same workload over kernel TCP (Principle 2 applies per socket)";
    let fabrics = [
        ("RDMA 200G", over(FabricProfile::connectx6())),
        ("TCP 200G", over(FabricProfile::tcp_200g())),
    ];
    table(title, "fabric", fabrics);
    println!("\nHigher socket latency stretches the pipeline but Rio stays");
    println!("asynchronous; per-socket FIFO keeps the gate idle on TCP too.");
}
