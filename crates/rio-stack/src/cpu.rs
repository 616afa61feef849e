//! The CPU cost model: what each software step costs a core.
//!
//! Every software step in the stack (bio submission, RDMA post, RECV
//! handling, interrupt processing, MMIO waits) runs on a specific core
//! of its server and occupies it for the step's cost. A server's cores
//! are one [`rio_sim::MultiServer`] of `ClusterConfig::cores` servers,
//! charged with `admit_to(core, …)`; its busy ledger gives the
//! utilisation. Queueing on a busy core is what turns CPU *cost* into
//! CPU *bottleneck* — the effect behind "Horae needs more than 8 CPU
//! cores to fully drive existing SSDs" (§3.1).

// The CPU cost model, nanoseconds per software step. Values are in the
// range kernel-bypass studies report for NVMe-oF software overheads; the
// ratios between paths matter more than the absolute numbers, and
// EXPERIMENTS.md documents the calibration.

/// Block-layer submission work per bio (bio alloc, checks, queue).
pub const SUBMIT_BIO_NS: u64 = 900;
/// ORDER-queue bookkeeping per bio (attribute stamping, push).
pub const ORDER_QUEUE_NS: u64 = 150;
/// Extra work to merge one additional bio into a request.
pub const MERGE_PER_BIO_NS: u64 = 150;
/// Building one NVMe-oF command + posting the RDMA SEND.
pub const CMD_POST_NS: u64 = 650;
/// Target-side two-sided RECV handling per command.
pub const TARGET_RECV_NS: u64 = 700;
/// Submitting one command to the local SSD (doorbell path).
pub const SSD_SUBMIT_NS: u64 = 400;
/// Persistent MMIO append of a 32 B ordering attribute (§6.1).
pub const PMR_APPEND_NS: u64 = 600;
/// Single-byte persist toggle (posted MMIO).
pub const PMR_TOGGLE_NS: u64 = 250;
/// Interrupt + completion handling per command (either side).
pub const IRQ_NS: u64 = 850;
/// Blocking wait / wakeup (context switch pair) on the initiator: a
/// parked thread's wakeup, and Horae's blocking control wait.
pub const CTX_SWITCH_NS: u64 = 2_200;
/// Horae: initiator-side control-path post.
pub const HORAE_CTRL_POST_NS: u64 = 650;
/// Horae: target-side control handling (RECV + ordering-layer
/// bookkeeping + PMR MMIO).
pub const HORAE_CTRL_HANDLE_NS: u64 = 2_000;
/// Horae: serialization gap of the control path beyond raw wire and
/// CPU costs — kernel wakeups, doorbells and ordering-layer locking on
/// the synchronous path. Calibrated so Horae needs many cores to drive
/// an SSD, as in §3.1 (see EXPERIMENTS.md).
pub const HORAE_CTRL_GAP_NS: u64 = 14_000;
/// CRC-32C digest work per 4 KB payload block (hardware CRC32
/// instructions stream ~2-3 bytes/cycle; 4 KB lands around 1.5 µs on
/// one core). Charged at submission stamping and target-side
/// verification, only when integrity checking is on.
pub const CRC_PER_BLOCK_NS: u64 = 1_500;
/// Recovery: one 32 B PMR slot read over MMIO by a target that lost
/// power; this, not the transfer, dominates order rebuild (§6.5).
pub const PMR_SCAN_NS_PER_SLOT: u64 = 800;
/// Recovery: an alive target driver's read of one record it mirrors.
pub const DRAM_SCAN_NS_PER_RECORD: u64 = 50;
/// Recovery: merging one scanned record into the global order.
pub const MERGE_NS_PER_RECORD: u64 = 350;

#[cfg(test)]
mod tests {
    use crate::cluster::Cluster;
    use crate::config::{ClusterConfig, OrderingMode};
    use crate::workload::Workload;

    /// A server's cores are sized by `ClusterConfig::cores`; a server
    /// without a core is refused before any step is charged to one.
    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 1, 1, 1);
        cfg.cores = 0;
        let _ = Cluster::new(cfg, Workload::random_4k(1, 1));
    }
}
