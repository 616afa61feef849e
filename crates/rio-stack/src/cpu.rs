//! Per-server CPU model: cores as FIFO work servers with a busy ledger.
//!
//! Every software step in the stack (bio submission, RDMA post, RECV
//! handling, interrupt processing, MMIO waits) runs on a specific core
//! and occupies it for the step's cost. Queueing on a busy core is what
//! turns CPU *cost* into CPU *bottleneck* — the effect behind "Horae
//! needs more than 8 CPU cores to fully drive existing SSDs" (§3.1).

use rio_sim::{FifoResource, SimDuration, SimTime};

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
/// Blocking wait / wakeup (context switch pair) on the initiator.
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

/// A set of cores on one server.
#[derive(Debug)]
pub struct CoreSet {
    cores: Vec<FifoResource>,
}

impl CoreSet {
    /// Creates `n` idle cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a server needs at least one core");
        CoreSet {
            cores: (0..n).map(|_| FifoResource::new()).collect(),
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Runs `cost_ns` of work on `core` (wrapped modulo the core
    /// count), starting no earlier than `now`; returns the finish time.
    pub fn run_on(&mut self, core: usize, now: SimTime, cost_ns: u64) -> SimTime {
        let idx = core % self.cores.len();
        self.cores[idx].admit(now, SimDuration::from_nanos(cost_ns))
    }

    /// Total busy time across all cores.
    pub fn busy_total(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for c in &self.cores {
            total += c.busy_time();
        }
        total
    }

    /// Utilisation over `elapsed`: busy core-seconds ÷ available
    /// core-seconds, in `[0, 1]`.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.as_nanos() == 0 {
            return 0.0;
        }
        let avail = elapsed.as_secs_f64() * self.cores.len() as f64;
        (self.busy_total().as_secs_f64() / avail).min(1.0)
    }

    /// Discards queued work (crash).
    pub fn reset(&mut self, now: SimTime) {
        for c in &mut self.cores {
            c.reset(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_on_same_core_serializes() {
        let mut cs = CoreSet::new(2);
        let a = cs.run_on(0, SimTime::ZERO, 1000);
        let b = cs.run_on(0, SimTime::ZERO, 1000);
        let c = cs.run_on(1, SimTime::ZERO, 1000);
        assert_eq!(a.as_nanos(), 1000);
        assert_eq!(b.as_nanos(), 2000, "same core queues");
        assert_eq!(c.as_nanos(), 1000, "other core parallel");
    }

    #[test]
    fn core_index_wraps() {
        let mut cs = CoreSet::new(2);
        let a = cs.run_on(0, SimTime::ZERO, 500);
        let b = cs.run_on(2, SimTime::ZERO, 500);
        assert_eq!(a.as_nanos(), 500);
        assert_eq!(b.as_nanos(), 1000, "core 2 wraps onto core 0");
    }

    #[test]
    fn utilization_accounting() {
        let mut cs = CoreSet::new(4);
        cs.run_on(0, SimTime::ZERO, 1_000_000);
        cs.run_on(1, SimTime::ZERO, 1_000_000);
        // 2 of 4 cores busy for the first millisecond.
        let u = cs.utilization(SimDuration::from_nanos(1_000_000));
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn utilization_zero_elapsed() {
        let cs = CoreSet::new(1);
        assert_eq!(cs.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CoreSet::new(0);
    }
}
