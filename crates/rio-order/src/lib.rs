//! The Rio ordering core (the paper's primary contribution), as pure logic.
//!
//! Rio's key insight is that a layered storage stack over asynchronous
//! NICs and SSDs resembles a CPU pipeline: it can execute ordered write
//! requests *out of order* internally as long as it **commits them in
//! order** at the boundaries. This crate implements every mechanism that
//! makes that safe, with no I/O or simulation dependencies, so each piece
//! is directly unit- and property-testable:
//!
//! * [`attr`] — the ordering attribute (Fig. 5), the identity each
//!   ordered write request carries through the whole stack.
//! * [`sequencer`] — the Rio sequencer (Fig. 4 ①②⑨): stamps attributes
//!   at submission, tracking per-stream global order and per-server
//!   `prev` chains.
//! * [`completion`] — in-order completion: out-of-order internal
//!   completions are released to the application in submission order.
//! * [`scheduler`] — the ORDER-queue merge/split rules (Fig. 8,
//!   Principles 1–3 of §4.5).
//! * [`gate`] — the target driver's in-order submission gate (§4.3.1).
//! * [`pmrlog`] — the circular log of persistent ordering attributes in
//!   the SSD's PMR (§4.3.2).
//! * [`target`] — the target driver, [`RioTarget`]: the gate, the PMR
//!   log, and the slot recycling that follows delivered completions.
//! * [`recovery`] — the asynchronous crash-recovery algorithm (§4.4):
//!   per-server list reconstruction, global merge, rollback/replay plans,
//!   and in-place-update reporting.
//!
//! The companion crate `rio-stack` drives this logic inside a simulated
//! cluster to reproduce the paper's performance results; file systems
//! (`rio-fs`) build journaling on top of the ordered block abstraction.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attr;
pub mod completion;
pub mod gate;
pub mod librio;
pub mod pmrlog;
pub mod recovery;
pub mod scheduler;
pub mod sequencer;
pub mod target;

pub use attr::{BlockRange, OrderingAttr, Seq, ServerId, SplitInfo, StreamId};
pub use completion::InOrderCompleter;
pub use gate::SubmissionGate;
pub use librio::{Rio, RioSetup};
pub use pmrlog::{PmrBytes, PmrLog, PmrWrite, SlotRef};
pub use recovery::{
    DiscardOp, IpuEvent, RecoveryInput, RecoveryMode, RecoveryPlan, ReplayOp, ServerScan,
    StreamPlan,
};
pub use scheduler::{DispatchBatch, DispatchUnit, OrderQueue, OrderQueueConfig};
pub use sequencer::{Sequencer, SubmitOpts};
pub use target::RioTarget;
