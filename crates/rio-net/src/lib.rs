//! An RDMA fabric model with the four properties Rio builds on.
//!
//! 1. **Per-QP in-order delivery** — the reliable connected (RC)
//!    transport delivers SEND operations on one queue pair in order;
//!    across queue pairs there is no ordering (scheduler Principle 2
//!    pins a stream to one QP to exploit exactly this). Go-back-N
//!    recovery weakens this under loss: a message stuck in a
//!    retransmission timeout can be overtaken by later traffic, which
//!    is exactly the reordering Rio's target-side ordering attributes
//!    absorb.
//! 2. **One-sided vs two-sided cost asymmetry** — RDMA READ/WRITE
//!    bypass the remote CPU; SEND/RECV consume it. The model returns
//!    timing; the caller charges CPU where the paper says it burns
//!    (§2.1).
//! 3. **Finite link bandwidth with serialization** — a 200 Gbps link
//!    with per-NIC egress queuing, so large transfers and congestion
//!    shape completion times.
//! 4. **Packetized, lossy, multi-path transport** — messages segment
//!    into MTU packets, each packet samples a deterministic drop, and
//!    every NIC can spread queue pairs over asymmetric paths (distinct
//!    latency/bandwidth/jitter) with optional migration. The paths are
//!    the whole timing: a [`FabricProfile`] has no latency, bandwidth
//!    or jitter besides its [`PathProfile`]s, and the fabric and every
//!    NIC read the same list.
//!
//! Like the SSD model, the fabric is passive. One routine,
//! [`Fabric::transfer`], moves every message — a SEND or a one-sided
//! READ between its [`Ends`], first try or go-back-N resend — at `now`
//! and returns one [`XferStep`]: a delivery instant, or a `Dropped`
//! window the caller schedules as an event and passes back there.
//! [`Fabric::resend`] says what such a resend puts on the wire, so the
//! window's encoding stays here. Nothing retransmits behind the
//! caller's back, so every resend happens in event order.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;

pub use fabric::{Ends, Fabric, FabricProfile, Nic, NicStats, PathProfile, PathStats, XferStep};
