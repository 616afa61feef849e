//! Whole-cluster simulation of Rio and its baselines.
//!
//! One [`cluster::Cluster`] models the paper's testbed: an initiator
//! server plus one or two target servers, each with cores, a NIC and
//! NVMe SSDs, connected by a 200 Gbps RDMA fabric. The same workload
//! can be run under four ordering engines (§6.2):
//!
//! * [`config::OrderingMode::Orderless`] — no ordering guarantee; the
//!   upper bound every figure normalises against.
//! * [`config::OrderingMode::LinuxNvmf`] — stock ordered NVMe-oF:
//!   synchronous execution, a completion wait plus a FLUSH between
//!   ordered requests.
//! * [`config::OrderingMode::Horae`] — the OSDI'20 system ported to
//!   NVMe-oF: a synchronous control path (two-sided SENDs persisting
//!   ordering metadata to PMR) ahead of an asynchronous data path.
//! * [`config::OrderingMode::Rio`] — the paper's contribution: the
//!   fully asynchronous I/O pipeline. Each initiator runs `rio-order`'s
//!   `librio` handle (sequencer, ORDER queues, in-order completion);
//!   each target its gate and PMR log.
//!
//! The simulation charges CPU costs per software step to per-core FIFO
//! resources, so throughput *and* CPU efficiency (throughput ÷
//! utilisation, §6.1) come out of the same run.
//!
//! Fault injection is first-class: a [`config::FaultPlan`] crashes
//! arbitrary target subsets (or single NICs) at arbitrary virtual
//! times — composing with the lossy multi-path fabric — and the
//! cluster recovers *inside* the event loop (PMR scan, global merge,
//! discard, each message on the wire) and resumes the workload,
//! reporting per-epoch throughput and recovery breakdowns in
//! [`metrics::RunMetrics`]. The handler is [`cluster::recovery`]; the
//! §6.5 experiment is a [`config::FaultPlan::crash_all_at`] plan whose
//! report is `RunMetrics::recoveries[0]`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod cpu;
pub mod laws;
pub mod metrics;
pub mod telemetry;
pub mod trace;
pub mod workload;

pub use cluster::Cluster;
pub use config::{
    ClusterConfig, ConfigError, FabricConfig, FaultEvent, FaultKind, FaultPlan, InitiatorConfig,
    OrderingMode,
};
pub use metrics::{
    jain_index, EpochMetrics, InitiatorMetrics, IntegrityMetrics, NetMetrics, RecoveryMetrics,
    RunMetrics, StreamRecovery, TenantMetrics,
};
pub use telemetry::{
    RecoverySpan, StallWindow, Telemetry, TelemetryBucket, TelemetryConfig, TenantWait,
};
pub use trace::{CmdTraceRecord, LatencyBreakdown, Stage, TraceConfig};
pub use workload::Workload;

// The §6.5 recovery-time experiment's shape tests (test-only module).
#[cfg(test)]
mod crash;
