//! Run metrics: the numbers every figure reports.

use rio_net::PathStats;
use rio_order::attr::{Seq, StreamId};
use rio_order::recovery::RecoveryPlan;
use rio_sim::{Histogram, MeanAccum, SimDuration, SimTime};

/// Aggregated fabric counters of one run, summed over every NIC
/// (initiator plus all targets).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NetMetrics {
    /// Packets transmitted (MTU segmentation makes this ≥ messages).
    pub packets: u64,
    /// Bytes serialized onto egress links.
    pub bytes_out: u64,
    /// Packets the fabric dropped.
    pub drops: u64,
    /// Packets retransmitted after a go-back-N timeout.
    pub retransmits: u64,
    /// Recovery rounds entered (retransmission timeouts fired).
    pub retx_rounds: u64,
    /// Sum over all NICs of each NIC's peak of simultaneously stalled
    /// retransmissions. Per-NIC peaks are folded in at run end, after
    /// the time axis is gone, so the exact cluster-wide concurrent peak
    /// is unrecoverable; the sum of peaks is its tight upper bound (and
    /// unlike a max it cannot under-report several NICs retransmitting
    /// at once).
    pub retx_inflight_peak: u64,
    /// Packets the fabric corrupted in flight.
    pub corrupt_injected: u64,
    /// Corrupted packets caught by receiver digest checks and NAKed.
    /// Always equals [`NetMetrics::corrupt_injected`] — the model
    /// delivers no silent wire corruption; keeping both makes the
    /// ledger explicit.
    pub corrupt_detected: u64,
    /// Packets re-fetched because a corruption cut a go-back-N window.
    pub corrupt_refetched: u64,
    /// Per-path transmit statistics, aggregated across NICs by path
    /// index (index 0 is every NIC's fastest path).
    pub per_path: Vec<PathStats>,
}

impl NetMetrics {
    /// Folds one NIC's counters into the aggregate.
    pub fn absorb(&mut self, nic: &rio_net::Nic) {
        let s = nic.stats();
        self.packets += s.packets;
        self.bytes_out += s.bytes_out;
        self.drops += s.drops;
        self.retransmits += s.retransmits;
        self.retx_rounds += s.retx_rounds;
        self.retx_inflight_peak += s.retx_inflight_peak;
        self.corrupt_injected += s.corrupt_injected;
        self.corrupt_detected += s.corrupt_detected;
        self.corrupt_refetched += s.corrupt_refetched;
        for (i, p) in nic.path_stats().into_iter().enumerate() {
            if self.per_path.len() <= i {
                self.per_path.resize_with(i + 1, PathStats::default);
            }
            let agg = &mut self.per_path[i];
            agg.packets += p.packets;
            agg.bytes += p.bytes;
            agg.drops += p.drops;
            agg.retransmits += p.retransmits;
        }
    }
}

/// End-to-end data-integrity ledger of one run: every corruption the
/// run injected (wire, torn write, bit rot), what detected it, and how
/// it was resolved. All zeros when integrity checking is off.
///
/// The standing invariant the proptests pin down: nothing corrupt is
/// ever delivered — wire corruptions are all detected and re-fetched
/// (`wire_injected == wire_detected`), and media corruptions are all
/// found by the scrub and either repaired by re-execution/redelivery
/// of the covering group or counted unrepairable
/// (`torn_injected + rot_injected == media_detected ==
/// media_repaired + media_unrepairable`).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct IntegrityMetrics {
    /// Packets corrupted in flight by the fabric.
    pub wire_injected: u64,
    /// Wire corruptions caught by receiver digest checks (== injected).
    pub wire_detected: u64,
    /// Packets re-fetched to replace corrupted-and-NAKed windows.
    pub wire_refetched: u64,
    /// Media records torn by power failure mid-write.
    pub torn_injected: u64,
    /// Media records hit by at-rest bit rot.
    pub rot_injected: u64,
    /// Media records whose checksum failed the post-recovery scrub.
    pub media_detected: u64,
    /// Corrupt media records repaired: their block is discarded and
    /// the covering group re-executed or redelivered from the durable
    /// prefix, exactly-once preserved.
    pub media_repaired: u64,
    /// Corrupt media records that held already-delivered data with no
    /// surviving copy (bit rot under a delivered group): detected,
    /// purged, and reported — the honest data-loss count.
    pub media_unrepairable: u64,
    /// Media records scanned by scrub passes.
    pub scrubbed_records: u64,
    /// Virtual microseconds spent in scrub passes.
    pub scrub_us: f64,
}

impl IntegrityMetrics {
    /// Total corruptions injected anywhere (wire + media).
    #[cfg(test)]
    pub fn injected(&self) -> u64 {
        self.wire_injected + self.torn_injected + self.rot_injected
    }

    /// Total corruptions detected by a checksum check.
    #[cfg(test)]
    pub fn detected(&self) -> u64 {
        self.wire_detected + self.media_detected
    }

    /// Whether the ledger balances: every injection detected, every
    /// detection resolved.
    pub fn balanced(&self) -> bool {
        self.wire_injected == self.wire_detected
            && self.torn_injected + self.rot_injected == self.media_detected
            && self.media_detected == self.media_repaired + self.media_unrepairable
    }
}

/// Per-initiator breakdown of one run (one entry per effective
/// initiator, in configuration order). The single-initiator path
/// produces exactly one entry whose totals mirror the run-wide fields.
#[derive(Debug, Clone, PartialEq)]
pub struct InitiatorMetrics {
    /// Initiator index in [`crate::config::ClusterConfig::initiators`].
    pub initiator: usize,
    /// Tenant this initiator belongs to.
    pub tenant: u32,
    /// QoS weight of this initiator.
    pub weight: u32,
    /// First global stream id of this initiator's slice.
    pub stream_base: usize,
    /// Streams in this initiator's slice.
    pub streams: usize,
    /// Ordered groups this initiator delivered.
    pub groups_done: u64,
    /// Blocks this initiator delivered.
    pub blocks_done: u64,
    /// NVMe-oF commands this initiator sent.
    pub commands_sent: u64,
    /// Commands of this initiator the target gates buffered out of
    /// order.
    pub gate_buffered: u64,
    /// Per-group completion latency of this initiator's groups.
    pub group_latency: Histogram,
    /// This initiator's driver CPU utilisation in `[0, 1]`.
    pub util: f64,
    /// When this initiator's last group was delivered.
    pub finished_at: SimTime,
}

impl InitiatorMetrics {
    /// Blocks per second over this initiator's active span.
    pub fn block_iops(&self) -> f64 {
        if self.finished_at.as_nanos() == 0 {
            return 0.0;
        }
        self.blocks_done as f64 / (self.finished_at.as_nanos() as f64 / 1e9)
    }
}

/// Per-tenant breakdown of one run: the sum of the tenant's
/// initiators, plus the deficit-round-robin admission wait the target
/// schedulers imposed (all-zero histogram when the run had a single
/// tenant — the scheduler is inert then).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant id.
    pub tenant: u32,
    /// Sum of the tenant's initiators' QoS weights.
    pub weight: u32,
    /// Ordered groups delivered for this tenant.
    pub groups_done: u64,
    /// Blocks delivered for this tenant.
    pub blocks_done: u64,
    /// Per-group completion latency for this tenant.
    pub group_latency: Histogram,
    /// Nanoseconds commands waited in the target-side per-tenant DRR
    /// admission queues (empty when the scheduler was inert).
    pub gate_wait: Histogram,
    /// When this tenant's last group was delivered.
    pub finished_at: SimTime,
}

impl TenantMetrics {
    /// Blocks per second over this tenant's active span (run start to
    /// its last delivery) — the fairness comparison axis: under
    /// saturation a heavier tenant drains the same demand in less
    /// time, so throughput orders by weight.
    pub fn block_iops(&self) -> f64 {
        if self.finished_at.as_nanos() == 0 {
            return 0.0;
        }
        self.blocks_done as f64 / (self.finished_at.as_nanos() as f64 / 1e9)
    }
}

/// Jain's fairness index over a set of per-tenant rates:
/// `(Σx)² / (n · Σx²)`. 1.0 is perfectly fair; `1/n` is maximally
/// unfair. Empty or all-zero input returns 1.0 (nothing to be unfair
/// about).
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq_sum: f64 = rates.iter().map(|x| x * x).sum();
    if sq_sum <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (rates.len() as f64 * sq_sum)
}

/// Per-stream outcome of one in-run recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecovery {
    /// The stream.
    pub stream: StreamId,
    /// Groups the initiator had delivered to the application when the
    /// fault hit.
    pub delivered_through: Seq,
    /// The storage order survived intact through this sequence (the
    /// valid prefix of §4.8).
    pub valid_through: Seq,
    /// Groups that were durable but unacknowledged at the fault and
    /// were delivered during recovery (never re-executed).
    pub redelivered: u64,
    /// Groups rolled back beyond the valid prefix and re-queued for
    /// resubmission after the resume.
    pub requeued: u64,
}

/// Breakdown of one fault + recovery cycle inside a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// Index of the fault in the run's [`crate::config::FaultPlan`].
    pub fault: usize,
    /// Targets the fault hit.
    pub crashed_targets: Vec<usize>,
    /// Whether the fault was a power failure (SSD caches lost) rather
    /// than a NIC reset.
    pub power_fail: bool,
    /// Virtual time of the fault.
    pub crashed_at: SimTime,
    /// Virtual time the workload resumed: `crashed_at` plus both phases.
    pub resumed_at: SimTime,
    /// Phase 1, measured from the fault to the end of the global merge:
    /// scan requests out, target-core PMR scans, records back on the
    /// wire (retransmissions included), then the merge.
    pub order_rebuild: SimDuration,
    /// Phase 2, measured from the end of the merge to the last discard
    /// batch's completion at the initiator: any integrity scrub, then
    /// the batches on the wire and each SSD's discards one at a time.
    pub data_recovery: SimDuration,
    /// PMR records scanned across all targets.
    pub records_scanned: usize,
    /// Discard commands issued.
    pub discards: usize,
    /// Per-stream recovery outcome.
    pub streams: Vec<StreamRecovery>,
    /// The computed plan (invariant checking in tests).
    pub plan: RecoveryPlan,
}

/// Throughput accounting for one crash-free stretch of a run. A run
/// with `n` faults has `n + 1` epochs; recovery windows sit between
/// epochs and are excluded from every epoch's span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Epoch start (run start, or the resume instant of the previous
    /// recovery).
    pub from: SimTime,
    /// Epoch end (the fault instant, or the last completion).
    pub to: SimTime,
    /// Groups delivered during the epoch.
    pub groups_done: u64,
    /// Blocks delivered during the epoch.
    pub blocks_done: u64,
    /// fsync-style operations finished during the epoch.
    pub ops_done: u64,
}

impl EpochMetrics {
    /// Blocks per second within the epoch.
    pub fn block_iops(&self) -> f64 {
        let span = self.to.since(self.from);
        if span.as_nanos() == 0 {
            return 0.0;
        }
        self.blocks_done as f64 / span.as_secs_f64()
    }
}

/// Aggregated results of one simulation run.
///
/// Simulations are pure functions of `(configuration, seed)`, so two
/// runs of the same experiment must produce metrics that compare equal
/// field for field — the determinism snapshot tests rely on the
/// `PartialEq` impl here.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// 4 KB blocks written and acknowledged.
    pub blocks_done: u64,
    /// Ordered groups (or orderless requests) completed.
    pub groups_done: u64,
    /// fsync-style operations completed (FsyncJournal patterns).
    pub ops_done: u64,
    /// Commands the target gates had to buffer because the network
    /// delivered them out of order (zero when streams are pinned to
    /// queue pairs, §4.5 Principle 2).
    pub gate_buffered: u64,
    /// NVMe-oF commands sent (merging shrinks this).
    pub commands_sent: u64,
    /// Simulation events the engine dispatched during the run — the
    /// denominator of the engine-throughput (events/sec) harness.
    pub events_processed: u64,
    /// Wall-clock span of the run (first submit to last completion).
    pub span: SimDuration,
    /// Per-group completion latency.
    pub group_latency: Histogram,
    /// Per-fsync-op latency (submission of D to sync return).
    pub op_latency: Histogram,
    /// Fig. 14 breakdown: dispatch latency of the D, JM and JC stages
    /// plus the final I/O wait, in nanoseconds.
    pub stage_dispatch: [MeanAccum; 4],
    /// Initiator CPU utilisation in `[0, 1]`.
    pub initiator_util: f64,
    /// Mean target CPU utilisation in `[0, 1]`.
    pub target_util: f64,
    /// Fabric counters: packets, drops, retransmissions, per-path load.
    pub net: NetMetrics,
    /// Data-integrity ledger (all zeros when integrity checking was
    /// off for the run).
    pub integrity: IntegrityMetrics,
    /// One breakdown per fault the run survived (empty without a
    /// [`crate::config::FaultPlan`]).
    pub recoveries: Vec<RecoveryMetrics>,
    /// Crash-free stretches of the run: always at least one; a fault
    /// ends one epoch and its resume starts the next.
    pub epochs: Vec<EpochMetrics>,
    /// When the run finished.
    pub finished_at: SimTime,
    /// Per-command stage latency breakdown — `Some` only when the run
    /// was configured with [`crate::config::ClusterConfig::trace`].
    pub breakdown: Option<crate::trace::LatencyBreakdown>,
    /// Per-initiator breakdown, one entry per effective initiator.
    pub initiators: Vec<InitiatorMetrics>,
    /// Per-tenant breakdown, one entry per distinct tenant id in
    /// ascending order.
    pub tenants: Vec<TenantMetrics>,
    /// Virtual-time telemetry series — `Some` only when the run was
    /// configured with [`crate::config::ClusterConfig::telemetry`].
    pub telemetry: Option<crate::telemetry::Telemetry>,
}

impl RunMetrics {
    /// Blocks per second (the paper's KIOPS axis × 1000).
    pub fn block_iops(&self) -> f64 {
        if self.span.as_nanos() == 0 {
            return 0.0;
        }
        self.blocks_done as f64 / self.span.as_secs_f64()
    }

    /// fsync operations per second (FS workloads).
    pub fn op_iops(&self) -> f64 {
        if self.span.as_nanos() == 0 {
            return 0.0;
        }
        self.ops_done as f64 / self.span.as_secs_f64()
    }

    /// Write bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.block_iops() * 4096.0
    }

    /// CPU efficiency at the initiator: throughput per unit of CPU
    /// (§6.1: "throughput ÷ CPU utilization").
    pub fn initiator_efficiency(&self) -> f64 {
        if self.initiator_util <= 0.0 {
            return 0.0;
        }
        self.block_iops() / self.initiator_util
    }

    /// CPU efficiency at the targets.
    pub fn target_efficiency(&self) -> f64 {
        if self.target_util <= 0.0 {
            return 0.0;
        }
        self.block_iops() / self.target_util
    }

    /// Jain's fairness index over per-tenant throughput (blocks/sec
    /// across each tenant's active span). 1.0 with a single tenant.
    pub fn tenant_fairness(&self) -> f64 {
        let rates: Vec<f64> = self.tenants.iter().map(|t| t.block_iops()).collect();
        jain_index(&rates)
    }

    /// Jain's fairness index over *weight-normalized* per-tenant
    /// throughput: 1.0 means every tenant got service exactly
    /// proportional to its QoS weight.
    #[cfg(test)]
    pub fn weighted_tenant_fairness(&self) -> f64 {
        let rates: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| t.block_iops() / t.weight.max(1) as f64)
            .collect();
        jain_index(&rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(blocks: u64, span_ms: u64, util: f64) -> RunMetrics {
        RunMetrics {
            blocks_done: blocks,
            groups_done: blocks,
            ops_done: blocks,
            gate_buffered: 0,
            commands_sent: blocks,
            events_processed: blocks,
            span: SimDuration::from_nanos(span_ms * 1_000_000),
            group_latency: Histogram::new(),
            op_latency: Histogram::new(),
            stage_dispatch: Default::default(),
            initiator_util: util,
            target_util: util / 2.0,
            net: NetMetrics::default(),
            integrity: IntegrityMetrics::default(),
            recoveries: Vec::new(),
            epochs: Vec::new(),
            finished_at: SimTime::ZERO,
            breakdown: None,
            initiators: Vec::new(),
            tenants: Vec::new(),
            telemetry: None,
        }
    }

    #[test]
    fn iops_and_bandwidth() {
        let m = metrics(150_000, 1000, 0.5);
        assert!((m.block_iops() - 150_000.0).abs() < 1.0);
        assert!((m.bandwidth() - 150_000.0 * 4096.0).abs() < 4096.0);
    }

    #[test]
    fn efficiency_divides_by_util() {
        let m = metrics(100_000, 1000, 0.5);
        assert!((m.initiator_efficiency() - 200_000.0).abs() < 1.0);
        assert!((m.target_efficiency() - 400_000.0).abs() < 1.0);
    }

    #[test]
    fn zero_span_and_util_are_safe() {
        let m = metrics(0, 0, 0.0);
        assert_eq!(m.block_iops(), 0.0);
        assert_eq!(m.initiator_efficiency(), 0.0);
    }

    #[test]
    fn epoch_iops_uses_the_epoch_span() {
        let e = EpochMetrics {
            from: SimTime::from_nanos(1_000_000_000),
            to: SimTime::from_nanos(2_000_000_000),
            groups_done: 5_000,
            blocks_done: 5_000,
            ops_done: 0,
        };
        assert!((e.block_iops() - 5_000.0).abs() < 1.0);
        let empty = EpochMetrics {
            from: SimTime::ZERO,
            to: SimTime::ZERO,
            groups_done: 0,
            blocks_done: 0,
            ops_done: 0,
        };
        assert_eq!(empty.block_iops(), 0.0);
    }

    #[test]
    fn integrity_ledger_balance() {
        let zero = IntegrityMetrics::default();
        assert!(zero.balanced(), "the all-zero ledger balances");
        assert_eq!(zero.injected(), 0);
        let ok = IntegrityMetrics {
            wire_injected: 3,
            wire_detected: 3,
            wire_refetched: 7,
            torn_injected: 1,
            rot_injected: 2,
            media_detected: 3,
            media_repaired: 2,
            media_unrepairable: 1,
            scrubbed_records: 100,
            scrub_us: 200.0,
        };
        assert!(ok.balanced());
        assert_eq!(ok.injected(), 6);
        assert_eq!(ok.detected(), 6);
        let silent = IntegrityMetrics {
            media_detected: 0, // a torn record nobody detected
            torn_injected: 1,
            ..IntegrityMetrics::default()
        };
        assert!(!silent.balanced(), "undetected corruption must unbalance");
    }

    #[test]
    fn absorb_sums_inflight_peaks_across_nics() {
        // Two NICs that each peaked at different times must not be
        // collapsed to a max: the cluster-wide bound is the sum.
        let mut agg = NetMetrics::default();
        let profile = rio_net::FabricProfile::connectx6().with_loss(0.995, 10.0);
        for seed in [1, 2] {
            let mut f = rio_net::Fabric::new(profile.clone(), seed);
            let mut nic = rio_net::Nic::for_profile(1, f.profile());
            // Almost surely parks (99.5% loss), bumping this NIC's peak.
            let _ = f.send_burst(&mut nic, 0, SimTime::ZERO, 64);
            nic.crash_reset(SimTime::ZERO);
            agg.absorb(&nic);
        }
        assert_eq!(agg.retx_inflight_peak, 2, "sum of per-NIC peaks");
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything: 1/n.
        assert!((jain_index(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        // Mild skew sits in between.
        let j = jain_index(&[4.0, 5.0]);
        assert!(j > 0.98 && j < 1.0, "mild skew: {j}");
    }

    #[test]
    fn tenant_fairness_normalizes_by_weight() {
        let tenant = |id: u32, weight: u32, blocks: u64, ns: u64| TenantMetrics {
            tenant: id,
            weight,
            groups_done: blocks,
            blocks_done: blocks,
            group_latency: Histogram::new(),
            gate_wait: Histogram::new(),
            finished_at: SimTime::from_nanos(ns),
        };
        let mut m = metrics(0, 0, 0.0);
        // Tenant 0 (weight 2) drained its demand in half the time of
        // tenant 1 (weight 1): raw throughput is 2:1, exactly the
        // weight ratio.
        m.tenants = vec![
            tenant(0, 2, 1_000, 500_000_000),
            tenant(1, 1, 1_000, 1_000_000_000),
        ];
        assert!(m.tenant_fairness() < 0.95, "raw rates are skewed");
        assert!(
            m.weighted_tenant_fairness() > 0.999,
            "weight-normalized rates are even: {}",
            m.weighted_tenant_fairness()
        );
    }
}
