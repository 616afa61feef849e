//! Virtual-time telemetry: a deterministic, allocation-bounded
//! time-series sampler over a cluster run.
//!
//! `RunMetrics` reports end-of-run aggregates; dynamics — incast at a
//! shared target NIC, DRR deficit oscillation, the post-crash
//! throughput dip — are invisible in a single p99 number. The
//! telemetry sampler buckets the run into fixed virtual-time windows
//! and records a small set of per-bucket series: delivered groups and
//! blocks (KIOPS), in-flight commands, submission-gate occupancy,
//! per-tenant DRR gate-wait, per-target SSD queue depth, per-NIC
//! retransmit/corruption counts, and completer pending. A stall
//! watchdog pass flags every window in which zero groups delivered
//! while work was pending, annotating the windows that fall inside a
//! crash/recovery span.
//!
//! The discipline is the same as the `StageTrace` subsystem: opt-in
//! via `ClusterConfig.telemetry`, zero overhead when off (no events,
//! no RNG draws, pinned event counts — the sampler only piggybacks on
//! instants the cluster already visits), allocation-bounded when on
//! (`max_buckets` caps the series; later samples clamp into the last
//! bucket and are counted in [`Telemetry::clamped`]), and snapshotted
//! into `RunMetrics.telemetry` so it participates in the determinism
//! snapshot regime.

use rio_sim::{SimDuration, SimTime};

/// Configuration for the virtual-time telemetry sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Width of one sampling window in virtual microseconds.
    pub bucket_us: u64,
    /// Maximum number of windows kept; samples past the end clamp
    /// into the last bucket (counted in [`Telemetry::clamped`]).
    pub max_buckets: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            bucket_us: 50,
            max_buckets: 4096,
        }
    }
}

/// Per-tenant DRR gate-wait accumulated inside one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TenantWait {
    /// Sum of admission waits recorded in this bucket, in ns.
    pub wait_ns: u64,
    /// Number of admissions the sum covers.
    pub waits: u64,
}

/// One fixed-width virtual-time window of the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryBucket {
    /// Observation points that landed in this window (0 = the
    /// cluster never touched a sampling hook here).
    pub samples: u64,
    /// Groups delivered in order to the application in this window.
    pub delivered_groups: u64,
    /// Blocks those groups carried.
    pub delivered_blocks: u64,
    /// Peak in-flight command count observed in this window.
    pub inflight_peak: u32,
    /// Submitted-but-undelivered group count at the window's last
    /// observation point.
    pub pending_end: u64,
    /// Peak submission-gate occupancy (buffered fragments) observed
    /// across all targets in this window.
    pub gate_peak: u32,
    /// Peak in-order completer backlog observed in this window.
    pub completer_peak: u64,
    /// Per-tenant DRR admission wait, indexed like `Telemetry::tenants`.
    pub gate_wait: Vec<TenantWait>,
    /// Peak submitted-but-uncompleted SSD write count per target.
    pub ssd_queue_peak: Vec<u32>,
    /// Retransmitted packets per NIC (initiators first, then targets).
    pub retx_pkts: Vec<u32>,
    /// Corruption-triggered retransmits per NIC, same indexing.
    pub corrupt_pkts: Vec<u32>,
}

/// A crash/recovery span: the fault instant through the moment the
/// workload resumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverySpan {
    /// Index of the fault in the run's `FaultPlan`.
    pub fault: u32,
    /// The crash instant.
    pub from: SimTime,
    /// The instant submission resumed after recovery.
    pub to: SimTime,
}

/// A maximal run of consecutive windows flagged by the stall
/// watchdog: zero groups delivered while work was pending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// Start of the first stalled window.
    pub from: SimTime,
    /// End (exclusive) of the last stalled window.
    pub to: SimTime,
    /// Peak pending-group count carried across the stall.
    pub pending: u64,
    /// The fault whose recovery span overlaps the stall, if any.
    pub recovery: Option<u32>,
}

/// The finished time-series snapshot, folded into
/// `RunMetrics::telemetry`.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// Width of one window.
    pub bucket: SimDuration,
    /// Samples that fell past `max_buckets` and were clamped into the
    /// last window (0 = the series covers the whole run faithfully).
    pub clamped: u64,
    /// Tenant ids, aligning `TelemetryBucket::gate_wait`.
    pub tenants: Vec<u32>,
    /// Target count, aligning `TelemetryBucket::ssd_queue_peak`.
    pub targets: usize,
    /// Initiator count; NIC series index initiators first, then targets.
    pub initiators: usize,
    /// The windows, oldest first. Only windows up to the last one
    /// touched exist; intermediate untouched windows are present but
    /// all-zero (`samples == 0`).
    pub buckets: Vec<TelemetryBucket>,
    /// Crash/recovery spans, in fault order.
    pub recovery_spans: Vec<RecoverySpan>,
    /// Stall-watchdog findings, oldest first.
    pub stalls: Vec<StallWindow>,
}

impl Telemetry {
    /// Start instant of window `i`.
    pub fn bucket_start(&self, i: usize) -> SimTime {
        SimTime::from_nanos(i as u64 * self.bucket.as_nanos())
    }

    /// Delivered thousands of 4K-block IOPS in window `i` (the
    /// figure-style KIOPS axis, from delivered blocks over the
    /// window width).
    pub fn delivered_kiops(&self, i: usize) -> f64 {
        let secs = self.bucket.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.buckets[i].delivered_blocks as f64 / secs / 1e3
    }

    /// Sum of per-bucket delivered group counts (equals
    /// `RunMetrics::groups_done` when nothing clamped mid-delivery;
    /// clamping only merges buckets, so the sum is always exact).
    pub fn total_delivered_groups(&self) -> u64 {
        self.buckets.iter().map(|b| b.delivered_groups).sum()
    }

    /// Sum of per-bucket delivered block counts.
    pub fn total_delivered_blocks(&self) -> u64 {
        self.buckets.iter().map(|b| b.delivered_blocks).sum()
    }
}

/// The live sampler held by the cluster (`None` = telemetry off).
///
/// Purely passive: every method runs at an instant the cluster
/// already visits, schedules nothing, and draws no randomness.
#[derive(Debug)]
pub(crate) struct TelemetrySampler {
    bucket_ns: u64,
    max_buckets: usize,
    clamped: u64,
    buckets: Vec<TelemetryBucket>,
    /// Template bucket with the per-tenant/target/NIC vectors already
    /// sized, cloned when the series grows.
    proto: TelemetryBucket,
    tenants: Vec<u32>,
    n_targets: usize,
    n_initiators: usize,
    // Live gauges, updated by the hooks and folded into bucket peaks.
    inflight: u32,
    pending: u64,
    ssd_q: Vec<u32>,
    spans: Vec<RecoverySpan>,
}

impl TelemetrySampler {
    pub(crate) fn new(
        cfg: &TelemetryConfig,
        tenants: Vec<u32>,
        n_targets: usize,
        n_initiators: usize,
    ) -> Self {
        let proto = TelemetryBucket {
            gate_wait: vec![TenantWait::default(); tenants.len()],
            ssd_queue_peak: vec![0; n_targets],
            retx_pkts: vec![0; n_initiators + n_targets],
            corrupt_pkts: vec![0; n_initiators + n_targets],
            ..TelemetryBucket::default()
        };
        TelemetrySampler {
            bucket_ns: (cfg.bucket_us.max(1)) * 1_000,
            max_buckets: cfg.max_buckets.max(1),
            clamped: 0,
            buckets: Vec::new(),
            proto,
            tenants,
            n_targets,
            n_initiators,
            inflight: 0,
            pending: 0,
            ssd_q: vec![0; n_targets],
            spans: Vec::new(),
        }
    }

    /// The bucket covering `now`, growing (or clamping) the series,
    /// with the gauge-derived fields refreshed.
    fn bucket(&mut self, now: SimTime) -> &mut TelemetryBucket {
        let mut idx = (now.as_nanos() / self.bucket_ns) as usize;
        if idx >= self.max_buckets {
            idx = self.max_buckets - 1;
            self.clamped += 1;
        }
        while self.buckets.len() <= idx {
            self.buckets.push(self.proto.clone());
        }
        let b = &mut self.buckets[idx];
        b.samples += 1;
        b.inflight_peak = b.inflight_peak.max(self.inflight);
        b.pending_end = self.pending;
        b
    }

    /// A command left the initiator NIC.
    pub(crate) fn cmd_sent(&mut self, now: SimTime) {
        self.inflight += 1;
        self.bucket(now);
    }

    /// A command's completion arrived back at the initiator.
    pub(crate) fn cmd_done(&mut self, now: SimTime) {
        self.inflight = self.inflight.saturating_sub(1);
        self.bucket(now);
    }

    /// `n` groups were submitted (entered the undelivered window).
    pub(crate) fn group_submitted(&mut self, now: SimTime, n: u64) {
        self.pending += n;
        self.bucket(now);
    }

    /// `groups` groups carrying `blocks` blocks delivered in order.
    pub(crate) fn delivered(&mut self, now: SimTime, groups: u64, blocks: u64) {
        self.pending = self.pending.saturating_sub(groups);
        let b = self.bucket(now);
        b.delivered_groups += groups;
        b.delivered_blocks += blocks;
    }

    /// `n` groups were rolled back out of the pending window by a
    /// recovery requeue (they re-enter via `group_submitted` when the
    /// thread resubmits them).
    pub(crate) fn requeued(&mut self, now: SimTime, n: u64) {
        self.pending = self.pending.saturating_sub(n);
        self.bucket(now);
    }

    /// Gate occupancy observed at a command's arrival at a target.
    pub(crate) fn gate_depth(&mut self, now: SimTime, depth: u32) {
        let b = self.bucket(now);
        b.gate_peak = b.gate_peak.max(depth);
    }

    /// A DRR admission released a tenant's command after `wait`.
    pub(crate) fn drr_wait(&mut self, now: SimTime, tenant_idx: usize, wait: SimDuration) {
        let b = self.bucket(now);
        b.gate_wait[tenant_idx].wait_ns += wait.as_nanos();
        b.gate_wait[tenant_idx].waits += 1;
    }

    /// A write was admitted to target `t`'s SSD queue.
    pub(crate) fn ssd_admit(&mut self, now: SimTime, t: usize) {
        self.ssd_q[t] += 1;
        let q = self.ssd_q[t];
        let b = self.bucket(now);
        b.ssd_queue_peak[t] = b.ssd_queue_peak[t].max(q);
    }

    /// A write completed on target `t`'s SSDs.
    pub(crate) fn ssd_done(&mut self, now: SimTime, t: usize) {
        self.ssd_q[t] = self.ssd_q[t].saturating_sub(1);
        self.bucket(now);
    }

    /// Initiator NIC `i` retransmitted `pkts` packets (`corrupt` of
    /// them because of payload-digest mismatches).
    pub(crate) fn retx_initiator(&mut self, now: SimTime, i: usize, pkts: u32, corrupt: u32) {
        let b = self.bucket(now);
        b.retx_pkts[i] += pkts;
        b.corrupt_pkts[i] += corrupt;
    }

    /// Target NIC `t` retransmitted `pkts` packets.
    pub(crate) fn retx_target(&mut self, now: SimTime, t: usize, pkts: u32, corrupt: u32) {
        let n = self.n_initiators + t;
        let b = self.bucket(now);
        b.retx_pkts[n] += pkts;
        b.corrupt_pkts[n] += corrupt;
    }

    /// In-order completer backlog observed after a delivery round.
    pub(crate) fn completer_pending(&mut self, now: SimTime, held: u64) {
        let b = self.bucket(now);
        b.completer_peak = b.completer_peak.max(held);
    }

    /// A crash cleared the in-flight state. `drop_pending` mirrors
    /// whether the run tracks replay buffers: without them the
    /// pending window is unrecoverable bookkeeping, so it resets.
    pub(crate) fn crash(&mut self, now: SimTime, drop_pending: bool) {
        self.inflight = 0;
        for q in &mut self.ssd_q {
            *q = 0;
        }
        if drop_pending {
            self.pending = 0;
        }
        self.bucket(now);
    }

    /// Records the recovery span for fault `fault` once the resume
    /// instant is known.
    pub(crate) fn recovery_span(&mut self, fault: u32, from: SimTime, to: SimTime) {
        self.spans.push(RecoverySpan { fault, from, to });
    }

    /// Snapshots the series and runs the stall-watchdog pass.
    pub(crate) fn finish(&self) -> Telemetry {
        let bucket = SimDuration::from_nanos(self.bucket_ns);
        let mut stalls: Vec<StallWindow> = Vec::new();
        // Carry the pending gauge forward over windows the cluster
        // never touched: work that was pending at the last observation
        // stays pending through silent windows.
        let mut carried: u64 = 0;
        let mut open: Option<StallWindow> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            let start = i as u64 * self.bucket_ns;
            let end = start + self.bucket_ns;
            let span = self
                .spans
                .iter()
                .find(|s| s.from.as_nanos() < end && s.to.as_nanos() > start);
            let pending_here = if b.samples > 0 { b.pending_end.max(carried) } else { carried };
            let stalled = b.delivered_groups == 0 && (pending_here > 0 || span.is_some());
            if stalled {
                let w = open.get_or_insert(StallWindow {
                    from: SimTime::from_nanos(start),
                    to: SimTime::from_nanos(end),
                    pending: 0,
                    recovery: None,
                });
                w.to = SimTime::from_nanos(end);
                w.pending = w.pending.max(pending_here);
                if w.recovery.is_none() {
                    w.recovery = span.map(|s| s.fault);
                }
            } else if let Some(w) = open.take() {
                stalls.push(w);
            }
            if b.samples > 0 {
                carried = b.pending_end;
            }
        }
        if let Some(w) = open {
            stalls.push(w);
        }
        Telemetry {
            bucket,
            clamped: self.clamped,
            tenants: self.tenants.clone(),
            targets: self.n_targets,
            initiators: self.n_initiators,
            buckets: self.buckets.clone(),
            recovery_spans: self.spans.clone(),
            stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> TelemetrySampler {
        TelemetrySampler::new(
            &TelemetryConfig {
                bucket_us: 10,
                max_buckets: 8,
            },
            vec![7],
            2,
            1,
        )
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn buckets_grow_on_demand_and_clamp_at_the_cap() {
        let mut s = sampler();
        s.group_submitted(t(5), 1);
        s.delivered(t(25), 1, 2);
        let m = s.finish();
        assert_eq!(m.buckets.len(), 3);
        assert_eq!(m.buckets[0].pending_end, 1);
        assert_eq!(m.buckets[1].samples, 0);
        assert_eq!(m.buckets[2].delivered_groups, 1);
        assert_eq!(m.buckets[2].delivered_blocks, 2);
        assert_eq!(m.clamped, 0);

        // Past the cap, samples clamp into the last bucket.
        s.delivered(t(10_000), 1, 1);
        let m = s.finish();
        assert_eq!(m.buckets.len(), 8);
        assert_eq!(m.buckets[7].delivered_groups, 1);
        assert_eq!(m.clamped, 1);
        assert_eq!(m.total_delivered_groups(), 2);
    }

    #[test]
    fn gauges_track_peaks_per_bucket() {
        let mut s = sampler();
        s.cmd_sent(t(1));
        s.cmd_sent(t(2));
        s.ssd_admit(t(3), 1);
        s.ssd_admit(t(4), 1);
        s.cmd_done(t(5));
        s.ssd_done(t(12), 1);
        s.gate_depth(t(13), 9);
        s.completer_pending(t(14), 4);
        let m = s.finish();
        assert_eq!(m.buckets[0].inflight_peak, 2);
        assert_eq!(m.buckets[0].ssd_queue_peak, vec![0, 2]);
        assert_eq!(m.buckets[1].inflight_peak, 1);
        assert_eq!(m.buckets[1].gate_peak, 9);
        assert_eq!(m.buckets[1].completer_peak, 4);
    }

    #[test]
    fn nic_series_index_initiators_then_targets() {
        let mut s = sampler();
        s.retx_initiator(t(1), 0, 3, 1);
        s.retx_target(t(1), 1, 2, 0);
        let m = s.finish();
        assert_eq!(m.buckets[0].retx_pkts, vec![3, 0, 2]);
        assert_eq!(m.buckets[0].corrupt_pkts, vec![1, 0, 0]);
    }

    #[test]
    fn drr_wait_accumulates_per_tenant() {
        let mut s = sampler();
        s.drr_wait(t(2), 0, SimDuration::from_nanos(5_000));
        s.drr_wait(t(3), 0, SimDuration::from_nanos(7_000));
        let m = s.finish();
        assert_eq!(m.buckets[0].gate_wait[0].wait_ns, 12_000);
        assert_eq!(m.buckets[0].gate_wait[0].waits, 2);
    }

    #[test]
    fn watchdog_flags_pending_windows_without_deliveries() {
        let mut s = sampler();
        s.group_submitted(t(5), 3);
        // Nothing delivers in windows 1-2 (no samples at all), then
        // everything delivers in window 3.
        s.delivered(t(35), 3, 3);
        let m = s.finish();
        // Windows 0-2 merge into one stall: pending grew to 3 in
        // window 0 and the carried gauge keeps 1-2 flagged.
        assert_eq!(m.stalls.len(), 1);
        assert_eq!(m.stalls[0].from, t(0));
        assert_eq!(m.stalls[0].to, t(30));
        assert_eq!(m.stalls[0].pending, 3);
        assert!(m.stalls.iter().all(|w| w.recovery.is_none()));
    }

    #[test]
    fn watchdog_annotates_recovery_spans() {
        let mut s = sampler();
        s.group_submitted(t(5), 2);
        s.delivered(t(8), 2, 2);
        // Crash at 12us, recovery runs until 28us; nothing pending
        // (no replay tracking), yet the span keeps the watchdog on.
        s.crash(t(12), true);
        s.recovery_span(0, t(12), t(28));
        s.delivered(t(31), 1, 1);
        let m = s.finish();
        assert_eq!(m.recovery_spans.len(), 1);
        assert_eq!(m.stalls.len(), 1);
        assert_eq!(m.stalls[0].from, t(10));
        assert_eq!(m.stalls[0].to, t(30));
        assert_eq!(m.stalls[0].recovery, Some(0));
    }

    #[test]
    fn crash_clears_gauges_and_requeue_shrinks_pending() {
        let mut s = sampler();
        s.cmd_sent(t(1));
        s.ssd_admit(t(2), 0);
        s.group_submitted(t(3), 4);
        s.crash(t(5), false);
        assert_eq!(s.inflight, 0);
        assert_eq!(s.ssd_q, vec![0, 0]);
        assert_eq!(s.pending, 4);
        s.delivered(t(6), 1, 1);
        s.requeued(t(6), 3);
        assert_eq!(s.pending, 0);
    }

    #[test]
    fn kiops_axis_comes_from_blocks_over_the_window() {
        let mut s = sampler();
        s.delivered(t(1), 10, 100);
        let m = s.finish();
        // 100 blocks in a 10us window = 10M blocks/s = 10_000 KIOPS.
        assert!((m.delivered_kiops(0) - 10_000.0).abs() < 1e-9);
        assert_eq!(m.bucket_start(1), t(10));
    }
}
