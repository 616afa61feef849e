//! The fabric, NICs, queue pairs, paths, and go-back-N retransmission.
//!
//! Messages are segmented into MTU-sized packets. Each packet samples a
//! deterministic per-packet drop from the fabric's [`SimRng`]; a drop
//! triggers go-back-N recovery: the sender finishes transmitting the
//! current window (the receiver discards everything after the gap),
//! waits one retransmission timeout, and resends from the lost packet.
//! Every NIC carries one or more *paths* — independent egress links
//! with their own latency, bandwidth and jitter — and each queue pair
//! is pinned to a path (with optional migration).
//!
//! The fabric stays passive: operations take `now` and either return a
//! delivery instant or a [`XferStep::Dropped`] resumption point the
//! caller schedules as an event. No operation runs a retransmission
//! loop itself, so a resend draws from the rng and books its egress
//! link at the instant its event fires, in order with all other traffic.

use rio_sim::{BandwidthLink, SimDuration, SimRng, SimTime};

/// One physical network path: an independent egress lane with its own
/// latency, bandwidth and jitter (e.g. distinct switch hops in a Clos
/// fabric, or rails of a multi-rail NIC).
#[derive(Debug, Clone, PartialEq)]
pub struct PathProfile {
    /// One-way small-message latency in microseconds on this path.
    pub one_way_latency_us: f64,
    /// Path bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Latency jitter amplitude on this path.
    pub jitter: f64,
}

/// Fabric segmentation, loss and recovery parameters, and its paths —
/// which alone carry the timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricProfile {
    /// Maximum transmission unit: messages are segmented into packets
    /// of at most this many bytes.
    pub mtu_bytes: u32,
    /// Per-packet drop probability, clamped to `[0, 0.995]` so
    /// go-back-N recovery always terminates.
    pub loss_rate: f64,
    /// Per-packet in-flight corruption probability, clamped like
    /// [`FabricProfile::loss_rate`]. A corrupted packet is delivered,
    /// fails the receiver's CRC-32C payload check, and is NAKed into
    /// the same go-back-N recovery a drop takes — the wire cost is
    /// identical, the bookkeeping separates the causes.
    pub corrupt_rate: f64,
    /// Go-back-N recovery latency in microseconds: a lost packet
    /// stalls its message for this long before the window resends.
    /// The default models NAK-triggered recovery (the receiver spots
    /// the sequence gap from later traffic on the QP and NAKs within a
    /// few round trips), not a full RNR/ack timeout.
    pub rto_us: f64,
    /// Messages per queue pair between path migrations; `0` pins each
    /// QP to its initial path forever. When non-zero, a retransmission
    /// timeout also fails the QP over to the next path.
    pub migrate_every: u64,
    /// The paths of this fabric, each with its own latency, bandwidth
    /// and jitter. Must not be empty: every transfer rides one of them.
    /// The constructors build one path.
    pub paths: Vec<PathProfile>,
}

impl FabricProfile {
    fn base(one_way_latency_us: f64, bandwidth: f64, jitter: f64) -> Self {
        FabricProfile {
            mtu_bytes: 4096,
            loss_rate: 0.0,
            corrupt_rate: 0.0,
            rto_us: 25.0,
            migrate_every: 0,
            paths: vec![PathProfile {
                one_way_latency_us,
                bandwidth,
                jitter,
            }],
        }
    }

    /// ConnectX-6 class fabric: one 200 Gbps path, ~1.8 µs one-way.
    pub fn connectx6() -> Self {
        FabricProfile::base(1.8, 25.0e9, 0.25)
    }

    /// A kernel-TCP fabric on the same 200 Gbps link: an order of
    /// magnitude more one-way latency (socket + softirq path). Each
    /// socket preserves delivery order, so scheduler Principle 2 maps
    /// onto stream-per-socket exactly as §4.5 notes.
    pub fn tcp_200g() -> Self {
        FabricProfile::base(15.0, 25.0e9, 0.35)
    }

    /// Enables per-packet loss at `rate` with retransmission timeout
    /// `rto_us` microseconds.
    pub fn with_loss(mut self, rate: f64, rto_us: f64) -> Self {
        self.loss_rate = rate.clamp(0.0, 0.995);
        self.rto_us = rto_us.max(0.0);
        self
    }

    /// Enables per-packet in-flight corruption at `rate`. A corrupted
    /// packet rides the wire normally but fails the receiver's payload
    /// digest check, which NAKs it into the same go-back-N window a
    /// drop enters.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 0.995);
        self
    }

    /// Replaces the path set with `n` asymmetric paths: the paths'
    /// total bandwidth is split evenly, and path `i` has path 0's
    /// latency times `1 + spread * i` — path 0 stays the fastest — and
    /// path 0's jitter. An empty path set stays empty.
    pub fn with_paths(mut self, n: usize, latency_spread: f64) -> Self {
        let Some(base) = self.paths.first().cloned() else {
            return self;
        };
        let n = n.max(1);
        let bandwidth = self.paths.iter().map(|p| p.bandwidth).sum::<f64>() / n as f64;
        self.paths = (0..n)
            .map(|i| PathProfile {
                one_way_latency_us: base.one_way_latency_us
                    * (1.0 + latency_spread.max(0.0) * i as f64),
                bandwidth,
                jitter: base.jitter,
            })
            .collect();
        self
    }

    /// Enables path migration: every `every` messages a queue pair
    /// rotates to the next path, and a retransmission timeout fails the
    /// QP over immediately. `0` disables migration.
    pub fn with_migration(mut self, every: u64) -> Self {
        self.migrate_every = every;
        self
    }

    /// Packets needed for a `bytes`-sized message at this MTU.
    pub fn packets_for(&self, bytes: u64) -> u32 {
        let mtu = self.mtu_bytes.max(1) as u64;
        bytes.div_ceil(mtu).max(1) as u32
    }
}

/// Per-path transmit statistics of one NIC.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PathStats {
    /// Packets transmitted on this path (including discarded tails and
    /// retransmissions).
    pub packets: u64,
    /// Bytes serialized onto this path.
    pub bytes: u64,
    /// Packets the fabric dropped on this path.
    pub drops: u64,
    /// Packets retransmitted on this path after a timeout.
    pub retransmits: u64,
}

/// Per-NIC statistics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NicStats {
    /// Two-sided SEND operations posted.
    pub sends: u64,
    /// One-sided operations issued.
    pub one_sided: u64,
    /// Total bytes serialized onto the egress links.
    pub bytes_out: u64,
    /// Packets transmitted (segmentation makes this ≥ message count).
    pub packets: u64,
    /// Packets the fabric dropped.
    pub drops: u64,
    /// Packets retransmitted after a go-back-N timeout.
    pub retransmits: u64,
    /// Recovery rounds entered (timeouts fired).
    pub retx_rounds: u64,
    /// Messages currently stalled awaiting a retransmission timeout.
    pub retx_inflight: u64,
    /// Peak of [`NicStats::retx_inflight`] over the run.
    pub retx_inflight_peak: u64,
    /// Packets the fabric corrupted in flight.
    pub corrupt_injected: u64,
    /// Corrupted packets the receiver's digest check caught and NAKed.
    /// The fabric model delivers no silent corruption, so this always
    /// equals [`NicStats::corrupt_injected`]; keeping both makes the
    /// "every injected corruption is detected" ledger explicit.
    pub corrupt_detected: u64,
    /// Packets re-fetched because a corruption (not a drop) cut the
    /// window: the corrupted packet and the go-back-N tail behind it.
    pub corrupt_refetched: u64,
}

/// One reliable-connected queue pair's delivery cursor and path pin.
#[derive(Debug, Clone, Copy)]
struct QueuePair {
    last_delivery: SimTime,
    path: u32,
    msgs: u64,
}

/// One egress path of a NIC: the wire plus its counters.
#[derive(Debug)]
struct PathPort {
    link: BandwidthLink,
    stats: PathStats,
}

/// A network interface with per-path egress links and queue pairs.
#[derive(Debug)]
pub struct Nic {
    paths: Vec<PathPort>,
    qps: Vec<QueuePair>,
    stats: NicStats,
}

impl Nic {
    /// Creates a NIC with one egress link per path of `profile`, and
    /// queue pairs pinned round-robin across the paths.
    ///
    /// # Panics
    ///
    /// Panics if `n_qps` is zero.
    pub fn for_profile(n_qps: usize, profile: &FabricProfile) -> Self {
        assert!(n_qps > 0, "need at least one queue pair");
        let paths: Vec<PathPort> = profile
            .paths
            .iter()
            .map(|p| PathPort {
                link: BandwidthLink::new(p.bandwidth),
                stats: PathStats::default(),
            })
            .collect();
        let n_paths = paths.len().max(1);
        Nic {
            paths,
            qps: (0..n_qps)
                .map(|q| QueuePair {
                    last_delivery: SimTime::ZERO,
                    path: (q % n_paths) as u32,
                    msgs: 0,
                })
                .collect(),
            stats: NicStats::default(),
        }
    }

    /// NIC statistics.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Per-path transmit statistics, indexed by path.
    pub fn path_stats(&self) -> Vec<PathStats> {
        self.paths.iter().map(|p| p.stats.clone()).collect()
    }

    /// Resets in-flight state (crash / reconnect): delivery cursors,
    /// path pins and message counters return to their initial values,
    /// transfers still queued on an egress link are dropped (the first
    /// message after the crash waits for none of them), and messages
    /// parked in retransmission are forgotten (their resend events died
    /// with the crash). Cumulative statistics — including the
    /// retransmission-inflight peak — are kept.
    ///
    /// Crash handlers must call this whenever they also discard the
    /// simulation events that would have driven this NIC's pending
    /// `resume_*` calls; otherwise [`NicStats::retx_inflight`] leaks the
    /// messages that were parked in retransmission at the crash, and a
    /// stale post-crash delivery would underflow the counter.
    pub fn crash_reset(&mut self, now: SimTime) {
        let n_paths = self.paths.len().max(1);
        for (q, qp) in self.qps.iter_mut().enumerate() {
            qp.last_delivery = now;
            qp.path = (q % n_paths) as u32;
            qp.msgs = 0;
        }
        for p in &mut self.paths {
            p.link.reset(now);
        }
        self.stats.retx_inflight = 0;
    }

    /// Books one transmit round of a message whose go-back-N window
    /// this NIC carries: a drop enters recovery (or stays in it), and a
    /// resumed window that delivers settles. The settle never wraps:
    /// after a crash reset the counter is zero, and a stale post-crash
    /// delivery must leave it there.
    fn book_round(&mut self, step: XferStep, resumed: bool) {
        let s = &mut self.stats;
        match step {
            XferStep::Dropped { .. } => {
                s.retx_rounds += 1;
                if !resumed {
                    s.retx_inflight += 1;
                    s.retx_inflight_peak = s.retx_inflight_peak.max(s.retx_inflight);
                }
            }
            XferStep::Delivered { .. } if resumed => {
                debug_assert!(
                    s.retx_inflight > 0,
                    "retransmission settled with no message parked (stale post-crash delivery?)"
                );
                s.retx_inflight = s.retx_inflight.saturating_sub(1);
            }
            XferStep::Delivered { .. } => {}
        }
    }
}

/// Outcome of one transmit round of a message.
///
/// Event-driven callers schedule `Dropped::resume_at` as a simulation
/// event and pass `pkts_left` back to [`Fabric::transfer`] there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum XferStep {
    /// Every packet arrived; the message is delivered at `at`.
    Delivered {
        /// Delivery instant at the receiver.
        at: SimTime,
    },
    /// A packet was dropped or corrupted mid-message; go-back-N
    /// resumes at `resume_at` with `pkts_left` packets still to
    /// deliver.
    Dropped {
        /// Instant the retransmission timeout fires.
        resume_at: SimTime,
        /// Packets not yet delivered (the failed one and its tail).
        pkts_left: u32,
        /// Whether the window was cut by an in-flight corruption the
        /// receiver NAKed (`true`) rather than a silent drop
        /// (`false`). Tracing uses this to attribute the retransmit.
        corrupted: bool,
    },
}

/// The NICs a transfer runs between.
#[derive(Debug)]
pub enum Ends<'a> {
    /// A two-sided SEND: the message leaves this NIC, which also
    /// carries its go-back-N window.
    Send(&'a mut Nic),
    /// A one-sided RDMA READ: no remote CPU is involved.
    Read {
        /// Sends the read request, receives the data and carries the
        /// go-back-N window.
        reader: &'a mut Nic,
        /// Holds the memory read; the data leaves it.
        source: &'a mut Nic,
    },
}

/// The fabric: per-path latency models plus a deterministic drop and
/// jitter source.
#[derive(Debug)]
pub struct Fabric {
    profile: FabricProfile,
    rng: SimRng,
}

impl Fabric {
    /// Creates a fabric with a deterministic jitter/drop seed.
    pub fn new(mut profile: FabricProfile, seed: u64) -> Self {
        profile.loss_rate = profile.loss_rate.clamp(0.0, 0.995);
        profile.corrupt_rate = profile.corrupt_rate.clamp(0.0, 0.995);
        Fabric {
            profile,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// The fabric profile.
    pub fn profile(&self) -> &FabricProfile {
        &self.profile
    }

    /// Changes the in-flight corruption rate mid-run (the
    /// `PacketCorrupt` fault injects through this). Clamped like the
    /// constructor.
    pub fn set_corrupt_rate(&mut self, rate: f64) {
        self.profile.corrupt_rate = rate.clamp(0.0, 0.995);
    }

    /// One-way latency sample on path `p`.
    fn latency_on(&mut self, p: usize) -> SimDuration {
        let path = &self.profile.paths[p];
        SimDuration::from_micros_f64(path.one_way_latency_us * self.rng.jitter(path.jitter))
    }

    /// Retransmission timeout.
    fn rto(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.profile.rto_us)
    }

    /// Samples one packet's fate, counted on the `nic` it leaves:
    /// `None` if it got through, else whether it was corrupted (it
    /// arrives, its payload digest does not verify, the receiver NAKs
    /// the window) rather than dropped. The `rate > 0` short-circuits
    /// keep the rng stream identical when a fault class is disabled.
    fn pkt_fails(&mut self, nic: &mut Nic) -> Option<bool> {
        let p = &self.profile;
        if p.loss_rate > 0.0 && self.rng.chance(p.loss_rate) {
            nic.stats.drops += 1;
            Some(false)
        } else if p.corrupt_rate > 0.0 && self.rng.chance(p.corrupt_rate) {
            nic.stats.corrupt_injected += 1;
            nic.stats.corrupt_detected += 1;
            Some(true)
        } else {
            None
        }
    }

    /// Size of packet `idx` of a `bytes` message split into `total`.
    fn pkt_bytes(&self, bytes: u64, total: u32, idx: u32) -> u64 {
        let mtu = self.profile.mtu_bytes.max(1) as u64;
        if idx + 1 < total {
            mtu
        } else {
            bytes - mtu * (total as u64 - 1)
        }
    }

    /// The path `qp` of `nic` currently uses (clamped so profiles and
    /// NICs with different path counts stay compatible).
    fn qp_path(&self, nic: &Nic, qp: usize) -> usize {
        nic.qps[qp].path as usize % nic.paths.len().min(self.profile.paths.len()).max(1)
    }

    /// Rotates `qp` to the next path when migration is enabled.
    fn migrate(&self, nic: &mut Nic, qp: usize) {
        if self.profile.migrate_every > 0 {
            let n = nic.paths.len().min(self.profile.paths.len()).max(1) as u32;
            nic.qps[qp].path = (nic.qps[qp].path + 1) % n;
        }
    }

    /// Transmits the remaining window of a message: packets
    /// `total - pkts_left .. total`. On a drop the sender still
    /// serializes the rest of the window (the receiver discards it —
    /// go-back-N wastes that bandwidth) and times out `rto` later.
    /// `ordered` messages respect and advance the per-QP delivery
    /// cursor; one-sided data bursts do not.
    #[allow(clippy::too_many_arguments)]
    fn xmit_round(
        &mut self,
        nic: &mut Nic,
        qp: usize,
        now: SimTime,
        bytes: u64,
        pkts_left: u32,
        resumed: bool,
        ordered: bool,
    ) -> XferStep {
        let total = self.profile.packets_for(bytes);
        debug_assert!(pkts_left >= 1 && pkts_left <= total);
        let first = total - pkts_left;
        let p = self.qp_path(nic, qp);
        let mut cursor = now;
        // Go-back-N: loss and corruption are sampled per packet until
        // the first failure; the already-queued tail of the window
        // still burns wire time (and is counted) but the receiver
        // discards it.
        let mut failed_at: Option<(u32, bool)> = None;
        for i in first..total {
            let pb = self.pkt_bytes(bytes, total, i);
            cursor = nic.paths[p].link.transfer(cursor, pb);
            nic.paths[p].stats.packets += 1;
            nic.paths[p].stats.bytes += pb;
            nic.stats.packets += 1;
            nic.stats.bytes_out += pb;
            if resumed {
                nic.paths[p].stats.retransmits += 1;
                nic.stats.retransmits += 1;
            }
            if failed_at.is_none() {
                if let Some(corrupted) = self.pkt_fails(nic) {
                    nic.paths[p].stats.drops += u64::from(!corrupted);
                    failed_at = Some((i, corrupted));
                }
            }
        }
        if let Some((i, corrupted)) = failed_at {
            if corrupted {
                nic.stats.corrupt_refetched += u64::from(total - i);
            }
            // Timeout, then (optionally) fail over to another path.
            self.migrate(nic, qp);
            return XferStep::Dropped {
                resume_at: cursor + self.rto(),
                pkts_left: total - i,
                corrupted,
            };
        }
        // The message is delivered when its last packet lands; only
        // that packet's propagation latency matters, so sample jitter
        // once per round, not per packet.
        let last_arrival = cursor + self.latency_on(p);
        let at = if ordered {
            // RC in-order delivery within the queue pair: a message never
            // overtakes an earlier *delivered* message of the same QP. A
            // message stuck in retransmission can be overtaken — exactly
            // the reordering Rio's target-side attributes absorb.
            let d = last_arrival.max(nic.qps[qp].last_delivery);
            nic.qps[qp].last_delivery = d;
            d
        } else {
            last_arrival
        };
        XferStep::Delivered { at }
    }

    /// Moves one message between `ends` on queue pair `qp` of the NIC
    /// the data leaves, at `now`: the whole message when `window` is
    /// `None`, else the go-back-N window of that many packets a
    /// [`XferStep::Dropped`] parked. Returns the delivery instant or the
    /// next point to resume at. SENDs on one QP deliver in order and
    /// count toward path migration. A READ first sends a header-only
    /// request from the reader (no payload and no path: it rides the
    /// reverse direction); a window above the data's packet count marks
    /// that request lost, and its retry sends the data as a first try.
    /// The receiver's CPU cost is the caller's.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range queue pair.
    pub fn transfer(
        &mut self,
        ends: Ends<'_>,
        qp: usize,
        now: SimTime,
        bytes: u64,
        window: Option<u32>,
    ) -> XferStep {
        let (source, mut reader) = match ends {
            Ends::Send(src) => (src, None),
            Ends::Read { reader, source } => (source, Some(reader)),
        };
        assert!(qp < source.qps.len(), "queue pair {qp} out of range");
        let total = self.profile.packets_for(bytes);
        let step = match (reader.as_deref_mut(), window) {
            (None, None) => {
                source.stats.sends += 1;
                source.qps[qp].msgs += 1;
                let every = self.profile.migrate_every;
                if every > 0 && source.qps[qp].msgs % every == 0 {
                    self.migrate(source, qp);
                }
                self.xmit_round(source, qp, now, bytes, total, false, true)
            }
            (None, Some(pkts)) => self.xmit_round(source, qp, now, bytes, pkts, true, true),
            (Some(_), Some(pkts)) if pkts <= total => {
                self.xmit_round(source, qp, now, bytes, pkts, true, false)
            }
            (Some(reader), _) => {
                // The request: a first try, or the retry of a lost one.
                reader.stats.one_sided += u64::from(window.is_none());
                reader.stats.retransmits += u64::from(window.is_some());
                reader.stats.packets += 1;
                match self.pkt_fails(reader) {
                    Some(corrupted) => {
                        reader.stats.corrupt_refetched += u64::from(corrupted);
                        let resume_at = now + self.rto();
                        XferStep::Dropped { resume_at, pkts_left: total + 1, corrupted }
                    }
                    None => {
                        let request_at = now + self.latency_on(self.qp_path(source, qp));
                        self.xmit_round(source, qp, request_at, bytes, total, false, false)
                    }
                }
            }
        };
        reader.unwrap_or(source).book_round(step, window.is_some());
        step
    }

    /// What resending a parked `window` of a `bytes` message puts back
    /// on the wire: the packets it retransmits, and whether they leave
    /// the reader of a READ (`read`) rather than the NIC the data
    /// leaves. Only a READ whose request was lost resends from the
    /// reader, and then only that one header packet.
    pub fn resend(&self, read: bool, bytes: u64, window: u32) -> (u32, bool) {
        if read && window > self.profile.packets_for(bytes) {
            (1, true)
        } else {
            (window, false)
        }
    }

    /// Posts a two-sided SEND of `bytes` on `qp` of `src`: a first
    /// [`Fabric::transfer`].
    pub fn send_burst(&mut self, src: &mut Nic, qp: usize, now: SimTime, bytes: u64) -> XferStep {
        self.transfer(Ends::Send(src), qp, now, bytes, None)
    }

    /// Issues a one-sided RDMA READ of `bytes` from `source`'s memory
    /// by `reader` over `qp`: a first [`Fabric::transfer`].
    pub fn pull_burst(
        &mut self,
        reader: &mut Nic,
        source: &mut Nic,
        qp: usize,
        now: SimTime,
        bytes: u64,
    ) -> XferStep {
        self.transfer(Ends::Read { reader, source }, qp, now, bytes, None)
    }

    /// Resumes a dropped RDMA READ with the `pkts_left` window its
    /// [`XferStep::Dropped`] parked.
    pub fn resume_pull(
        &mut self,
        reader: &mut Nic,
        source: &mut Nic,
        qp: usize,
        now: SimTime,
        pkts_left: u32,
        bytes: u64,
    ) -> XferStep {
        self.transfer(Ends::Read { reader, source }, qp, now, bytes, Some(pkts_left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fabric() -> Fabric {
        Fabric::new(FabricProfile::connectx6(), 7)
    }

    /// Drives one SEND on `qp` to delivery the way the cluster's event
    /// loop does: every `Dropped` step resumes at its timeout.
    fn send(f: &mut Fabric, src: &mut Nic, qp: usize, now: SimTime, bytes: u64) -> SimTime {
        let mut step = f.send_burst(src, qp, now, bytes);
        loop {
            match step {
                XferStep::Delivered { at } => return at,
                XferStep::Dropped {
                    resume_at,
                    pkts_left,
                    ..
                } => step = resend(f, src, qp, resume_at, pkts_left, bytes),
            }
        }
    }

    /// Resumes a parked SEND window of `pkts` packets at `now`.
    fn resend(
        f: &mut Fabric,
        src: &mut Nic,
        qp: usize,
        now: SimTime,
        pkts: u32,
        bytes: u64,
    ) -> XferStep {
        f.transfer(Ends::Send(src), qp, now, bytes, Some(pkts))
    }

    /// Drives one RDMA READ on queue pair 0 to delivery the way the
    /// cluster's event loop does: every `Dropped` step resumes at its
    /// timeout.
    fn pull(
        f: &mut Fabric,
        reader: &mut Nic,
        source: &mut Nic,
        now: SimTime,
        bytes: u64,
    ) -> SimTime {
        let mut step = f.pull_burst(reader, source, 0, now, bytes);
        loop {
            match step {
                XferStep::Delivered { at } => return at,
                XferStep::Dropped {
                    resume_at,
                    pkts_left,
                    ..
                } => step = f.resume_pull(reader, source, 0, resume_at, pkts_left, bytes),
            }
        }
    }

    #[test]
    fn lossy_pulls_always_deliver_and_settle() {
        let profile = FabricProfile::connectx6().with_loss(0.3, 20.0);
        let mut f = Fabric::new(profile, 17);
        let mut reader = Nic::for_profile(1, f.profile());
        let mut source = Nic::for_profile(1, f.profile());
        for i in 0..64 {
            let now = SimTime::from_nanos(i * 100_000);
            assert!(pull(&mut f, &mut reader, &mut source, now, 16 * 1024) >= now);
        }
        // Lost requests are charged to the reader, lost data to the
        // source; every parked read was settled on the reader.
        assert!(reader.stats().drops > 0 && source.stats().drops > 0);
        assert!(source.stats().retransmits > 0);
        assert_eq!(reader.stats().one_sided, 64);
        assert_eq!(reader.stats().retx_inflight, 0);
    }

    #[test]
    fn send_latency_near_profile() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(4, f.profile());
        let d = send(&mut f, &mut nic, 0, SimTime::ZERO, 64);
        let us = d.as_micros_f64();
        assert!((1.0..3.0).contains(&us), "delivery at {us} us");
    }

    #[test]
    fn same_qp_delivery_is_fifo() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(1, f.profile());
        let mut prev = SimTime::ZERO;
        for i in 0..200 {
            let d = send(&mut f, &mut nic, 0, SimTime::from_nanos(i * 10), 64);
            assert!(d >= prev, "RC in-order delivery violated at send {i}");
            prev = d;
        }
    }

    #[test]
    fn cross_qp_can_reorder() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(8, f.profile());
        // Send on alternating QPs at identical instants; jitter must
        // produce at least one inversion over enough trials.
        let mut inverted = false;
        let mut last_a = SimTime::ZERO;
        for i in 0..100 {
            let now = SimTime::from_nanos(i * 1000);
            let a = send(&mut f, &mut nic, 0, now, 64);
            let b = send(&mut f, &mut nic, 1, now, 64);
            if b < a || a < last_a {
                inverted = true;
            }
            last_a = a;
        }
        assert!(inverted, "expected cross-QP reordering from jitter");
    }

    #[test]
    fn large_transfer_pays_serialization() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(1, f.profile());
        let small = send(&mut f, &mut nic, 0, SimTime::ZERO, 64);
        let mut f2 = fabric();
        let mut nic2 = Nic::for_profile(1, f2.profile());
        // 1 MB at 25 GB/s is 40 us of wire time.
        let large = send(&mut f2, &mut nic2, 0, SimTime::ZERO, 1 << 20);
        let delta = large.as_micros_f64() - small.as_micros_f64();
        assert!(delta > 30.0, "1 MB should add ≥30 us, added {delta}");
    }

    #[test]
    fn egress_is_shared_across_qps() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(2, f.profile());
        // Two 1 MB sends at t=0 on different QPs serialize on the wire.
        let a = send(&mut f, &mut nic, 0, SimTime::ZERO, 1 << 20);
        let b = send(&mut f, &mut nic, 1, SimTime::ZERO, 1 << 20);
        assert!(
            b.as_micros_f64() > a.as_micros_f64() + 25.0,
            "second transfer must queue behind the first"
        );
    }

    #[test]
    fn rdma_read_round_trip_and_no_reader_egress() {
        let mut f = fabric();
        let mut initiator = Nic::for_profile(1, f.profile());
        let mut target = Nic::for_profile(1, f.profile());
        // Target reads 8 KB from the initiator (NVMe-oF write data pull).
        let done = pull(&mut f, &mut target, &mut initiator, SimTime::ZERO, 8192);
        let us = done.as_micros_f64();
        // Two latencies plus ~0.33 us of wire time.
        assert!((2.5..8.0).contains(&us), "read completed at {us} us");
        assert_eq!(target.stats().one_sided, 1);
        assert_eq!(initiator.stats().bytes_out, 8192, "data leaves the source");
        assert_eq!(target.stats().bytes_out, 0, "reader sends no payload");
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(2, f.profile());
        send(&mut f, &mut nic, 0, SimTime::ZERO, 100);
        send(&mut f, &mut nic, 1, SimTime::ZERO, 100);
        assert_eq!(nic.stats().sends, 2);
        assert_eq!(nic.stats().bytes_out, 200);
        assert_eq!(nic.stats().packets, 2, "one packet per small message");
        assert_eq!(nic.stats().drops, 0);
    }

    #[test]
    fn reset_clears_cursors() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(1, f.profile());
        send(&mut f, &mut nic, 0, SimTime::ZERO, 1 << 20);
        nic.crash_reset(SimTime::from_nanos(500));
        // After reset a send is held behind neither the old cursor nor
        // the ~40 µs of the dead 1 MB transfer still queued on the link.
        let d = send(&mut f, &mut nic, 0, SimTime::from_nanos(500), 64);
        assert!(d.as_micros_f64() < 5.0, "delivered at {d:?}");
    }

    #[test]
    fn crash_reset_forgets_parked_retransmissions() {
        let profile = FabricProfile::connectx6().with_loss(0.995, 10.0);
        let mut f = Fabric::new(profile, 1);
        let mut nic = Nic::for_profile(1, f.profile());
        // Park a message in go-back-N recovery, then crash before its
        // resend timeout: the parked message must be forgotten.
        let step = f.send_burst(&mut nic, 0, SimTime::ZERO, 64);
        if matches!(step, XferStep::Delivered { .. }) {
            return; // 0.5% chance; nothing parked, nothing to test.
        }
        assert_eq!(nic.stats().retx_inflight, 1);
        let drops_before = nic.stats().drops;
        nic.crash_reset(SimTime::from_nanos(1_000));
        assert_eq!(nic.stats().retx_inflight, 0, "crash forgets the window");
        assert_eq!(nic.stats().drops, drops_before, "cumulative stats survive");
        // Post-crash traffic must not underflow the settled counter: a
        // fresh lossless fabric delivers and the counter stays at zero.
        let mut clean = Fabric::new(FabricProfile::connectx6(), 2);
        let d = send(&mut clean, &mut nic, 0, SimTime::from_nanos(1_000), 64);
        assert!(d >= SimTime::from_nanos(1_000));
        assert_eq!(nic.stats().retx_inflight, 0);
    }

    #[test]
    fn multi_round_retransmits_count_windows_not_window_times_rounds() {
        // A go-back-N resend retransmits only the window from the lost
        // packet onward (`pkts_left`), never the whole message again.
        // Scan seeds for a send needing >= 3 recovery rounds with at
        // least one mid-window drop, then check the NIC retransmit
        // counter equals the sum of the resumed windows — the same
        // quantity the stage-trace layer annotates per command, so any
        // double-count here would unbalance the trace/wire ledger.
        let bytes = 64 * 1024; // 16 packets at the 4 KB MTU.
        for seed in 0..1_000u64 {
            let profile = FabricProfile::connectx6().with_loss(0.25, 10.0);
            let mut f = Fabric::new(profile, seed);
            let mut nic = Nic::for_profile(1, f.profile());
            let total = f.profile().packets_for(bytes);
            assert!(total >= 8, "need a multi-packet message");
            let mut step = f.send_burst(&mut nic, 0, SimTime::ZERO, bytes);
            let mut windows: Vec<u32> = Vec::new();
            while let XferStep::Dropped {
                resume_at,
                pkts_left,
                ..
            } = step
            {
                assert!(pkts_left >= 1 && pkts_left <= total);
                windows.push(pkts_left);
                step = resend(&mut f, &mut nic, 0, resume_at, pkts_left, bytes);
            }
            let rounds = windows.len() as u64;
            if rounds < 3 || !windows.iter().any(|w| *w < total) {
                continue;
            }
            let expected: u64 = windows.iter().map(|w| u64::from(*w)).sum();
            assert_eq!(nic.stats().retransmits, expected, "seed {seed}");
            assert_eq!(nic.stats().retx_rounds, rounds, "seed {seed}");
            assert!(
                nic.stats().retransmits < u64::from(total) * rounds,
                "full-message resends every round would inflate the count (seed {seed})"
            );
            assert_eq!(nic.stats().retx_inflight, 0, "recovery settled (seed {seed})");
            return;
        }
        panic!("no seed produced a 3-round retransmission with a mid-window drop");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_qp_rejected() {
        let mut f = fabric();
        let mut nic = Nic::for_profile(1, f.profile());
        send(&mut f, &mut nic, 3, SimTime::ZERO, 64);
    }

    #[test]
    fn tcp_profile_is_slower_but_ordered() {
        let mut f = Fabric::new(FabricProfile::tcp_200g(), 7);
        let mut nic = Nic::for_profile(2, f.profile());
        let d = send(&mut f, &mut nic, 0, SimTime::ZERO, 64);
        assert!(d.as_micros_f64() > 8.0, "TCP latency should dwarf RDMA");
        // Per-socket FIFO still holds.
        let mut prev = SimTime::ZERO;
        for i in 0..50 {
            let d = send(&mut f, &mut nic, 0, SimTime::from_nanos(i * 100), 64);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn determinism_same_seed_same_timing() {
        let run = || {
            let mut f = Fabric::new(FabricProfile::connectx6(), 99);
            let mut nic = Nic::for_profile(4, f.profile());
            (0..50)
                .map(|i| {
                    let at = SimTime::from_nanos(i as u64 * 100);
                    send(&mut f, &mut nic, i % 4, at, 64).as_nanos()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    // ---- lossy / multi-path behavior ----------------------------------

    #[test]
    fn segmentation_counts_packets() {
        let p = FabricProfile::connectx6();
        assert_eq!(p.packets_for(0), 1);
        assert_eq!(p.packets_for(1), 1);
        assert_eq!(p.packets_for(4096), 1);
        assert_eq!(p.packets_for(4097), 2);
        assert_eq!(p.packets_for(1 << 20), 256);
    }

    #[test]
    fn loss_triggers_timeout_and_retransmit() {
        let profile = FabricProfile::connectx6().with_loss(0.4, 50.0);
        let mut f = Fabric::new(profile, 11);
        let mut nic = Nic::for_profile(1, f.profile());
        // Enough sends that some are certainly dropped at 40% loss.
        let mut any_slow = false;
        for i in 0..64 {
            let now = SimTime::from_nanos(i * 100_000);
            let d = send(&mut f, &mut nic, 0, now, 64);
            if d.since(now).as_micros_f64() > 45.0 {
                any_slow = true;
            }
        }
        assert!(any_slow, "some send must pay the 50 us timeout");
        assert!(nic.stats().drops > 0, "drops counted");
        assert!(nic.stats().retransmits > 0, "retransmits counted");
        assert_eq!(nic.stats().retx_inflight, 0, "all recoveries settled");
    }

    #[test]
    fn burst_api_reports_resume_points() {
        let profile = FabricProfile::connectx6().with_loss(0.995, 10.0);
        let mut f = Fabric::new(profile, 1);
        let mut nic = Nic::for_profile(1, f.profile());
        // At 99.5% loss the first round almost surely drops.
        let step = f.send_burst(&mut nic, 0, SimTime::ZERO, 64);
        match step {
            XferStep::Dropped {
                resume_at,
                pkts_left,
                ..
            } => {
                assert_eq!(pkts_left, 1);
                assert!(resume_at.as_micros_f64() >= 10.0);
                assert_eq!(nic.stats().retx_inflight, 1);
                // Drive recovery to completion through the resends.
                let mut step = resend(&mut f, &mut nic, 0, resume_at, pkts_left, 64);
                while let XferStep::Dropped {
                    resume_at,
                    pkts_left,
                    ..
                } = step
                {
                    step = resend(&mut f, &mut nic, 0, resume_at, pkts_left, 64);
                }
                assert_eq!(nic.stats().retx_inflight, 0);
            }
            XferStep::Delivered { .. } => {
                // Unlikely but legal; nothing to check.
            }
        }
    }

    #[test]
    fn corruption_naks_into_goback_n_and_balances_ledger() {
        let profile = FabricProfile::connectx6().with_corruption(0.3);
        let mut f = Fabric::new(profile, 21);
        let mut nic = Nic::for_profile(1, f.profile());
        for i in 0..64 {
            let now = SimTime::from_nanos(i * 100_000);
            let d = send(&mut f, &mut nic, 0, now, 64 * 1024);
            assert!(d >= now, "corrupted sends still deliver eventually");
        }
        let s = nic.stats().clone();
        assert!(s.corrupt_injected > 0, "30% corruption must hit");
        assert_eq!(s.corrupt_injected, s.corrupt_detected, "no silent corruption");
        assert!(
            s.corrupt_refetched >= s.corrupt_injected,
            "each NAK re-fetches at least the corrupted packet"
        );
        assert_eq!(s.drops, 0, "corruption is not loss");
        assert!(s.retransmits > 0, "NAKs drive go-back-N retransmits");
        assert_eq!(s.retx_inflight, 0, "all recoveries settled");
    }

    #[test]
    fn corrupted_pull_request_parks_with_request_marker() {
        let profile = FabricProfile::connectx6().with_corruption(0.995);
        let mut f = Fabric::new(profile, 3);
        let mut reader = Nic::for_profile(1, f.profile());
        let mut source = Nic::for_profile(1, f.profile());
        let total = f.profile().packets_for(8192);
        let step = f.pull_burst(&mut reader, &mut source, 0, SimTime::ZERO, 8192);
        match step {
            XferStep::Dropped {
                pkts_left,
                corrupted,
                ..
            } => {
                // At 99.5% the request packet itself is corrupted.
                assert_eq!(pkts_left, total + 1, "request loss marker");
                assert!(corrupted);
                assert_eq!(reader.stats().corrupt_injected, 1);
                assert_eq!(reader.stats().corrupt_refetched, 1);
                assert_eq!(reader.stats().drops, 0);
            }
            XferStep::Delivered { .. } => panic!("0.5% survival twice in a row"),
        }
    }

    #[test]
    fn corruption_off_leaves_rng_stream_untouched() {
        // A lossy profile with corrupt_rate 0 must produce exactly the
        // timings it produced before corruption existed: the disabled
        // class draws nothing from the rng.
        let run = |corrupt: f64| {
            let p = FabricProfile::connectx6().with_loss(0.2, 25.0).with_corruption(corrupt);
            let mut f = Fabric::new(p, 123);
            let mut nic = Nic::for_profile(2, f.profile());
            (0..100)
                .map(|i| {
                    let at = SimTime::from_nanos(i * 500);
                    send(&mut f, &mut nic, (i % 2) as usize, at, 8192).as_nanos()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0.0), run(0.0));
        assert_ne!(
            run(0.0),
            run(0.4),
            "enabled corruption must perturb recovery timing"
        );
    }

    #[test]
    fn multipath_splits_bandwidth_and_staggers_latency() {
        let p = FabricProfile::connectx6().with_paths(4, 0.2);
        assert_eq!(p.paths.len(), 4);
        assert!((p.paths[0].bandwidth - 25.0e9 / 4.0).abs() < 1.0);
        assert!(p.paths[3].one_way_latency_us > p.paths[0].one_way_latency_us);
        let mut f = Fabric::new(p.clone(), 3);
        let mut nic = Nic::for_profile(8, &p);
        assert_eq!(nic.paths.len(), 4);
        // QPs 0..8 round-robin over paths; sends land on all four.
        for qp in 0..8 {
            send(&mut f, &mut nic, qp, SimTime::ZERO, 4096);
        }
        let per_path = nic.path_stats();
        assert_eq!(per_path.len(), 4);
        assert!(per_path.iter().all(|s| s.packets == 2), "{per_path:?}");
    }

    #[test]
    fn migration_rotates_paths() {
        let p = FabricProfile::connectx6()
            .with_paths(2, 0.1)
            .with_migration(1);
        let mut f = Fabric::new(p.clone(), 5);
        let mut nic = Nic::for_profile(1, &p);
        for i in 0..10 {
            send(&mut f, &mut nic, 0, SimTime::from_nanos(i * 10_000), 64);
        }
        let per_path = nic.path_stats();
        assert!(
            per_path[0].packets > 0 && per_path[1].packets > 0,
            "migration must move traffic across paths: {per_path:?}"
        );
    }

    #[test]
    fn lossy_runs_are_deterministic() {
        let run = || {
            let p = FabricProfile::connectx6()
                .with_loss(0.2, 25.0)
                .with_paths(3, 0.15);
            let mut f = Fabric::new(p.clone(), 123);
            let mut nic = Nic::for_profile(6, &p);
            let times: Vec<u64> = (0..200)
                .map(|i| {
                    let at = SimTime::from_nanos(i * 500);
                    send(&mut f, &mut nic, (i % 6) as usize, at, 8192).as_nanos()
                })
                .collect();
            (times, nic.stats().clone(), nic.path_stats())
        };
        assert_eq!(run(), run());
    }

    /// A seeded script of first sends (from either NIC), first pulls and
    /// go-back-N resumes, lost pull requests among them, on a fabric with
    /// 1 % loss, 0.1 % corruption, four paths and migration every 16
    /// messages. The whole `XferStep` sequence (folded into an FNV-1a
    /// digest) and every final NIC and path counter are pinned, so a
    /// change to the order of the fabric's rng draws or to its
    /// bookkeeping fails here.
    #[test]
    fn seeded_transfer_script_is_pinned() {
        let profile = FabricProfile::connectx6()
            .with_loss(1e-2, 25.0)
            .with_corruption(1e-3)
            .with_paths(4, 0.15)
            .with_migration(16);
        let mut f = Fabric::new(profile.clone(), 43);
        let mut nics = [Nic::for_profile(8, &profile), Nic::for_profile(8, &profile)];
        let mut script = SimRng::seed_from_u64(11);
        // A parked window: (resume_at, op, qp, pkts_left, bytes), where op
        // 0 and 1 are a SEND from that NIC and 2 a pull by NIC 1 from NIC 0.
        let mut parked = std::collections::VecDeque::new();
        let (mut digest, mut steps, mut lost_requests) = (0xcbf2_9ce4_8422_2325u64, 0u32, 0u32);
        let mut first = 0u64;
        while first < 3_000 || !parked.is_empty() {
            let resume = !parked.is_empty() && (first >= 3_000 || script.chance(0.3));
            let (op, qp, bytes, step) = if resume {
                let (at, op, qp, pkts, bytes) = parked.pop_front().unwrap();
                let [a, b] = &mut nics;
                let step = match op {
                    2 => f.resume_pull(b, a, qp, at, pkts, bytes),
                    0 => resend(&mut f, a, qp, at, pkts, bytes),
                    _ => resend(&mut f, b, qp, at, pkts, bytes),
                };
                (op, qp, bytes, step)
            } else {
                let now = SimTime::from_nanos(first * 1_500);
                first += 1;
                let (op, qp) = (script.below(3) as usize, script.below(8) as usize);
                let [a, b] = &mut nics;
                if op == 2 {
                    let bytes = 4096 * script.between(1, 16);
                    (op, qp, bytes, f.pull_burst(b, a, qp, now, bytes))
                } else {
                    let bytes = [32, 96, 64 * 1024][script.below(3) as usize];
                    (op, qp, bytes, f.send_burst(&mut nics[op], qp, now, bytes))
                }
            };
            let words = match step {
                XferStep::Delivered { at } => [0, at.as_nanos(), 0],
                XferStep::Dropped { resume_at, pkts_left, corrupted } => {
                    parked.push_back((resume_at, op, qp, pkts_left, bytes));
                    lost_requests += u32::from(pkts_left > f.profile().packets_for(bytes));
                    [1 + u64::from(corrupted), resume_at.as_nanos(), u64::from(pkts_left)]
                }
            };
            for w in words {
                digest = (digest ^ w).wrapping_mul(0x100_0000_01b3);
            }
            steps += 1;
        }
        assert_eq!((steps, lost_requests, digest), (3_251, 13, 0x502a_54fe_9c4f_a9d1));
        let [a, b] = &nics;
        let a_stats = NicStats {
            sends: 1_010,
            one_sided: 0,
            bytes_out: 61_122_592,
            packets: 15_583,
            drops: 141,
            retransmits: 1_037,
            retx_rounds: 73,
            retx_inflight: 0,
            retx_inflight_peak: 2,
            corrupt_injected: 13,
            corrupt_detected: 13,
            corrupt_refetched: 89,
        };
        let b_stats = NicStats {
            sends: 991,
            one_sided: 999,
            bytes_out: 25_318_912,
            packets: 7_839,
            drops: 87,
            retransmits: 629,
            retx_rounds: 178,
            retx_inflight: 0,
            retx_inflight_peak: 3,
            corrupt_injected: 10,
            corrupt_detected: 10,
            corrupt_refetched: 63,
        };
        assert_eq!((a.stats(), b.stats()), (&a_stats, &b_stats));
        let paths = |n: &Nic| {
            let stats = n.path_stats();
            stats.iter().map(|s| (s.packets, s.bytes, s.drops, s.retransmits)).collect::<Vec<_>>()
        };
        let a_paths = [
            (4_409, 17_357_504, 32, 280),
            (3_421, 13_407_680, 36, 214),
            (4_033, 15_769_408, 38, 250),
            (3_720, 14_588_000, 35, 293),
        ];
        let b_paths = [
            (1_855, 6_908_448, 19, 167),
            (1_509, 5_547_168, 18, 187),
            (1_536, 5_642_912, 21, 147),
            (1_927, 7_220_384, 18, 115),
        ];
        assert_eq!((paths(a), paths(b)), (a_paths.to_vec(), b_paths.to_vec()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For any loss rate < 1 every message is eventually delivered
        /// exactly once, at or after its posting instant, and recovery
        /// always settles (no message left in retransmission limbo).
        #[test]
        fn prop_lossy_sends_always_deliver(
            loss in 0.0f64..0.95,
            seed in any::<u64>(),
            msgs in 1u64..40,
            bytes in 1u64..65536,
        ) {
            let p = FabricProfile::connectx6().with_loss(loss, 20.0);
            let mut f = Fabric::new(p, seed);
            let mut nic = Nic::for_profile(2, f.profile());
            for i in 0..msgs {
                let now = SimTime::from_nanos(i * 10_000);
                let d = send(&mut f, &mut nic, (i % 2) as usize, now, bytes);
                prop_assert!(d >= now, "delivery before posting");
            }
            prop_assert_eq!(nic.stats().sends, msgs);
            prop_assert_eq!(nic.stats().retx_inflight, 0);
            // Packet conservation: everything transmitted is either a
            // first try or a retransmission.
            prop_assert!(nic.stats().packets >= msgs * f.profile().packets_for(bytes) as u64);
        }
    }
}
