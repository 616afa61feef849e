//! Per-command stage tracing and the fig. 14 latency breakdown.
//!
//! RIO's central claim is that ordering is preserved *off* the I/O
//! path, so the interesting evidence is where each microsecond of a
//! command goes: stamp → dispatch → gate admit → gate release → PMR
//! persist → media done → completion → in-order delivery. When a
//! [`crate::config::ClusterConfig`] enables tracing via
//! [`TraceConfig`], the cluster timestamps every command at each of
//! those stages, annotates go-back-N retransmissions and crash aborts,
//! and folds the deltas into a deterministic [`LatencyBreakdown`]
//! exposed in [`crate::metrics::RunMetrics`] — so *any* figure or
//! bench config can render the fig. 14 breakdown, not just the
//! hand-built one. Every message rides the same wire legs, so the
//! aggregate counts each retransmission exactly once and equals the
//! NICs' counters in every mode; a Horae control message or a recovery
//! message opens no record and shows up in the aggregate only.
//!
//! The recorder is allocation-free on the event path: open traces live
//! in a pre-sized free-list arena, closed records go into a bounded
//! ring, and the per-stage histograms are the same fixed-layout
//! log-bucketed [`Histogram`]s the rest of the metrics use, so the
//! whole breakdown participates in the `RunMetrics` determinism
//! snapshot tests. Tracing consumes no randomness and schedules no
//! events, so enabling it cannot perturb a run.

use std::collections::VecDeque;

use rio_sim::{Histogram, SimDuration, SimTime};

/// Opt-in switch and sizing knobs for per-command tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Capacity of the closed-record ring kept for inspection. The
    /// aggregate histograms always see every command; only the raw
    /// per-command records are bounded (oldest evicted first, the
    /// eviction count is reported in [`LatencyBreakdown`]).
    pub ring: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring: 4096 }
    }
}

/// Pipeline stages a traced command passes through, in order.
///
/// Baseline modes skip the stages their engines do not have:
/// non-ordered commands never persist to PMR, and the baselines have
/// no in-order completer, so their [`Stage::Delivered`] coincides with
/// [`Stage::Complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Ordering attributes stamped (or, for unordered commands, the
    /// submission instant before the dispatch CPU charge).
    Stamp = 0,
    /// Command handed to the NIC (SEND posted).
    Dispatch = 1,
    /// Command received by the target (gate sees it).
    GateAdmit = 2,
    /// Gate released the command to the driver (for baselines, the
    /// instant the target submits to the SSD).
    GateRelease = 3,
    /// Ordering attribute persisted to PMR (Rio only).
    PmrPersist = 4,
    /// Device finished the write (the flush instant when a flush is
    /// embedded or chained — last write wins).
    MediaDone = 5,
    /// Completion arrived back at the initiator.
    Complete = 6,
    /// Delivered to the application by the in-order completer (equal
    /// to [`Stage::Complete`] for modes without one).
    Delivered = 7,
}

/// Number of [`Stage`]s.
pub const STAGES: usize = 8;

/// Number of stage-to-stage segments in a [`LatencyBreakdown`]
/// (`STAGES - 1`).
pub const SEGMENTS: usize = STAGES - 1;

/// Sentinel trace id carried by untraced commands. When a recorder
/// exists, every NVMe-oF command gets a real id before its first stage;
/// only a Horae control message or a recovery message (a scan request,
/// its records, a discard batch) keeps this one, and [`StageTrace`]
/// then counts its retransmissions in the aggregate alone.
pub(crate) const TRACE_NONE: u32 = u32::MAX;

/// One command's trace: identity, stage timestamps and annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdTraceRecord {
    /// Initiator that issued the command. Trace slot ids are recycled
    /// across the whole cluster, so a record's identity is
    /// `(initiator, stream, seq)` — never the arena id alone, which
    /// collides across initiators.
    pub initiator: u16,
    /// *Global* ordered stream (initiator stream base + local stream),
    /// or the submitting thread's stream for unordered commands.
    /// Global ids keep the per-stream delivery queues collision-free
    /// across initiators.
    pub stream: u16,
    /// First group sequence covered (0 for unordered commands).
    pub seq_start: u32,
    /// Last group sequence covered (0 for unordered commands).
    pub seq_end: u32,
    /// Target server index.
    pub server: u16,
    /// SSD index on the target.
    pub ssd: u16,
    /// First LBA of the write.
    pub lba: u64,
    /// Whether this command is (or embeds) a flush.
    pub is_flush: bool,
    /// Whether the command carried ordering attributes (Rio/Horae).
    pub ordered: bool,
    /// Crash-free epoch the command was dispatched in.
    pub epoch: u32,
    /// Commands buffered in the target gate when this one was
    /// admitted (out-of-order arrival pressure, §4.5).
    pub gate_depth: u32,
    /// Timestamp of each [`Stage`] reached, indexed by the stage
    /// discriminant; `None` for stages the command never reached.
    pub stages: [Option<SimTime>; STAGES],
    /// Go-back-N recovery rounds this command's transfers entered.
    pub retx_rounds: u32,
    /// Packets retransmitted for this command across all rounds; each
    /// wire retransmission is counted exactly once, so these — plus the
    /// control and recovery messages' retransmits, which only the
    /// aggregate counts — sum to the NIC-level retransmit counter.
    pub retx_pkts: u32,
    /// The subset of `retx_rounds` triggered by a receiver-detected
    /// packet corruption (CRC mismatch NAK) rather than a plain drop.
    pub retx_corrupt_rounds: u32,
    /// The subset of `retx_pkts` retransmitted in corruption-triggered
    /// rounds.
    pub retx_corrupt_pkts: u32,
    /// `Some(fault index)` when a crash killed the command in flight;
    /// aborted commands are redispatched with a fresh trace in the
    /// next epoch, keeping traces exactly-once per epoch.
    pub aborted_by: Option<u32>,
}

impl CmdTraceRecord {
    fn new() -> Self {
        CmdTraceRecord {
            initiator: 0,
            stream: 0,
            seq_start: 0,
            seq_end: 0,
            server: 0,
            ssd: 0,
            lba: 0,
            is_flush: false,
            ordered: false,
            epoch: 0,
            gate_depth: 0,
            stages: [None; STAGES],
            retx_rounds: 0,
            retx_pkts: 0,
            retx_corrupt_rounds: 0,
            retx_corrupt_pkts: 0,
            aborted_by: None,
        }
    }

    /// Timestamp of `stage`, if the command reached it.
    pub fn stage(&self, stage: Stage) -> Option<SimTime> {
        self.stages[stage as usize]
    }

    /// Whether the command completed its full stage chain: every stage
    /// stamped except [`Stage::PmrPersist`], which only ordered
    /// commands have.
    pub fn chain_complete(&self) -> bool {
        self.stages
            .iter()
            .enumerate()
            .all(|(i, s)| s.is_some() || (i == Stage::PmrPersist as usize && !self.ordered))
    }
}

/// Per-stage latency aggregates of one traced run.
///
/// Each segment histogram records the time *into* a stage from the
/// previous stage the command actually reached, so segment `i` is the
/// cost of reaching `Stage` `i + 1`. All aggregates are deterministic
/// functions of `(config, seed)` and participate in the `RunMetrics`
/// equality snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Segment histograms: `stages[i]` is the latency from the
    /// previous reached stage into stage `i + 1` (see
    /// [`LatencyBreakdown::SEGMENT_LABELS`]).
    pub stages: [Histogram; SEGMENTS],
    /// Stamp-to-delivery latency of completed commands.
    pub total: Histogram,
    /// Commands that completed their full chain.
    pub completed: u64,
    /// Commands killed in flight by a crash.
    pub aborted: u64,
    /// Go-back-N recovery rounds summed over every message on the wire:
    /// traced commands and the record-less control and recovery
    /// messages.
    pub retx_rounds: u64,
    /// Packets retransmitted, summed like `retx_rounds`. Counted per
    /// wire transmission, exactly once, so this equals
    /// `NetMetrics::retransmits` in every mode.
    pub retx_pkts: u64,
    /// The subset of `retx_rounds` triggered by receiver-detected
    /// packet corruptions (CRC mismatch NAKs).
    pub retx_corrupt_rounds: u64,
    /// The subset of `retx_pkts` retransmitted in corruption-triggered
    /// rounds.
    pub retx_corrupt_pkts: u64,
    /// Peak number of completed-but-undelivered groups buffered in
    /// the in-order completer across all streams (how much
    /// completion-side buffering ordering cost), sampled at unit
    /// completions.
    pub completer_held_peak: u64,
    /// The most recent closed per-command records (bounded ring).
    pub records: Vec<CmdTraceRecord>,
    /// Records evicted from the ring because it was full.
    pub records_dropped: u64,
}

impl LatencyBreakdown {
    /// Human label of each segment, indexed like
    /// [`LatencyBreakdown::stages`].
    pub const SEGMENT_LABELS: [&'static str; SEGMENTS] = [
        "dispatch",   // Stamp -> Dispatch: submit-side CPU
        "network",    // Dispatch -> GateAdmit: wire + receive
        "gate",       // GateAdmit -> GateRelease: ordering wait
        "pmr",        // GateRelease -> PmrPersist: attribute persist
        "media",      // -> MediaDone: data pull + device write
        "completion", // MediaDone -> Complete: completion wire + IRQ
        "deliver",    // Complete -> Delivered: in-order hold
    ];

    fn empty(ring: usize) -> Self {
        LatencyBreakdown {
            stages: Default::default(),
            total: Histogram::new(),
            completed: 0,
            aborted: 0,
            retx_rounds: 0,
            retx_pkts: 0,
            retx_corrupt_rounds: 0,
            retx_corrupt_pkts: 0,
            completer_held_peak: 0,
            records: Vec::with_capacity(ring.min(1024)),
            records_dropped: 0,
        }
    }

    /// `(p50, p99, p999)` of segment `seg` (see
    /// [`LatencyBreakdown::SEGMENT_LABELS`]).
    pub fn segment_quantiles(&self, seg: usize) -> (SimDuration, SimDuration, SimDuration) {
        let h = &self.stages[seg];
        (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999))
    }

    /// `(p50, p99, p999)` of the stamp-to-delivery total.
    pub fn total_quantiles(&self) -> (SimDuration, SimDuration, SimDuration) {
        (
            self.total.quantile(0.5),
            self.total.quantile(0.99),
            self.total.quantile(0.999),
        )
    }
}

/// The live recorder owned by a running cluster when tracing is on.
///
/// Open traces are slots in a free-list arena addressed by the `u32`
/// id carried in each in-flight command, so recording a stage is an
/// array write. Closing a trace folds its deltas into the aggregate
/// histograms and pushes the record into the bounded ring.
#[derive(Debug)]
pub(crate) struct StageTrace {
    slots: Vec<CmdTraceRecord>,
    live: Vec<bool>,
    free: Vec<u32>,
    /// Per-stream FIFO of `(seq_end, trace id)` for ordered commands
    /// awaiting in-order delivery. Commands are dispatched in sequence
    /// order per stream, so the queue head is always the next
    /// undelivered trace.
    pending: Vec<VecDeque<(u32, u32)>>,
    ring_cap: usize,
    /// Index of the oldest record once the ring is full (0 before).
    ring_head: usize,
    ring_dropped: u64,
    agg: LatencyBreakdown,
    epoch: u32,
}

impl StageTrace {
    pub(crate) fn new(cfg: &TraceConfig, streams: usize) -> Self {
        StageTrace {
            slots: Vec::with_capacity(256),
            live: Vec::with_capacity(256),
            free: Vec::with_capacity(256),
            pending: (0..streams).map(|_| VecDeque::with_capacity(64)).collect(),
            ring_cap: cfg.ring,
            ring_head: 0,
            ring_dropped: 0,
            agg: LatencyBreakdown::empty(cfg.ring),
            epoch: 0,
        }
    }

    /// Opens a trace and returns its id. `stamp` is the instant the
    /// command was stamped/submitted, `dispatch` the instant its SEND
    /// was posted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn open(
        &mut self,
        initiator: u16,
        stream: u16,
        seq: Option<(u32, u32)>,
        server: u16,
        ssd: u16,
        lba: u64,
        is_flush: bool,
        stamp: SimTime,
        dispatch: SimTime,
    ) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(CmdTraceRecord::new());
                self.live.push(false);
                (self.slots.len() - 1) as u32
            }
        };
        let r = &mut self.slots[id as usize];
        *r = CmdTraceRecord::new();
        r.initiator = initiator;
        r.stream = stream;
        r.server = server;
        r.ssd = ssd;
        r.lba = lba;
        r.is_flush = is_flush;
        r.epoch = self.epoch;
        if let Some((s, e)) = seq {
            r.seq_start = s;
            r.seq_end = e;
            r.ordered = true;
        }
        r.stages[Stage::Stamp as usize] = Some(stamp);
        r.stages[Stage::Dispatch as usize] = Some(dispatch);
        self.live[id as usize] = true;
        id
    }

    /// Timestamps `stage` on trace `id` (last write wins, so a chained
    /// flush overwrites the write's media instant).
    ///
    /// The stamp is clamped up to the latest earlier stage: per-core
    /// FIFO accounting can place a cross-core handoff (a gate release
    /// driven by a command received on another core, scatter-QP mode) a
    /// hair before the released command's own admit stamp, and the
    /// causal chain — not the per-core clock skew — is what the trace
    /// reports.
    pub(crate) fn rec(&mut self, id: u32, stage: Stage, at: SimTime) {
        debug_assert!(self.live[id as usize], "stage on a closed trace");
        let r = &mut self.slots[id as usize];
        let mut t = at;
        for &s in r.stages[..stage as usize].iter().flatten() {
            t = t.max(s);
        }
        r.stages[stage as usize] = Some(t);
    }

    /// Records the gate depth observed when the command was admitted.
    pub(crate) fn gate_depth(&mut self, id: u32, depth: u32) {
        self.slots[id as usize].gate_depth = depth;
    }

    /// Annotates one go-back-N recovery round retransmitting `pkts`
    /// packets for command `id`. A [`TRACE_NONE`] id (a control or
    /// recovery message) counts in the aggregate only.
    pub(crate) fn retx(&mut self, id: u32, pkts: u32) {
        self.agg.retx_rounds += 1;
        self.agg.retx_pkts += pkts as u64;
        if id != TRACE_NONE {
            let r = &mut self.slots[id as usize];
            r.retx_rounds += 1;
            r.retx_pkts += pkts;
        }
    }

    /// Annotates a corruption-triggered recovery round: counted in the
    /// overall retransmit totals *and* in the corrupt-specific subset.
    pub(crate) fn retx_corrupt(&mut self, id: u32, pkts: u32) {
        self.retx(id, pkts);
        self.agg.retx_corrupt_rounds += 1;
        self.agg.retx_corrupt_pkts += pkts as u64;
        if id != TRACE_NONE {
            let r = &mut self.slots[id as usize];
            r.retx_corrupt_rounds += 1;
            r.retx_corrupt_pkts += pkts;
        }
    }

    /// Queues ordered command `id` (covering groups through `seq_end`)
    /// for delivery stamping on `stream`.
    pub(crate) fn pending_push(&mut self, stream: usize, seq_end: u32, id: u32) {
        // Fragments of one striped unit share a sequence range, so
        // equal `seq_end`s are expected; regressions only.
        debug_assert!(
            self.pending[stream].back().is_none_or(|&(e, _)| e <= seq_end),
            "per-stream dispatch must be in sequence order"
        );
        self.pending[stream].push_back((seq_end, id));
    }

    /// The in-order completer delivered `stream` through sequence
    /// `through` at `at`: stamps and closes every pending trace whose
    /// last group is now delivered.
    pub(crate) fn deliver(&mut self, stream: usize, through: u32, at: SimTime) {
        while let Some(&(seq_end, id)) = self.pending[stream].front() {
            if seq_end > through {
                break;
            }
            self.pending[stream].pop_front();
            self.rec(id, Stage::Delivered, at);
            self.close(id);
        }
    }

    /// Stamps delivery at `at` and closes trace `id` — the baseline
    /// path, where completion *is* delivery.
    pub(crate) fn finish_unordered(&mut self, id: u32, at: SimTime) {
        self.rec(id, Stage::Delivered, at);
        self.close(id);
    }

    /// Raises the completer-held-groups peak gauge.
    pub(crate) fn note_completer_held(&mut self, held: u64) {
        self.agg.completer_held_peak = self.agg.completer_held_peak.max(held);
    }

    /// A fault killed every in-flight command: closes all open traces
    /// as aborted-by-`fault`, clears the delivery queues and starts
    /// the next epoch. Completed traces are untouched, and redispatch
    /// after recovery opens fresh traces in the new epoch, so traces
    /// stay exactly-once per `(epoch, command)`.
    pub(crate) fn abort_open(&mut self, fault: u32) {
        for q in &mut self.pending {
            q.clear();
        }
        for id in 0..self.slots.len() as u32 {
            if self.live[id as usize] {
                self.slots[id as usize].aborted_by = Some(fault);
                self.close(id);
            }
        }
        self.epoch += 1;
    }

    /// Folds trace `id` into the aggregates and recycles its slot.
    fn close(&mut self, id: u32) {
        debug_assert!(self.live[id as usize], "closing a closed trace");
        self.live[id as usize] = false;
        let r = &self.slots[id as usize];
        if r.aborted_by.is_none() {
            debug_assert!(r.chain_complete(), "completed command missing a stage");
            let mut prev = r.stages[Stage::Stamp as usize];
            for (seg, stage) in r.stages.iter().enumerate().skip(1) {
                if let (Some(p), Some(t)) = (prev, *stage) {
                    self.agg.stages[seg - 1].record(t.since(p));
                }
                if stage.is_some() {
                    prev = *stage;
                }
            }
            if let (Some(s), Some(d)) = (
                r.stages[Stage::Stamp as usize],
                r.stages[Stage::Delivered as usize],
            ) {
                self.agg.total.record(d.since(s));
            }
            self.agg.completed += 1;
        } else {
            self.agg.aborted += 1;
        }
        if self.agg.records.len() < self.ring_cap {
            self.agg.records.push(r.clone());
        } else {
            // Full ring (or `ring: 0`): one record is lost per close.
            // The oldest one sits at the head cursor; overwrite it in
            // place and let `finish` rotate the ring back into order.
            if let Some(oldest) = self.agg.records.get_mut(self.ring_head) {
                *oldest = r.clone();
                self.ring_head = (self.ring_head + 1) % self.ring_cap;
            }
            self.ring_dropped += 1;
        }
        self.free.push(id);
    }

    /// Snapshot of the aggregates for [`crate::metrics::RunMetrics`].
    pub(crate) fn finish(&self) -> LatencyBreakdown {
        let mut out = self.agg.clone();
        out.records.rotate_left(self.ring_head);
        out.records_dropped = self.ring_dropped;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Opens an unordered trace, stamps the whole baseline chain and
    /// closes it at `base + 40`.
    fn run_unordered(tr: &mut StageTrace, base: u64, lba: u64) -> u32 {
        let id = tr.open(0, 0, None, 0, 0, lba, false, t(base), t(base + 5));
        tr.rec(id, Stage::GateAdmit, t(base + 10));
        tr.rec(id, Stage::GateRelease, t(base + 15));
        tr.rec(id, Stage::MediaDone, t(base + 30));
        tr.rec(id, Stage::Complete, t(base + 40));
        tr.finish_unordered(id, t(base + 40));
        id
    }

    fn full_chain(tr: &mut StageTrace, base: u64, stream: u16, seq: (u32, u32)) -> u32 {
        let id = tr.open(0, stream, Some(seq), 0, 0, 8, false, t(base), t(base + 10));
        tr.rec(id, Stage::GateAdmit, t(base + 30));
        tr.gate_depth(id, 2);
        tr.rec(id, Stage::GateRelease, t(base + 40));
        tr.rec(id, Stage::PmrPersist, t(base + 45));
        tr.rec(id, Stage::MediaDone, t(base + 90));
        tr.rec(id, Stage::Complete, t(base + 110));
        tr.pending_push(stream as usize, seq.1, id);
        id
    }

    #[test]
    fn ordered_chain_closes_on_delivery_with_segment_deltas() {
        let mut tr = StageTrace::new(&TraceConfig::default(), 2);
        full_chain(&mut tr, 100, 0, (1, 2));
        // Not delivered yet: nothing aggregated.
        assert_eq!(tr.finish().completed, 0);
        tr.deliver(0, 2, t(220));
        let b = tr.finish();
        assert_eq!(b.completed, 1);
        assert_eq!(b.records.len(), 1);
        let r = &b.records[0];
        assert!(r.chain_complete());
        assert_eq!(r.stage(Stage::Delivered), Some(t(220)));
        // Segment deltas: 10, 20, 10, 5, 45, 20, then 220 - 210 = 10
        // of in-order hold.
        let expect = [10u64, 20, 10, 5, 45, 20, 10];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(b.stages[i].count(), 1, "segment {i}");
            assert_eq!(b.stages[i].max(), SimDuration::from_nanos(*e), "segment {i}");
        }
        assert_eq!(b.total.max(), SimDuration::from_nanos(120));
    }

    #[test]
    fn delivery_pops_only_covered_sequences() {
        let mut tr = StageTrace::new(&TraceConfig::default(), 1);
        full_chain(&mut tr, 0, 0, (1, 1));
        full_chain(&mut tr, 10, 0, (2, 3));
        tr.deliver(0, 1, t(500));
        assert_eq!(tr.finish().completed, 1);
        tr.deliver(0, 2, t(600));
        assert_eq!(tr.finish().completed, 1, "seq 3 not yet delivered");
        tr.deliver(0, 3, t(700));
        assert_eq!(tr.finish().completed, 2);
    }

    #[test]
    fn unordered_chain_skips_pmr_and_delivers_at_completion() {
        let mut tr = StageTrace::new(&TraceConfig::default(), 1);
        let id = tr.open(0, 0, None, 0, 0, 16, false, t(0), t(5));
        tr.rec(id, Stage::GateAdmit, t(20));
        tr.rec(id, Stage::GateRelease, t(25));
        tr.rec(id, Stage::MediaDone, t(60));
        tr.rec(id, Stage::Complete, t(80));
        tr.finish_unordered(id, t(80));
        let b = tr.finish();
        assert_eq!(b.completed, 1);
        let r = &b.records[0];
        assert!(!r.ordered && r.chain_complete());
        assert_eq!(r.stage(Stage::PmrPersist), None);
        // The media segment bridges GateRelease -> MediaDone.
        assert_eq!(b.stages[4].max(), SimDuration::from_nanos(35));
        // No completer: the deliver segment is zero.
        assert_eq!(b.stages[6].max(), SimDuration::ZERO);
    }

    #[test]
    fn abort_closes_open_traces_and_bumps_epoch() {
        let mut tr = StageTrace::new(&TraceConfig::default(), 1);
        full_chain(&mut tr, 0, 0, (1, 1));
        tr.abort_open(3);
        let b = tr.finish();
        assert_eq!((b.completed, b.aborted), (0, 1));
        assert_eq!(b.records[0].aborted_by, Some(3));
        // Delivery queue was cleared; a fresh epoch trace works.
        let id = tr.open(0, 0, Some((1, 1)), 0, 0, 8, false, t(10), t(20));
        assert_eq!(tr.slots[id as usize].epoch, 1);
    }

    #[test]
    fn retx_annotations_accumulate_per_round() {
        let mut tr = StageTrace::new(&TraceConfig::default(), 1);
        let id = tr.open(0, 0, None, 0, 0, 0, false, t(0), t(5));
        tr.retx(id, 4);
        tr.retx(id, 2);
        tr.rec(id, Stage::GateAdmit, t(10));
        tr.rec(id, Stage::GateRelease, t(15));
        tr.rec(id, Stage::MediaDone, t(30));
        tr.rec(id, Stage::Complete, t(40));
        tr.finish_unordered(id, t(40));
        let b = tr.finish();
        assert_eq!((b.retx_rounds, b.retx_pkts), (2, 6));
        assert_eq!(b.records[0].retx_rounds, 2);
        assert_eq!(b.records[0].retx_pkts, 6);
    }

    #[test]
    fn ring_bounds_records_and_reports_evictions() {
        let mut tr = StageTrace::new(&TraceConfig { ring: 2 }, 1);
        for i in 0..4u64 {
            run_unordered(&mut tr, i * 100, i);
        }
        let b = tr.finish();
        assert_eq!(b.completed, 4);
        assert_eq!(b.records.len(), 2);
        assert_eq!(b.records_dropped, 2);
        assert_eq!(b.records[1].lba, 3, "newest records kept");
    }

    #[test]
    fn wrapped_ring_reads_oldest_to_newest() {
        // Seven closes through a ring of three wrap the head cursor
        // twice and leave it mid-ring.
        let mut tr = StageTrace::new(&TraceConfig { ring: 3 }, 1);
        for i in 0..7u64 {
            run_unordered(&mut tr, i * 100, i);
        }
        let b = tr.finish();
        let lbas: Vec<u64> = b.records.iter().map(|r| r.lba).collect();
        assert_eq!(lbas, vec![4, 5, 6], "oldest first after rotation");
        assert_eq!(b.records_dropped, 4);
        // `finish` snapshots; the live ring keeps evicting in order.
        run_unordered(&mut tr, 700, 7);
        let lbas: Vec<u64> = tr.finish().records.iter().map(|r| r.lba).collect();
        assert_eq!(lbas, vec![5, 6, 7]);
    }

    #[test]
    fn zero_ring_drops_one_record_per_command() {
        let mut tr = StageTrace::new(&TraceConfig { ring: 0 }, 1);
        for i in 0..5u64 {
            run_unordered(&mut tr, i * 100, i);
        }
        let b = tr.finish();
        assert_eq!(b.completed, 5);
        assert!(b.records.is_empty());
        assert_eq!(b.records_dropped, 5, "one drop per closed command");
    }

    #[test]
    fn initiator_tag_survives_slot_recycling_across_initiators() {
        // Two initiators interleave commands through the shared arena:
        // slot ids get recycled, so the record identity must carry the
        // initiator tag — a record keyed by arena id alone would
        // attribute initiator 1's command to initiator 0.
        let mut tr = StageTrace::new(&TraceConfig::default(), 4);
        let a = run_unordered(&mut tr, 0, 7);
        // Initiator 1, global stream 2, reuses initiator 0's slot.
        let b = tr.open(1, 2, Some((1, 1)), 0, 0, 9, false, t(100), t(110));
        assert_eq!(a, b, "slot recycled across initiators");
        tr.rec(b, Stage::GateAdmit, t(130));
        tr.rec(b, Stage::GateRelease, t(140));
        tr.rec(b, Stage::PmrPersist, t(145));
        tr.rec(b, Stage::MediaDone, t(190));
        tr.rec(b, Stage::Complete, t(210));
        tr.pending_push(2, 1, b);
        tr.deliver(2, 1, t(220));
        let out = tr.finish();
        assert_eq!(out.completed, 2);
        assert_eq!(out.records[0].initiator, 0);
        assert_eq!((out.records[1].initiator, out.records[1].stream), (1, 2));
    }

    #[test]
    fn slots_are_recycled() {
        let mut tr = StageTrace::new(&TraceConfig::default(), 1);
        let a = run_unordered(&mut tr, 0, 0);
        let b = tr.open(0, 0, None, 0, 0, 1, false, t(100), t(101));
        assert_eq!(a, b, "freed slot reused");
        assert_eq!(tr.slots.len(), 1);
    }
}
