//! The event-driven cluster: initiator, targets, and the four ordering
//! engines over one shared data path.
//!
//! Every software step charges a per-core FIFO resource; every wire and
//! device time comes from the passive `rio-net`/`rio-ssd` models. The
//! event heap only sequences *causality*: command arrival at the
//! target, SSD completion, completion arrival back at the initiator,
//! and thread wake-ups.
//!
//! Data path of one ordered write under Rio (Fig. 4):
//!
//! ```text
//! thread: rio.submit (stamp + ORDER queue) → [batch] rio.flush (merge)
//!         → stripe/split → rio.stamp → SEND (stream-pinned QP) ──────┐
//! target: RECV ─ gate.arrive ─ PMR append ─ RDMA READ data ─ SSD    │
//!         write [─ FLUSH] ─ persist toggle ─ completion SEND ───────┘
//! initiator: IRQ → fragment rejoin → rio.on_done (in order) → deliver
//! ```
//!
//! `rio` is the initiator's [`rio_order::Rio`] handle: the paper's
//! `librio` API is the code the simulated initiator runs.
//!
//! This file holds the shared state ([`Cluster`], the in-flight
//! command and unit records), construction, the run loop, the event
//! dispatch, the one command lookup and metrics assembly. A command
//! keeps only what outlives an event; what one handler hands the next
//! (a parked retransmission window) rides in the event. The handlers
//! are `impl Cluster` blocks in child modules, one per role:
//!
//! * `initiator` — threads, the RIO and orderless submit loops,
//!   dispatch, completion and in-order delivery;
//! * `baselines` — the two compared systems, Horae's control path and
//!   Linux's synchronous write + FLUSH;
//! * `target` — arrival, gate release, PMR bookkeeping, DRR admission,
//!   SSD submit/done;
//! * `wire` — the three transfer legs, QP arithmetic, go-back-N resends;
//! * [`recovery`] — fault handling and the §4.4 / §6.5 recovery.

use rio_block::{Plug, StripedVolume};
use rio_net::{Fabric, Nic};
use rio_order::attr::{BlockRange, OrderingAttr, Seq, ServerId};
use rio_order::pmrlog::SlotRef;
use rio_order::{DispatchBatch, RioSetup};
use rio_proto::PayloadDigest;
use rio_sim::{EventHeap, Histogram, SimRng, SimTime, Slab};

use crate::config::{ClusterConfig, OrderingMode};
use crate::metrics::{
    EpochMetrics, InitiatorMetrics, IntegrityMetrics, NetMetrics, RecoveryMetrics, RunMetrics,
    TenantMetrics,
};
use crate::telemetry::TelemetrySampler;
use crate::trace::StageTrace;
use crate::workload::Workload;

use initiator::{Initiator, ThreadState, Wait};
use recovery::Recovering;
use target::{DrrSched, Target};
use wire::Leg;

mod baselines;
mod initiator;
pub mod recovery;
mod target;
mod wire;

/// Stripe unit of the volume, in blocks: 4 KB blocks go round-robin
/// across every SSD of every target, as on the paper's testbed (§6.2.1).
const STRIPE_BLOCKS: u32 = 1;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A thread (re)considers submitting work.
    Resume(usize),
    /// A command SEND was delivered at its target.
    CmdArrive(u64),
    /// The go-back-N timeout of command `id`'s parked wire [`Leg`]
    /// fired: resend its `pkts` undelivered packets. `corrupt` says the
    /// failure was a detected corruption rather than a plain drop.
    Resend { id: u64, leg: Leg, pkts: u32, corrupt: bool },
    /// A command is ready for SSD submission (gate passed + data in).
    SsdSubmit(u64),
    /// A command's embedded FLUSH may be submitted.
    SsdFlushSubmit(u64),
    /// A command's SSD write finished.
    SsdWriteDone(u64),
    /// A command's embedded FLUSH finished.
    SsdFlushDone(u64),
    /// The last discard of a recovery discard batch finished.
    DiscardsDone(u64),
    /// A completion SEND was delivered at the initiator.
    CmdComplete(u64),
}

/// Command kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmdKind {
    Write,
    Flush,
    /// A Horae control message: a group's ordering metadata out on the
    /// capsule leg, its acknowledgement back on the completion leg. It
    /// is not an NVMe command: it moves no data, opens no trace and is
    /// not counted in `commands_sent`.
    Ctrl,
    /// A recovery scan request, under the `Ctrl` contract: the target
    /// scans its PMR log — over MMIO if it lost power — and ships back
    /// `phys.blocks` 32-byte slots on the completion leg.
    Scan { mmio: bool },
    /// A recovery discard batch, under the `Ctrl` contract: every
    /// discard the recovery owes SSD `ssd` of `target`.
    Discard,
}

/// One in-flight NVMe-oF command (or control or recovery message): what it
/// writes (or flushes) and where, fixed when it is posted, plus the two
/// facts the target learns on the way (`ready`, `slot`). Only what
/// outlives an event lives here: a parked go-back-N window rides in its
/// `Resend` event.
#[derive(Debug, Clone, Copy)]
struct Cmd {
    kind: CmdKind,
    thread: usize,
    target: usize,
    ssd: usize,
    qp: usize,
    phys: BlockRange,
    /// Rio ordering attribute (None on baseline paths).
    attr: Option<OrderingAttr>,
    /// Embedded FLUSH (fsync-style final request).
    flush_embedded: bool,
    /// Initiator-side unit this command belongs to.
    unit: u64,
    /// The target rendezvous: the instant its first half landed — the
    /// data pull (retransmissions included), or the driver work and,
    /// for Rio, the gate release. The second half submits to the SSD
    /// at the later of the two.
    ready: Option<SimTime>,
    /// CRC-32C over the command's payload seeds, stamped at submission
    /// on integrity runs ([`PayloadDigest::NONE`] otherwise).
    digest: PayloadDigest,
    /// PMR log slot holding this command's ordering record.
    slot: Option<SlotRef>,
    /// Stage-trace slot of this command ([`crate::trace::TRACE_NONE`]
    /// when tracing is off, and always for `Ctrl`, `Scan` and `Discard`;
    /// assigned by `send_cmd`).
    trace: u32,
}

impl Cmd {
    /// A `kind` command from thread `t` to SSD `ssd` of `target` on QP
    /// `qp`, covering `phys`: unordered, undigested, untraced, and
    /// nothing learned at the target yet.
    fn new(kind: CmdKind, t: usize, target: usize, ssd: usize, qp: usize, phys: BlockRange) -> Cmd {
        Cmd {
            kind,
            thread: t,
            target,
            ssd,
            qp,
            phys,
            attr: None,
            flush_embedded: false,
            unit: 0,
            ready: None,
            digest: PayloadDigest::NONE,
            slot: None,
            trace: crate::trace::TRACE_NONE,
        }
    }

    /// The tag its payload blocks are generated from: the group
    /// sequence under Rio, the unit id on the baseline paths.
    fn tag(&self) -> u64 {
        self.attr.map_or(self.unit, |a| a.seq_start.0 as u64)
    }
}

/// One logical dispatch unit: a (possibly merged) request whose
/// fragments all must complete before the unit completes. A Rio unit
/// keeps no ordering state here — every fragment's command carries the
/// unit's ordering identity, and the last one to complete reports it.
#[derive(Debug)]
struct Unit {
    /// Orderless/baseline accounting: groups and blocks this unit
    /// represents.
    plain_groups: u64,
    blocks: u32,
    fragments_total: usize,
    fragments_done: usize,
    submitted: SimTime,
}

/// The simulated cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    workload: Workload,
    events: EventHeap<Event>,
    fabric: Fabric,
    /// The initiator hosts, one per entry of `cfg.initiators`.
    initiators: Vec<Initiator>,
    volume: StripedVolume,
    /// Distinct tenant ids, in order of first appearance across the
    /// initiator list.
    tenants: Vec<u32>,
    /// Per-tenant DRR admission-wait histograms (indexed like
    /// `tenants`; all empty when the scheduler is inert).
    tenant_gate_wait: Vec<Histogram>,
    /// Owning initiator of every global stream.
    init_of_stream: Vec<usize>,
    threads: Vec<ThreadState>,
    targets: Vec<Target>,
    /// In-flight commands, keyed by generational slab ids carried in
    /// event payloads — no hashing on the event path.
    cmds: Slab<Cmd>,
    /// In-flight dispatch units, same keying scheme as `cmds`.
    units: Slab<Unit>,
    /// Scratch buffer for gate releases (reused across events).
    gate_scratch: Vec<(OrderingAttr, u64)>,
    /// Scratch buffer for completer deliveries (reused across events).
    delivered_scratch: Vec<Seq>,
    /// Scratch buffers for the dispatch path (volume mapping, chunking
    /// and splitting), reused across units.
    map_scratch: Vec<rio_block::Extent>,
    extent_scratch: Vec<rio_block::Extent>,
    frag_scratch: Vec<OrderingAttr>,
    /// The plug-flush point's output, lent to every flush: a Rio
    /// stream's drained ORDER queue, or the orderless threads' plug.
    rio_batch: DispatchBatch,
    plug: Plug,
    /// Scratch buffer for one DRR pump's admissions: (tenant index,
    /// command id, enqueue instant).
    admit_scratch: Vec<(usize, u64, SimTime)>,
    /// Round-robin cursor for the scatter (non-pinned) QP policy.
    scatter_qp: u64,
    // Metrics. Groups, blocks, commands and group latency are counted
    // once, on the owning initiator's row.
    ops_done: u64,
    events_processed: u64,
    op_latency: Histogram,
    stage_lat: [rio_sim::MeanAccum; 4],
    /// Per-command stage recorder (`None` = tracing off, zero cost).
    trace: Option<StageTrace>,
    /// Virtual-time series sampler (`None` = telemetry off, zero cost).
    telemetry: Option<TelemetrySampler>,
    last_completion: SimTime,
    /// Whether end-to-end data integrity is modelled this run: payload
    /// digests stamped at submission, real payload bytes at the device,
    /// sealed media, and a scrub pass in every recovery.
    integrity: bool,
    /// Media-side integrity ledger (wire-side counters come from the
    /// NICs at snapshot time).
    integ: IntegrityMetrics,
    /// Next fault in `cfg.faults` that has not fired yet.
    fault_cursor: usize,
    /// One breakdown per fault survived so far.
    recoveries: Vec<RecoveryMetrics>,
    /// The recovery whose messages are on the wire, if any.
    recovering: Option<Recovering>,
    /// Closed crash-free epochs (the open one is closed by `metrics`).
    epochs: Vec<EpochMetrics>,
    /// Start of the open epoch (its counts are the run totals minus
    /// the closed epochs).
    epoch_start: SimTime,
}
impl Cluster {
    /// Builds a cluster for `cfg` running `workload`.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::config::ConfigError`] message when
    /// [`ClusterConfig::validate`] refuses the pair.
    pub fn new(cfg: ClusterConfig, workload: Workload) -> Self {
        // rio-lint: allow(S2) a bad configuration is refused here, before any event runs
        cfg.validate(&workload).unwrap_or_else(|e| panic!("{e}"));
        let rio_mode = matches!(cfg.mode, OrderingMode::Rio { .. });
        // The one place the initiator topology is read from the config:
        // everything below works from this weight-clamped list.
        let init_cfgs = cfg.effective_initiators();
        // Thread i owns global stream i, partitioned across initiators
        // by their configured stream counts.
        let init_of_stream: Vec<usize> = init_cfgs
            .iter()
            .enumerate()
            .flat_map(|(ii, ic)| std::iter::repeat_n(ii, ic.streams))
            .collect();
        let total_streams = init_of_stream.len();
        let mut root_rng = SimRng::seed_from_u64(cfg.seed);
        // Integrity is on when asked for explicitly, or implied by any
        // corruption source: the run then carries real payload bytes
        // end to end. Off, the data path is byte-identical to before.
        let integrity = cfg.integrity
            || cfg.net.corrupt_rate > 0.0
            || cfg.faults.events.iter().any(|e| e.kind.needs_integrity());
        // The effective wire profile: base timing plus the transport
        // behavior (segmentation, loss, paths) from `cfg.net`.
        let wire = cfg.net.apply(cfg.fabric.clone());
        let fabric = Fabric::new(wire.clone(), root_rng.below(u64::MAX));

        // Volume: stripe across every SSD of every target.
        let mut legs = Vec::new();
        let mut min_cap = u64::MAX;
        for (t, ssds) in cfg.targets.iter().enumerate() {
            for (s, prof) in ssds.iter().enumerate() {
                legs.push((ServerId(t as u16), s));
                min_cap = min_cap.min(prof.capacity_blocks);
            }
        }
        let volume = StripedVolume::new(legs, STRIPE_BLOCKS, min_cap);

        let n_targets = cfg.targets.len();
        // Distinct tenants in order of first appearance; the DRR only
        // exists when more than one tenant shares the targets.
        let mut tenants: Vec<u32> = Vec::new();
        let mut tenant_weights: Vec<u32> = Vec::new();
        let mut tenant_idx = Vec::with_capacity(init_cfgs.len());
        for ic in &init_cfgs {
            let i = tenants.iter().position(|&t| t == ic.tenant).unwrap_or_else(|| {
                tenants.push(ic.tenant);
                tenant_weights.push(0);
                tenants.len() - 1
            });
            tenant_weights[i] += ic.weight;
            tenant_idx.push(i);
        }
        let multi_tenant = tenants.len() > 1;
        let targets: Vec<Target> = cfg
            .targets
            .iter()
            .map(|ssds| {
                Target::new(
                    ssds,
                    cfg.cores,
                    // One connection (QP group) per initiator.
                    Nic::for_profile(init_cfgs.len() * cfg.cores, &wire),
                    rio_mode.then_some(total_streams),
                    integrity,
                    multi_tenant.then(|| DrrSched::new(tenant_weights.clone())),
                    &mut root_rng,
                )
            })
            .collect();

        let mut stream_base = 0usize;
        let initiators: Vec<Initiator> = init_cfgs
            .iter()
            .zip(tenant_idx)
            .enumerate()
            .map(|(i, (ic, tenant_idx))| {
                let init = Initiator::new(
                    i,
                    ic,
                    cfg.cores,
                    tenant_idx,
                    stream_base,
                    Nic::for_profile(n_targets * cfg.cores, &wire),
                    RioSetup {
                        streams: total_streams,
                        servers: n_targets,
                        merge: matches!(cfg.mode, OrderingMode::Rio { merge: true }),
                        window: cfg.max_inflight_per_stream * 2,
                    },
                );
                stream_base += ic.streams;
                init
            })
            .collect();

        let per_thread_blocks = volume.capacity_blocks() / workload.threads as u64;
        // Only Rio threads queue undelivered groups, one window deep.
        let undelivered_window = if rio_mode { cfg.max_inflight_per_stream } else { 0 };
        let threads: Vec<ThreadState> = (0..workload.threads)
            .map(|i| {
                let init = &initiators[init_of_stream[i]];
                ThreadState::new(
                    i,
                    init_of_stream[i],
                    (i - init.m.stream_base) % cfg.cores,
                    per_thread_blocks,
                    undelivered_window,
                    root_rng.fork(),
                )
            })
            .collect();

        // Pre-size the hot structures from the config: the event heap
        // and command/unit arenas track the global in-flight window.
        let inflight_hint = (total_streams * cfg.max_inflight_per_stream * 2).max(64);
        let trace = cfg
            .trace
            .as_ref()
            .map(|tc| StageTrace::new(tc, total_streams));
        let telemetry = cfg
            .telemetry
            .as_ref()
            .map(|tc| TelemetrySampler::new(tc, tenants.clone(), n_targets, init_cfgs.len()));
        let tenant_gate_wait = tenants.iter().map(|_| Histogram::new()).collect();
        Cluster {
            initiators,
            tenants,
            tenant_gate_wait,
            init_of_stream,
            volume,
            threads,
            targets,
            cmds: Slab::with_capacity(inflight_hint),
            units: Slab::with_capacity(inflight_hint),
            gate_scratch: Vec::with_capacity(16),
            delivered_scratch: Vec::with_capacity(16),
            map_scratch: Vec::with_capacity(16),
            extent_scratch: Vec::with_capacity(16),
            frag_scratch: Vec::with_capacity(16),
            rio_batch: DispatchBatch::default(),
            plug: Plug::new(),
            admit_scratch: Vec::new(),
            scatter_qp: 0,
            ops_done: 0,
            events_processed: 0,
            op_latency: Histogram::new(),
            stage_lat: Default::default(),
            trace,
            telemetry,
            last_completion: SimTime::ZERO,
            integrity,
            integ: IntegrityMetrics::default(),
            fault_cursor: 0,
            recoveries: Vec::new(),
            recovering: None,
            epochs: Vec::new(),
            epoch_start: SimTime::ZERO,
            events: EventHeap::with_capacity(inflight_hint),
            fabric,
            cfg,
            workload,
        }
    }

    /// Runs the workload to completion — surviving any scheduled
    /// faults — and returns metrics.
    pub fn run(mut self) -> RunMetrics {
        self.run_loop();
        self.metrics()
    }

    /// The event loop: wakes every thread at t = 0, then drains the
    /// heap, firing the fault plan's due faults before each event.
    fn run_loop(&mut self) {
        for t in 0..self.threads.len() {
            self.events.push(SimTime::ZERO, Event::Resume(t));
        }
        self.fire_due_faults();
        while let Some((now, ev)) = self.events.pop() {
            self.events_processed += 1;
            self.handle(now, ev);
            self.fire_due_faults();
        }
    }

    /// Fires the plan's next faults while no recovery is on the wire and
    /// the next one's instant — the later of its schedule and the open
    /// epoch's start — is at or before the next event (or none is left):
    /// a fault inside a recovery fires at its resume instant. A
    /// fault-free run pays one cursor compare per event.
    fn fire_due_faults(&mut self) {
        while self.fault_cursor < self.cfg.faults.events.len() && self.recovering.is_none() {
            let at = self.cfg.faults.events[self.fault_cursor].at.max(self.epoch_start);
            if self.events.peek().is_some_and(|(next, _)| next < at) {
                return;
            }
            self.events_processed += 1;
            self.on_fault(at);
        }
    }

    /// Builds the final metrics snapshot.
    fn metrics(&mut self) -> RunMetrics {
        // Settle device-internal effects (stats, drains) up to the end.
        for t in &mut self.targets {
            for ssd in &mut t.ssds {
                ssd.advance(self.last_completion);
            }
        }
        let span = self.last_completion.since(SimTime::ZERO);
        let target_util = self
            .targets
            .iter()
            .map(|t| t.cores.utilization(span))
            .sum::<f64>()
            / self.targets.len() as f64;
        let mut net = NetMetrics::default();
        for init in &self.initiators {
            net.absorb(&init.nic);
        }
        for t in &self.targets {
            net.absorb(&t.nic);
        }
        // The media-side ledger accumulated during recoveries, plus the
        // wire-side counters the NICs kept.
        let mut integrity = self.integ;
        integrity.wire_injected = net.corrupt_injected;
        integrity.wire_detected = net.corrupt_detected;
        integrity.wire_refetched = net.corrupt_refetched;
        // Close the open epoch. A fault with `resume: false` may leave
        // the resume instant past the last completion; the final epoch
        // is then empty, not negative.
        let mut epochs = self.epochs.clone();
        epochs.push(self.open_epoch(self.last_completion.max(self.epoch_start)));
        let initiators: Vec<InitiatorMetrics> = self
            .initiators
            .iter()
            .map(|init| InitiatorMetrics {
                util: init.cores.utilization(span),
                ..init.m.clone()
            })
            .collect();
        // Run totals are sums of the initiator rows (the histogram is
        // integer buckets, so the merge is exact).
        let mut group_latency = Histogram::new();
        for i in &initiators {
            group_latency.merge(&i.group_latency);
        }
        // Per-tenant rollup: the sum of the tenant's initiators, plus
        // the DRR admission wait recorded at the targets.
        let mut tenants: Vec<TenantMetrics> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, &tenant)| {
                let mut t = TenantMetrics {
                    tenant,
                    weight: 0,
                    groups_done: 0,
                    blocks_done: 0,
                    group_latency: Histogram::new(),
                    gate_wait: self.tenant_gate_wait[ti].clone(),
                    finished_at: SimTime::ZERO,
                };
                for i in initiators.iter().filter(|i| i.tenant == tenant) {
                    t.weight += i.weight;
                    t.groups_done += i.groups_done;
                    t.blocks_done += i.blocks_done;
                    t.group_latency.merge(&i.group_latency);
                    t.finished_at = t.finished_at.max(i.finished_at);
                }
                t
            })
            .collect();
        tenants.sort_by_key(|t| t.tenant);
        RunMetrics {
            blocks_done: initiators.iter().map(|i| i.blocks_done).sum(),
            groups_done: initiators.iter().map(|i| i.groups_done).sum(),
            ops_done: self.ops_done,
            gate_buffered: initiators.iter().map(|i| i.gate_buffered).sum(),
            commands_sent: initiators.iter().map(|i| i.commands_sent).sum(),
            events_processed: self.events_processed,
            span,
            group_latency,
            op_latency: self.op_latency.clone(),
            stage_dispatch: self.stage_lat.clone(),
            initiator_util: initiators.iter().map(|i| i.util).sum::<f64>()
                / initiators.len() as f64,
            target_util,
            net,
            integrity,
            recoveries: self.recoveries.clone(),
            epochs,
            finished_at: self.last_completion,
            breakdown: self.trace.as_ref().map(StageTrace::finish),
            initiators,
            tenants,
            telemetry: self.telemetry.as_ref().map(TelemetrySampler::finish),
        }
    }

    /// The open epoch's row, as if it closed at `to`: the run totals
    /// minus what the closed epochs already account for.
    fn open_epoch(&self, to: SimTime) -> EpochMetrics {
        let total = |f: fn(&InitiatorMetrics) -> u64| -> u64 {
            self.initiators.iter().map(|i| f(&i.m)).sum()
        };
        let closed = |f: fn(&EpochMetrics) -> u64| -> u64 { self.epochs.iter().map(f).sum() };
        EpochMetrics {
            from: self.epoch_start,
            to,
            groups_done: total(|m| m.groups_done) - closed(|e| e.groups_done),
            blocks_done: total(|m| m.blocks_done) - closed(|e| e.blocks_done),
            ops_done: self.ops_done - closed(|e| e.ops_done),
        }
    }

    /// In-flight command `id`. An event names only live commands: a
    /// crash clears the slab together with the heap.
    fn cmd(&self, id: u64) -> &Cmd {
        self.cmds.get(id).expect("cmd exists")
    }

    fn cmd_mut(&mut self, id: u64) -> &mut Cmd {
        self.cmds.get_mut(id).expect("cmd exists")
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Resume(t) => self.on_resume(now, t),
            Event::CmdArrive(c) => self.on_cmd_arrive(now, c),
            Event::Resend { id, leg, pkts, corrupt } => self.on_resend(now, id, leg, pkts, corrupt),
            Event::SsdSubmit(c) => self.on_ssd_submit(now, c),
            Event::SsdFlushSubmit(c) => self.on_ssd_flush_submit(now, c),
            Event::SsdWriteDone(c) => self.on_ssd_write_done(now, c),
            Event::SsdFlushDone(c) => self.on_media_done(now, c, true),
            Event::DiscardsDone(c) => self.transmit(now, c, Leg::Completion, None),
            Event::CmdComplete(c) => self.on_cmd_complete(now, c),
        }
    }
}

#[cfg(test)]
mod tests;
