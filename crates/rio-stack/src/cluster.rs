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
//! `librio` API is the code the simulated initiator runs. Fault
//! handling and recovery live in the [`recovery`] child module.

use std::collections::VecDeque;

use rio_block::{Plug, StripedVolume};
use rio_net::{Fabric, Nic};
use rio_order::attr::{BlockRange, OrderingAttr, Seq, ServerId, StreamId};
use rio_order::pmrlog::{PmrLog, SlotRef};
use rio_order::scheduler::split_attr_into;
use rio_order::{Rio, RioSetup, SubmissionGate};
use rio_proto::{payload, PayloadDigest};
use rio_sim::{EventHeap, Histogram, SimRng, SimTime, Slab};
use rio_ssd::{BlockImage, Images, Ssd};

use crate::config::{ClusterConfig, FaultKind, OrderingMode};
use crate::cpu::CoreSet;
use crate::metrics::{
    EpochMetrics, InitiatorMetrics, IntegrityMetrics, RecoveryMetrics, RunMetrics,
};
use crate::telemetry::TelemetrySampler;
use crate::trace::{Stage, StageTrace, TRACE_NONE};
use crate::workload::{FsyncStage, GroupSpec, Workload};

pub mod recovery;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A thread (re)considers submitting work.
    Resume(usize),
    /// A command SEND was delivered at its target.
    CmdArrive(u64),
    /// The go-back-N timeout of a command's current wire [`Leg`] fired;
    /// resend the window.
    Resend(u64),
    /// A command is ready for SSD submission (gate passed + data in).
    SsdSubmit(u64),
    /// A command's embedded FLUSH may be submitted.
    SsdFlushSubmit(u64),
    /// A command's SSD write finished.
    SsdWriteDone(u64),
    /// A command's embedded FLUSH finished.
    SsdFlushDone(u64),
    /// A completion SEND was delivered at the initiator.
    CmdComplete(u64),
    /// A Horae control message was delivered at its target.
    CtrlArrive { target: usize, thread: usize },
    /// A Horae control acknowledgement reached the initiator.
    CtrlAck { thread: usize },
    /// A scheduled fault fires (index into the config's `FaultPlan`).
    Fault(u32),
}

/// NVMe-oF command capsule size on the wire (64 B SQE + headers).
const CMD_CAPSULE_BYTES: u64 = 96;
/// Completion capsule size on the wire.
const COMPLETION_BYTES: u64 = 32;

/// Command kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmdKind {
    Write,
    Flush,
}

/// One of the three wire transfers of a command. They run strictly in
/// sequence, so one go-back-N window per command suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Command capsule, initiator → target; delivery is `CmdArrive`.
    Capsule,
    /// One-sided data pull by the target; delivery sets `data_ready`.
    Pull,
    /// Completion capsule, target → initiator; delivery is `CmdComplete`.
    Completion,
}

/// One in-flight NVMe-oF command.
#[derive(Debug)]
struct Cmd {
    kind: CmdKind,
    thread: usize,
    target: usize,
    ssd: usize,
    qp: usize,
    phys: BlockRange,
    tag: u64,
    /// Rio ordering attribute (None on baseline paths).
    attr: Option<OrderingAttr>,
    /// Embedded FLUSH (fsync-style final request).
    flush_embedded: bool,
    /// Initiator-side unit this command belongs to.
    unit: u64,
    /// When the pulled data is in target memory (`FAR_FUTURE` until the
    /// pull — including any retransmissions — completes).
    data_ready: SimTime,
    /// When the target driver finished its CPU work and, for Rio, the
    /// gate released the command (`FAR_FUTURE` until then). The SSD
    /// submission fires once both this and `data_ready` are known.
    driver_ready: SimTime,
    /// Go-back-N bookkeeping of a parked leg: which one, the packets
    /// still undelivered, and the leg's total message size.
    leg: Leg,
    retx_pkts: u32,
    retx_bytes: u64,
    /// Whether the parked leg's failure was a detected corruption (as
    /// opposed to a plain drop) — the latest failure wins.
    retx_corrupt: bool,
    /// CRC-32C over the command's payload seeds, stamped at submission
    /// on integrity runs ([`PayloadDigest::NONE`] otherwise).
    digest: PayloadDigest,
    /// PMR log slot holding this command's ordering record.
    slot: Option<SlotRef>,
    /// Stage-trace slot of this command ([`TRACE_NONE`] when tracing
    /// is off; assigned by `send_cmd`).
    trace: u32,
}

impl Cmd {
    /// A command about to be posted: nothing on the wire yet, no
    /// ordering identity, payload or unit (writes fill those in).
    fn new(kind: CmdKind, thread: usize, target: usize, ssd: usize, qp: usize) -> Self {
        Cmd {
            kind,
            thread,
            target,
            ssd,
            qp,
            phys: BlockRange::new(0, 1),
            tag: 0,
            attr: None,
            flush_embedded: false,
            unit: u64::MAX,
            data_ready: SimTime::FAR_FUTURE,
            driver_ready: SimTime::FAR_FUTURE,
            leg: Leg::Capsule,
            retx_pkts: 0,
            retx_bytes: 0,
            retx_corrupt: false,
            digest: PayloadDigest::NONE,
            slot: None,
            trace: TRACE_NONE,
        }
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

/// One submitted-but-undelivered group of a Rio thread.
#[derive(Debug)]
struct Undelivered {
    /// Group sequence number on the thread's stream.
    seq: u32,
    /// When its last member was submitted (the latency clock's start).
    submitted: SimTime,
    /// The script entry, moved in at submit: its blocks and fsync stage
    /// are read off it, and a recovery re-queues it from here.
    spec: GroupSpec,
}

/// Slot index of an fsync stage in `stage_marks` / `stage_dispatch`.
fn stage_index(stage: FsyncStage) -> usize {
    match stage {
        FsyncStage::Data => 0,
        FsyncStage::Meta => 1,
        FsyncStage::Commit => 2,
    }
}

/// Synchronous-mode thread stage (Linux NVMe-oF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncStage {
    Idle,
    AwaitWrite,
    AwaitFlush,
}

/// Per-thread state.
struct ThreadState {
    /// Owning initiator (index into `Cluster::initiators`).
    init: usize,
    core: usize,
    stream: StreamId,
    /// Next script unit (op) index to generate.
    next_op: u64,
    /// Generated-but-unsubmitted groups of the current/pending ops.
    queue: VecDeque<GroupSpec>,
    inflight: usize,
    area_start: u64,
    area_blocks: u64,
    rng: SimRng,
    parked: bool,
    done_submitting: bool,
    sync_stage: SyncStage,
    /// The thread issued a sync point and waits for inflight == 0.
    syncing: bool,
    /// Start of the current fsync op (D submission).
    op_start: SimTime,
    /// Dispatch timestamps of the current op's stages.
    stage_marks: [Option<SimTime>; 3],
    /// Linux mode: whether the in-flight group needs a FLUSH leg and
    /// whether it ends an op.
    cur_flush_leg: bool,
    cur_sync_after: bool,
    /// Horae: the group whose control message awaits its ack (its data
    /// path dispatches then). The control path is serialized, so there
    /// is at most one.
    ctrl_pending: Option<GroupSpec>,
    /// Horae: earliest instant the next control post may issue (the
    /// serialized ordering-layer gap).
    ctrl_gate_until: SimTime,
    /// Rio: submitted-but-undelivered groups. Thread `i` owns stream
    /// `i` and delivery is in order, so this is one FIFO with
    /// contiguous sequence numbers: group `seq` sits at index
    /// `seq - front.seq`, a delivery pops the front, and a recovery
    /// redelivers the durable prefix and re-queues the rolled-back tail.
    undelivered: VecDeque<Undelivered>,
}

impl ThreadState {
    /// The still-undelivered group `seq` of this thread's stream.
    fn undelivered_group(&self, seq: u32) -> Option<&Undelivered> {
        let front = self.undelivered.front()?;
        self.undelivered.get(seq.checked_sub(front.seq)? as usize)
    }
}

/// One initiator host: its driver cores, fabric NIC and `librio`
/// handle (sequencer, ORDER queues, in-order completer), plus the
/// slice of the global stream space it owns. Stream ids are global —
/// initiator `i` owns `[m.stream_base, m.stream_base + m.streams)` — so
/// every structure keyed by (global) stream is implicitly keyed by
/// (initiator, stream) with no id translation anywhere on the event
/// path.
struct Initiator {
    cores: CoreSet,
    nic: Nic,
    /// Sized at the *global* stream count; the initiator only ever
    /// touches its own slice.
    rio: Rio,
    /// Index of the tenant it bills to in `Cluster::tenants`.
    tenant_idx: usize,
    /// Its `RunMetrics::initiators` row — identity (tenant, weight,
    /// stream slice) and the counters the event path bumps in place.
    /// Run totals are sums of these rows; `util` is filled in by
    /// `metrics()`.
    m: InitiatorMetrics,
}

/// Blocks of SSD service one DRR weight unit earns per round.
const DRR_QUANTUM_BLOCKS: u64 = 8;
/// Admitted-but-incomplete writes one target sustains before its DRR
/// holds commands back. Small on purpose: fairness needs the backlog
/// to queue *here*, where the scheduler arbitrates, not inside the
/// device.
const DRR_OUTSTANDING_CAP: usize = 4;

/// Target-side deficit-round-robin scheduler over per-tenant queues
/// at the SSD admission point. Only instantiated when more than one
/// distinct tenant shares the cluster — single-tenant runs never
/// construct it, keeping them byte-identical to the pre-tenancy path.
struct DrrSched {
    /// Per-tenant DRR weight (the sum of the tenant's initiators'
    /// weights, each at least 1), indexed like `Cluster::tenants`.
    weights: Vec<u32>,
    /// Per-tenant deficit counters, in blocks.
    deficits: Vec<u64>,
    /// Per-tenant FIFO of (command id, enqueue instant, blocks).
    queues: Vec<VecDeque<(u64, SimTime, u32)>>,
    /// Round-robin cursor over tenants.
    cursor: usize,
    /// Whether the cursor just arrived at its queue (quantum not yet
    /// granted for this visit). A visit spans many pump calls — the
    /// outstanding cap rations slots, not rounds — so the flag keeps
    /// one quantum per visit no matter how the pumping interleaves.
    fresh: bool,
    /// Writes admitted to this target's SSDs and not yet completed.
    outstanding: usize,
}

impl DrrSched {
    fn new(weights: Vec<u32>) -> Self {
        let n = weights.len();
        DrrSched {
            weights,
            deficits: vec![0; n],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            fresh: true,
            outstanding: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Forgets every queued command and outstanding write (a crash
    /// killed them all; their slab ids must never resolve again).
    fn clear(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for d in &mut self.deficits {
            *d = 0;
        }
        self.fresh = true;
        self.outstanding = 0;
    }
}

/// One target server.
struct Target {
    cores: CoreSet,
    nic: Nic,
    gate: SubmissionGate,
    ssds: Vec<Ssd>,
    log: Option<PmrLog>,
    /// Per-tenant fair scheduler at the SSD admission point (`None`
    /// unless the run has more than one distinct tenant).
    drr: Option<DrrSched>,
    /// Live PMR slots per stream (indexed by stream id), append order.
    slots: Vec<VecDeque<(u32, SlotRef)>>,
    /// Whether a stream ever appended a PMR slot on this target; the
    /// superblock head mark is only maintained for such streams.
    slot_seen: Vec<bool>,
    /// Last release (head-seq) applied per stream.
    applied_release: Vec<u32>,
}

impl Target {
    fn apply_pmr_write(&mut self, w: &rio_order::pmrlog::PmrWrite) {
        self.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
    }
}

/// The simulated cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    workload: Workload,
    events: EventHeap<Event>,
    fabric: Fabric,
    /// The initiator hosts, one per entry of the normalised
    /// `effective_initiators()` list.
    initiators: Vec<Initiator>,
    volume: StripedVolume,
    /// Distinct tenant ids, in order of first appearance across the
    /// effective initiator list.
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
    /// Scratch buffers for the dispatch path (volume mapping, chunking,
    /// slicing and splitting), reused across units.
    map_scratch: Vec<rio_block::Extent>,
    extent_scratch: Vec<rio_block::Extent>,
    slice_scratch: Vec<BlockRange>,
    frag_scratch: Vec<OrderingAttr>,
    /// Scratch buffer for one DRR pump's admissions: (tenant index,
    /// command id, enqueue instant).
    admit_scratch: Vec<(usize, u64, SimTime)>,
    /// Round-robin cursor for the scatter (non-pinned) QP policy.
    scatter_qp: u64,
    // Metrics. Groups, blocks, commands and group latency are counted
    // once, on the owning initiator's row.
    ops_done: u64,
    ctrl_sent: u64,
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
    /// Panics on inconsistent configuration (zero threads, streams
    /// fewer than threads, or targets without SSDs).
    pub fn new(cfg: ClusterConfig, workload: Workload) -> Self {
        assert!(workload.threads > 0, "need at least one thread");
        // The one place the initiator topology is read from the config:
        // everything below works from this normalised list.
        let init_cfgs = cfg.effective_initiators();
        // Thread i owns global stream i, partitioned across initiators
        // by their configured stream counts.
        let init_of_stream: Vec<usize> = init_cfgs
            .iter()
            .enumerate()
            .flat_map(|(ii, ic)| std::iter::repeat(ii).take(ic.streams))
            .collect();
        let total_streams = init_of_stream.len();
        assert!(
            init_cfgs.iter().all(|ic| ic.streams > 0),
            "every initiator needs at least one stream"
        );
        assert!(total_streams >= workload.threads, "need one stream per thread");
        // Spare streams are only meaningful on a single initiator; with
        // several, a short thread count would leave whole hosts idle.
        assert!(
            init_cfgs.len() == 1 || workload.threads == total_streams,
            "multi-initiator runs need exactly one thread per stream"
        );
        assert!(!cfg.targets.is_empty(), "need at least one target");
        if !cfg.faults.events.is_empty() {
            // Pure packet-corruption faults only retune the fabric and
            // work under any mode; everything else runs the recovery
            // machinery, which only Rio's persisted attributes support.
            let needs_recovery = cfg
                .faults
                .events
                .iter()
                .any(|e| !matches!(e.kind, FaultKind::PacketCorrupt { .. }));
            assert!(
                !needs_recovery || matches!(cfg.mode, OrderingMode::Rio { .. }),
                "fault injection requires a Rio mode: recovery rebuilds \
                 the order from persisted attributes, which only Rio keeps"
            );
            for w in cfg.faults.events.windows(2) {
                assert!(w[0].at < w[1].at, "fault times must strictly increase");
            }
            for ev in &cfg.faults.events {
                for t in ev.kind.hit_targets(cfg.targets.len()) {
                    assert!(t < cfg.targets.len(), "fault names target {t} of {}", cfg.targets.len());
                }
            }
        }
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
        for (t, tc) in cfg.targets.iter().enumerate() {
            assert!(!tc.ssds.is_empty(), "target {t} has no SSDs");
            for (s, prof) in tc.ssds.iter().enumerate() {
                legs.push((ServerId(t as u16), s));
                min_cap = min_cap.min(prof.capacity_blocks);
            }
        }
        let volume = StripedVolume::new(legs, cfg.stripe_blocks, min_cap);

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
            .map(|tc| {
                let ssds: Vec<Ssd> = tc
                    .ssds
                    .iter()
                    .map(|p| {
                        let mut s = Ssd::new(p.clone(), root_rng.below(u64::MAX));
                        s.set_integrity(integrity);
                        s
                    })
                    .collect();
                let mut t = Target {
                    cores: CoreSet::new(tc.cores),
                    // One connection (QP group) per initiator.
                    nic: Nic::for_profile(init_cfgs.len() * cfg.qps_per_target, &wire),
                    gate: SubmissionGate::with_streams(total_streams),
                    ssds,
                    log: None,
                    drr: multi_tenant.then(|| DrrSched::new(tenant_weights.clone())),
                    slots: vec![VecDeque::new(); total_streams],
                    slot_seen: vec![false; total_streams],
                    applied_release: vec![0; total_streams],
                };
                if matches!(cfg.mode, OrderingMode::Rio { .. }) {
                    let pmr_len = t.ssds[0].pmr().len();
                    let (log, writes) = PmrLog::format(pmr_len, total_streams);
                    for w in &writes {
                        t.apply_pmr_write(w);
                    }
                    t.log = Some(log);
                }
                t
            })
            .collect();

        let mut stream_base = 0usize;
        let initiators: Vec<Initiator> = init_cfgs
            .iter()
            .zip(tenant_idx)
            .enumerate()
            .map(|(i, (ic, tenant_idx))| {
                let init = Initiator {
                    cores: CoreSet::new(ic.cores),
                    nic: Nic::for_profile(n_targets * cfg.qps_per_target, &wire),
                    rio: Rio::setup(RioSetup {
                        streams: total_streams,
                        servers: n_targets,
                        merge: matches!(cfg.mode, OrderingMode::Rio { merge: true }),
                        window: cfg.max_inflight_per_stream * 2,
                    }),
                    tenant_idx,
                    m: InitiatorMetrics {
                        initiator: i,
                        tenant: ic.tenant,
                        weight: ic.weight,
                        stream_base,
                        streams: ic.streams,
                        groups_done: 0,
                        blocks_done: 0,
                        commands_sent: 0,
                        gate_buffered: 0,
                        group_latency: Histogram::new(),
                        util: 0.0,
                        finished_at: SimTime::ZERO,
                    },
                };
                stream_base += ic.streams;
                init
            })
            .collect();

        let per_thread_blocks = volume.capacity_blocks() / workload.threads as u64;
        // Only Rio threads queue undelivered groups, one window deep.
        let undelivered_cap = match cfg.mode {
            OrderingMode::Rio { .. } => cfg.max_inflight_per_stream,
            _ => 0,
        };
        let threads: Vec<ThreadState> = (0..workload.threads)
            .map(|i| ThreadState {
                init: init_of_stream[i],
                core: (i - initiators[init_of_stream[i]].m.stream_base)
                    % initiators[init_of_stream[i]].cores.len(),
                stream: StreamId(i as u16),
                next_op: 0,
                queue: VecDeque::new(),
                inflight: 0,
                area_start: i as u64 * per_thread_blocks,
                area_blocks: per_thread_blocks,
                rng: root_rng.fork(),
                parked: false,
                done_submitting: false,
                sync_stage: SyncStage::Idle,
                syncing: false,
                op_start: SimTime::ZERO,
                stage_marks: [None; 3],
                cur_flush_leg: false,
                cur_sync_after: false,
                ctrl_pending: None,
                ctrl_gate_until: SimTime::ZERO,
                undelivered: VecDeque::with_capacity(undelivered_cap),
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
            slice_scratch: Vec::with_capacity(16),
            frag_scratch: Vec::with_capacity(16),
            admit_scratch: Vec::new(),
            scatter_qp: 0,
            ops_done: 0,
            ctrl_sent: 0,
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

    /// Runs the workload, then asserts every target's media holds
    /// exactly what was submitted before building metrics: every
    /// sealed block matches its seal (no corrupt block survives a run
    /// — all are detected and either rolled back + resubmitted or
    /// discarded during recovery) and is byte-for-byte the payload its
    /// embedded seed generates (recovered bytes == submitted bytes).
    #[cfg(test)]
    pub(crate) fn run_and_verify(mut self) -> RunMetrics {
        self.run_loop();
        let m = self.metrics();
        for (t, target) in self.targets.iter().enumerate() {
            for (s, ssd) in target.ssds.iter().enumerate() {
                assert!(
                    ssd.media_verified(),
                    "corrupt block survived the run on target {t} ssd {s}"
                );
                assert!(
                    ssd.payload_verified(),
                    "media block differs from its submitted payload on target {t} ssd {s}"
                );
            }
        }
        m
    }

    /// The event loop body shared by [`Cluster::run`] and the
    /// verifying test harness.
    fn run_loop(&mut self) {
        self.start();
        loop {
            while let Some((now, ev)) = self.events.pop() {
                self.events_processed += 1;
                self.handle(now, ev);
            }
            // Faults whose heap events died with an earlier
            // non-resuming fault's clear still fire, in order, at
            // their scheduled times.
            if self.fault_cursor < self.cfg.faults.events.len() {
                let idx = self.fault_cursor;
                let at = self.cfg.faults.events[idx].at.max(self.last_completion);
                self.events_processed += 1;
                self.on_fault(at, idx);
            } else {
                break;
            }
        }
    }

    /// Schedules the initial thread wake-ups and the fault plan.
    pub(crate) fn start(&mut self) {
        for t in 0..self.threads.len() {
            self.events.push(SimTime::ZERO, Event::Resume(t));
        }
        for i in 0..self.cfg.faults.events.len() {
            let at = self.cfg.faults.events[i].at;
            self.events.push(at, Event::Fault(i as u32));
        }
    }

    /// Runs until the event heap drains or `deadline` passes; returns
    /// the virtual time reached.
    #[cfg(test)]
    pub(crate) fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let mut reached = SimTime::ZERO;
        while let Some((now, ev)) = self.events.pop_if_at_or_before(deadline) {
            self.events_processed += 1;
            self.handle(now, ev);
            reached = now;
        }
        if self.events.is_empty() {
            reached
        } else {
            deadline
        }
    }

    /// Builds the final metrics snapshot.
    pub(crate) fn metrics(&mut self) -> RunMetrics {
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
        let gate_buffered: u64 = self
            .targets
            .iter()
            .map(|t| t.gate.total_buffered_events())
            .sum();
        let mut net = crate::metrics::NetMetrics::default();
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
        let mut tenants: Vec<crate::metrics::TenantMetrics> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, &tenant)| {
                let mut t = crate::metrics::TenantMetrics {
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
            gate_buffered,
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

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Resume(t) => self.on_resume(now, t),
            Event::CmdArrive(c) => self.on_cmd_arrive(now, c),
            Event::Resend(c) => self.on_resend(now, c),
            Event::SsdSubmit(c) => self.on_ssd_submit(now, c),
            Event::SsdFlushSubmit(c) => self.on_ssd_flush_submit(now, c),
            Event::SsdWriteDone(c) => self.on_ssd_write_done(now, c),
            Event::SsdFlushDone(c) => self.on_media_done(now, c, true),
            Event::CmdComplete(c) => self.on_cmd_complete(now, c),
            Event::CtrlArrive { target, thread } => self.on_ctrl_arrive(now, target, thread),
            Event::CtrlAck { thread } => self.on_ctrl_ack(now, thread),
            Event::Fault(i) => self.on_fault(now, i as usize),
        }
    }

    // ---- submission side -------------------------------------------------

    fn on_resume(&mut self, now: SimTime, t: usize) {
        // A thread waiting at a sync point stays parked until its window
        // drains (`maybe_wake` finishes the op and resumes it).
        self.threads[t].parked = self.threads[t].syncing;
        if self.threads[t].syncing {
            return;
        }
        match self.cfg.mode {
            OrderingMode::Rio { .. } => self.submit_async_rio(now, t),
            OrderingMode::Orderless => self.submit_async_orderless(now, t),
            OrderingMode::Horae => self.submit_horae(now, t),
            OrderingMode::LinuxNvmf => self.submit_linux(now, t),
        }
    }

    fn thread_has_work(&self, t: usize) -> bool {
        !self.threads[t].queue.is_empty()
            || self.threads[t].next_op < self.workload.groups_per_thread
    }

    /// Pops the next group to submit, generating the next script unit
    /// when the queue runs dry.
    fn next_group_spec(&mut self, t: usize) -> GroupSpec {
        if self.threads[t].queue.is_empty() {
            let th = &mut self.threads[t];
            self.workload.op_into(
                th.next_op,
                th.area_start,
                th.area_blocks,
                &mut th.rng,
                &mut th.queue,
            );
            th.next_op += 1;
        }
        self.threads[t].queue.pop_front().expect("queue refilled")
    }

    /// Charges per-op application CPU and tracks fsync op starts.
    fn note_group_start(&mut self, mut cpu: SimTime, t: usize, spec: &GroupSpec) -> SimTime {
        if spec.app_cpu_ns > 0 {
            cpu = self.init_run_on(t, cpu, spec.app_cpu_ns);
        }
        let first_stage = matches!(spec.stage, Some(FsyncStage::Data))
            || (matches!(spec.stage, Some(FsyncStage::Meta))
                && self.threads[t].stage_marks[0].is_none()
                && self.threads[t].op_start == SimTime::ZERO)
            || (spec.stage.is_some()
                && self.threads[t].stage_marks.iter().all(|m| m.is_none())
                && !self.threads[t].syncing);
        if spec.stage.is_some() && first_stage && self.threads[t].op_start == SimTime::ZERO {
            self.threads[t].op_start = cpu;
        }
        cpu
    }

    /// Records the dispatch mark of an fsync stage.
    fn mark_stage(&mut self, t: usize, stage: FsyncStage, at: SimTime) {
        let idx = stage_index(stage);
        if self.threads[t].stage_marks[idx].is_none() {
            self.threads[t].stage_marks[idx] = Some(at);
        }
    }

    /// Finishes the current fsync op at `now` (the sync point cleared).
    fn finish_op(&mut self, t: usize, now: SimTime) {
        let th = &self.threads[t];
        let start = th.op_start;
        let marks = th.stage_marks;
        self.ops_done += 1;
        if start != SimTime::ZERO || marks.iter().any(|m| m.is_some()) {
            self.op_latency.record(now.since(start));
            let mut prev = start;
            for (i, m) in marks.iter().enumerate() {
                if let Some(at) = m {
                    self.stage_lat[i].record(at.since(prev).as_nanos() as f64);
                    prev = *at;
                }
            }
            self.stage_lat[3].record(now.since(prev).as_nanos() as f64);
        }
        let th = &mut self.threads[t];
        th.op_start = SimTime::ZERO;
        th.stage_marks = [None; 3];
    }

    /// Rio: submit batches through the initiator's `librio` handle.
    fn submit_async_rio(&mut self, now: SimTime, t: usize) {
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while self.threads[t].inflight < window && self.thread_has_work(t) {
            let batch = self.workload.batch.max(1);
            let mut submitted = 0;
            let mut hit_sync = false;
            while submitted < batch && self.threads[t].inflight < window && self.thread_has_work(t)
            {
                let spec = self.next_group_spec(t);
                cpu = self.note_group_start(cpu, t, &spec);
                let stream = self.threads[t].stream;
                let n = spec.members.len();
                let mut seq = 0u32;
                for (i, m) in spec.members.iter().enumerate() {
                    let last = i == n - 1;
                    cpu = self.init_run_on(
                        t,
                        cpu,
                        self.cfg.cpu.submit_bio + self.cfg.cpu.order_queue,
                    );
                    let attr = self.initiators[self.threads[t].init].rio.submit(
                        stream,
                        m.range,
                        last,
                        last && spec.flush,
                    );
                    seq = attr.seq_start.0;
                }
                if let Some(tm) = &mut self.telemetry {
                    tm.group_submitted(cpu, 1);
                }
                hit_sync = spec.sync_after;
                let th = &mut self.threads[t];
                debug_assert!(th.undelivered.back().map_or(true, |g| g.seq + 1 == seq));
                th.undelivered.push_back(Undelivered {
                    seq,
                    submitted: cpu,
                    spec,
                });
                th.inflight += 1;
                submitted += 1;
                if hit_sync {
                    break;
                }
            }
            // Flush the ORDER queue: merge pass + dispatch.
            let units = self.initiators[self.threads[t].init].rio.flush(self.threads[t].stream);
            for unit in units {
                let merged_extra = unit.parts.len().saturating_sub(1) as u64;
                if merged_extra > 0 {
                    cpu = self.init_run_on(t, cpu, self.cfg.cpu.merge_per_bio * merged_extra);
                }
                cpu = self.dispatch_rio_unit(cpu, t, unit);
            }
            if hit_sync && self.wait_for_sync(t, cpu) {
                return;
            }
        }
        self.park_or_finish(t);
    }

    /// Thread `t` reached a sync point at `cpu`: it parks until its
    /// window drains (`maybe_wake` then finishes the op). Returns
    /// `false` in the degenerate case where nothing is in flight and
    /// the op finishes on the spot.
    fn wait_for_sync(&mut self, t: usize, cpu: SimTime) -> bool {
        let waiting = self.threads[t].inflight > 0;
        if !waiting {
            self.finish_op(t, cpu);
        }
        self.threads[t].syncing = waiting;
        self.threads[t].parked = waiting;
        waiting
    }

    /// Submit-loop epilogue: the thread parks while it has work queued
    /// or in flight, and is done submitting otherwise.
    fn park_or_finish(&mut self, t: usize) {
        if self.thread_has_work(t) || self.threads[t].inflight > 0 {
            self.threads[t].parked = true;
        } else {
            self.threads[t].done_submitting = true;
        }
    }

    /// Dispatches one Rio unit: stripe, split, stamp, send fragments.
    fn dispatch_rio_unit(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        unit: rio_order::DispatchUnit,
    ) -> SimTime {
        let attr = unit.attr;
        let mut extents = std::mem::take(&mut self.extent_scratch);
        extents.clear();
        self.chunked_extents_into(attr.range, &mut extents);
        // Build logical slices for the splitter, then graft physical
        // ranges onto the fragments.
        let mut slices = std::mem::take(&mut self.slice_scratch);
        slices.clear();
        let mut off = 0u64;
        for e in &extents {
            slices.push(BlockRange::new(attr.range.lba + off, e.range.blocks));
            off += e.range.blocks as u64;
        }
        let mut frags = std::mem::take(&mut self.frag_scratch);
        frags.clear();
        split_attr_into(&attr, &slices, &mut frags);
        let blocks_total: u32 = attr.range.blocks;
        let unit_id = self.units.insert(Unit {
            plain_groups: 0,
            blocks: blocks_total,
            fragments_total: frags.len(),
            fragments_done: 0,
            submitted: cpu,
        });
        for (frag, ext) in frags.iter_mut().zip(extents.iter()) {
            frag.range = ext.range;
            frag.ssd = ext.ssd as u8;
            self.initiators[self.threads[t].init].rio.stamp(frag, ext.server);
            cpu = self.post_write(cpu, t, ext, Some(*frag), frag.flush, unit_id);
        }
        self.extent_scratch = extents;
        self.slice_scratch = slices;
        self.frag_scratch = frags;
        // Stage dispatch marks for the Fig. 14 breakdown, all at the
        // same `cpu` instant.
        for p in unit.parts.iter().filter(|p| p.attr.boundary) {
            let group = self.threads[t].undelivered_group(p.attr.seq_start.0);
            if let Some(stage) = group.and_then(|g| g.spec.stage) {
                self.mark_stage(t, stage, cpu);
            }
        }
        cpu
    }

    /// Orderless: plug batching and merging, then async dispatch.
    fn submit_async_orderless(&mut self, now: SimTime, t: usize) {
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while self.threads[t].inflight < window && self.thread_has_work(t) {
            let batch = self.workload.batch.max(1);
            let mut plug = Plug::new();
            let mut groups_in_batch = 0u64;
            let mut bio_id = 0u64;
            let mut hit_sync = false;
            while groups_in_batch < batch as u64
                && self.threads[t].inflight < window
                && self.thread_has_work(t)
            {
                let spec = self.next_group_spec(t);
                cpu = self.note_group_start(cpu, t, &spec);
                for m in spec.members.iter() {
                    cpu = self.init_run_on(t, cpu, self.cfg.cpu.submit_bio);
                    let mut bio = rio_block::Bio::write(bio_id, m.range, bio_id);
                    bio.flags.flush = spec.flush;
                    plug.add(bio);
                    bio_id += 1;
                }
                self.threads[t].inflight += 1;
                groups_in_batch += 1;
                if let Some(stage) = spec.stage {
                    self.mark_stage(t, stage, cpu);
                }
                if spec.sync_after {
                    hit_sync = true;
                    break;
                }
            }
            let max_blocks = if self.cfg.plug_merge { 32 } else { 1 };
            let runs = plug.finish(max_blocks);
            for run in runs {
                let merged_extra = run.bios.len().saturating_sub(1) as u64;
                if merged_extra > 0 {
                    cpu = self.init_run_on(t, cpu, self.cfg.cpu.merge_per_bio * merged_extra);
                }
                let flush = run.bios.iter().any(|b| b.flags.flush);
                cpu = self.dispatch_plain_unit(cpu, t, run.range, run.bios.len() as u64, flush);
            }
            if hit_sync && self.wait_for_sync(t, cpu) {
                return;
            }
        }
        self.park_or_finish(t);
    }

    /// Dispatches one orderless/baseline write covering `range`,
    /// representing `groups` workload groups. Returns the CPU cursor.
    fn dispatch_plain_unit(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        range: BlockRange,
        groups: u64,
        flush_embedded: bool,
    ) -> SimTime {
        let mut extents = std::mem::take(&mut self.extent_scratch);
        extents.clear();
        self.chunked_extents_into(range, &mut extents);
        let unit_id = self.units.insert(Unit {
            plain_groups: groups,
            blocks: range.blocks,
            fragments_total: extents.len(),
            fragments_done: 0,
            submitted: cpu,
        });
        if let Some(tm) = &mut self.telemetry {
            tm.group_submitted(cpu, groups);
        }
        for ext in &extents {
            cpu = self.post_write(cpu, t, ext, None, flush_embedded, unit_id);
        }
        self.extent_scratch = extents;
        cpu
    }

    /// Stamps, posts and sends the write command for extent `ext` of
    /// thread `t`'s unit `unit`: payload digest (integrity runs charge
    /// the per-block CRC pass to the app core), command build + post,
    /// QP choice, capsule on the wire. Payloads are tagged with the
    /// group sequence under Rio and the unit id on the baseline paths.
    /// Returns the CPU cursor.
    fn post_write(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        ext: &rio_block::Extent,
        attr: Option<OrderingAttr>,
        flush_embedded: bool,
        unit: u64,
    ) -> SimTime {
        let stream = self.threads[t].stream.0;
        let tag = attr.map_or(unit, |a| a.seq_start.0 as u64);
        let mut cmd = Cmd::new(CmdKind::Write, t, ext.server.0 as usize, ext.ssd, 0);
        if self.integrity {
            let blocks = ext.range.blocks as u64;
            cpu = self.init_run_on(t, cpu, self.cfg.cpu.crc_per_block * blocks);
            let lba = ext.range.lba;
            cmd.digest = PayloadDigest::over_seeds(
                (0..blocks).map(|j| payload::seed_for(stream, tag, lba + j)),
            );
        }
        let stamped = cpu;
        cpu = self.init_run_on(t, cpu, self.cfg.cpu.cmd_post);
        cmd.qp = self.pick_qp(stream as usize);
        cmd.phys = ext.range;
        cmd.tag = tag;
        cmd.attr = attr;
        cmd.flush_embedded = flush_embedded;
        cmd.unit = unit;
        self.send_cmd(cpu, stamped, cmd);
        cpu
    }

    /// Linux ordered NVMe-oF: one group at a time, completion + FLUSH.
    ///
    /// Block-level ordered workloads flush after every request (the
    /// classic ordered NVMe-oF of §2.2). File-system journaling flushes
    /// only on the commit record, like Ext4's sync transfer.
    fn submit_linux(&mut self, now: SimTime, t: usize) {
        if self.threads[t].sync_stage != SyncStage::Idle {
            return;
        }
        if !self.thread_has_work(t) {
            self.threads[t].done_submitting = true;
            return;
        }
        let spec = self.next_group_spec(t);
        let mut cpu = self.note_group_start(now, t, &spec);
        // Journaling stages pay the jbd2 kthread handoff (wakeup of the
        // journal thread plus the completion softirq).
        if spec.stage.is_some() {
            cpu = self.init_run_on(t, cpu, 2 * self.cfg.cpu.ctx_switch);
        }
        self.threads[t].inflight += 1;
        self.threads[t].sync_stage = SyncStage::AwaitWrite;
        self.threads[t].cur_flush_leg = spec.stage.is_none() || spec.flush;
        self.threads[t].cur_sync_after = spec.sync_after || spec.stage.is_none();
        for m in spec.members.iter() {
            cpu = self.init_run_on(t, cpu, self.cfg.cpu.submit_bio);
            cpu = self.dispatch_plain_unit(cpu, t, m.range, 1, false);
        }
        if let Some(stage) = spec.stage {
            self.mark_stage(t, stage, cpu);
        }
    }

    /// Horae: serialized control path, then asynchronous data path.
    fn submit_horae(&mut self, now: SimTime, t: usize) {
        // Respect the serialized control-path gap even when woken early
        // by a data completion.
        if now < self.threads[t].ctrl_gate_until {
            let at = self.threads[t].ctrl_gate_until;
            self.events.push(at, Event::Resume(t));
            return;
        }
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while self.threads[t].ctrl_pending.is_none()
            && self.threads[t].inflight < window
            && self.thread_has_work(t)
        {
            let spec = self.next_group_spec(t);
            cpu = self.note_group_start(cpu, t, &spec);
            self.threads[t].inflight += 1;
            cpu = self.init_run_on(t, cpu, self.cfg.cpu.horae_ctrl_post);
            // Control metadata goes to the group's primary target.
            let primary = self.volume.map_block(spec.members[0].range.lba).0 .0 as usize;
            let qp = self.threads[t].stream.0 as usize % self.cfg.qps_per_target;
            let init_qp = self.target_qp(primary, qp);
            let init = self.threads[t].init;
            let delivery = self
                .fabric
                .send(&mut self.initiators[init].nic, init_qp, cpu, 64);
            self.ctrl_sent += 1;
            self.threads[t].ctrl_pending = Some(spec);
            self.events.push(
                delivery,
                Event::CtrlArrive {
                    target: primary,
                    thread: t,
                },
            );
        }
        self.park_or_finish(t);
    }

    fn on_ctrl_arrive(&mut self, now: SimTime, target: usize, thread: usize) {
        // Target CPU: RECV + ordering-layer bookkeeping + PMR MMIO.
        // The ordering layer appends metadata in global order, so the
        // handler serializes on one dedicated core.
        let core = 0;
        let done = self.targets[target]
            .cores
            .run_on(core, now, self.cfg.cpu.horae_ctrl_handle);
        // Acknowledge over the target's NIC, on the sender's
        // connection QP group.
        let qp = self.conn_qp(
            thread,
            self.threads[thread].stream.0 as usize % self.cfg.qps_per_target,
        );
        let delivery = self
            .fabric
            .send(&mut self.targets[target].nic, qp, done, 16);
        self.events.push(delivery, Event::CtrlAck { thread });
    }

    fn on_ctrl_ack(&mut self, now: SimTime, thread: usize) {
        let t = thread;
        let cpu = self.init_run_on(t, now, self.cfg.cpu.irq);
        // Dispatch the acknowledged group's data path asynchronously.
        let spec = self.threads[t]
            .ctrl_pending
            .take()
            .expect("ctrl ack without pending group");
        let mut c = cpu;
        for m in spec.members.iter() {
            c = self.init_run_on(t, c, self.cfg.cpu.submit_bio);
            c = self.dispatch_plain_unit(c, t, m.range, 1, spec.flush);
        }
        if let Some(stage) = spec.stage {
            self.mark_stage(t, stage, c);
        }
        if spec.sync_after {
            if !self.wait_for_sync(t, c) {
                self.events.push(c, Event::Resume(t));
            }
            return;
        }
        // The serialized control path may proceed with the next group
        // only after the ordering-layer gap.
        let next = c + rio_sim::SimDuration::from_nanos(self.cfg.cpu.horae_ctrl_gap);
        self.threads[t].ctrl_gate_until = next;
        self.events.push(next, Event::Resume(t));
    }

    // ---- network / target side -------------------------------------------

    /// Initiator-side QP index for (target, qp-within-connection).
    fn target_qp(&self, target: usize, qp: usize) -> usize {
        target * self.cfg.qps_per_target + qp
    }

    /// Charges `cost_ns` on thread `t`'s pinned core of its initiator.
    fn init_run_on(&mut self, t: usize, now: SimTime, cost_ns: u64) -> SimTime {
        let (init, core) = (self.threads[t].init, self.threads[t].core);
        self.initiators[init].cores.run_on(core, now, cost_ns)
    }

    /// Target-side connection QP for thread `t`'s command: every
    /// initiator owns one group of `qps_per_target` QPs on each target
    /// NIC, so the wire QP is the initiator's base plus the
    /// within-connection QP. Single-initiator runs reduce to `qp`.
    fn conn_qp(&self, t: usize, qp: usize) -> usize {
        self.threads[t].init * self.cfg.qps_per_target + qp
    }

    /// Picks the QP for a command of `stream`: pinned (Principle 2) or
    /// scattered round-robin (the ablation).
    fn pick_qp(&mut self, stream: usize) -> usize {
        if self.cfg.pin_stream_to_qp {
            stream % self.cfg.qps_per_target
        } else {
            self.scatter_qp += 1;
            (self.scatter_qp as usize) % self.cfg.qps_per_target
        }
    }

    /// Splits a logical range into per-device extents capped at the
    /// device transfer limit and the PMR record length field, appending
    /// to `out`. Uses the internal map scratch buffer, so callers pass
    /// a buffer they took out of `self` first.
    fn chunked_extents_into(&mut self, range: BlockRange, out: &mut Vec<rio_block::Extent>) {
        let mut mapped = std::mem::take(&mut self.map_scratch);
        mapped.clear();
        self.volume.map_into(range, &mut mapped);
        for e in &mapped {
            let prof = self.targets[e.server.0 as usize].ssds[e.ssd].profile();
            let cap = prof.max_transfer_blocks.min(255).max(1);
            let mut remaining = e.range.blocks;
            let mut lba = e.range.lba;
            let mut off = e.logical_offset;
            while remaining > 0 {
                let take = remaining.min(cap);
                out.push(rio_block::Extent {
                    server: e.server,
                    ssd: e.ssd,
                    range: BlockRange::new(lba, take),
                    logical_offset: off,
                });
                lba += take as u64;
                off += take as u64;
                remaining -= take;
            }
        }
        self.map_scratch = mapped;
    }

    /// Applies one fabric transfer step of command `id`'s `leg`: a
    /// delivery runs the leg's continuation at the arrival instant; a
    /// drop parks the go-back-N window on the command and schedules its
    /// resend at the recovery timeout.
    fn xfer_step(&mut self, id: u64, leg: Leg, bytes: u64, step: rio_net::XferStep) {
        match (step, leg) {
            (rio_net::XferStep::Delivered { at }, Leg::Capsule) => {
                self.events.push(at, Event::CmdArrive(id));
            }
            (rio_net::XferStep::Delivered { at }, Leg::Pull) => {
                self.cmds.get_mut(id).expect("cmd exists").data_ready = at;
                self.try_ssd_submit(id);
            }
            (rio_net::XferStep::Delivered { at }, Leg::Completion) => {
                self.events.push(at, Event::CmdComplete(id));
            }
            (
                rio_net::XferStep::Dropped {
                    resume_at,
                    pkts_left,
                    corrupted,
                },
                _,
            ) => {
                let cmd = self.cmds.get_mut(id).expect("cmd exists");
                cmd.leg = leg;
                cmd.retx_pkts = pkts_left;
                cmd.retx_bytes = bytes;
                cmd.retx_corrupt = corrupted;
                self.events.push(resume_at, Event::Resend(id));
            }
        }
    }

    /// Sends one command capsule over the fabric: either it arrives at
    /// the target (`CmdArrive`) or a packet drops and the go-back-N
    /// timeout is scheduled as a `Resend` event. `stamped` is the
    /// instant the command was stamped/generated, before the post CPU
    /// charge — the head of its stage trace.
    fn send_cmd(&mut self, now: SimTime, stamped: SimTime, mut cmd: Cmd) {
        let init = self.threads[cmd.thread].init;
        self.initiators[init].m.commands_sent += 1;
        if let Some(tm) = &mut self.telemetry {
            tm.cmd_sent(now);
        }
        if let Some(tr) = &mut self.trace {
            let stream = self.threads[cmd.thread].stream.0;
            let tid = tr.open(
                init as u16,
                stream,
                cmd.attr.map(|a| (a.seq_start.0, a.seq_end.0)),
                cmd.target as u16,
                cmd.ssd as u16,
                cmd.phys.lba,
                cmd.flush_embedded || cmd.kind == CmdKind::Flush,
                stamped,
                now,
            );
            if let Some(a) = &cmd.attr {
                tr.pending_push(a.stream.0 as usize, a.seq_end.0, tid);
            }
            cmd.trace = tid;
        }
        let qp = self.target_qp(cmd.target, cmd.qp);
        let id = self.cmds.insert(cmd);
        let step =
            self.fabric
                .send_burst(&mut self.initiators[init].nic, qp, now, CMD_CAPSULE_BYTES);
        self.xfer_step(id, Leg::Capsule, CMD_CAPSULE_BYTES, step);
    }

    /// A leg's retransmission timeout fired: resend the window from the
    /// lost packet (go-back-N), on the NIC that owns the leg.
    fn on_resend(&mut self, now: SimTime, id: u64) {
        let cmd = self.cmds.get(id).expect("cmd exists");
        let (leg, target, pkts, bytes, tid, corrupt) = (
            cmd.leg,
            cmd.target,
            cmd.retx_pkts,
            cmd.retx_bytes,
            cmd.trace,
            cmd.retx_corrupt,
        );
        let init = self.threads[cmd.thread].init;
        let init_qp = self.target_qp(target, cmd.qp);
        let conn_qp = self.conn_qp(cmd.thread, cmd.qp);
        // The whole remaining window goes back on the wire this round,
        // each packet annotated exactly once — except after a lost pull
        // *request*, encoded as `pkts > packets_for(bytes)`: only that
        // one header packet is a retransmission; the data window, never
        // transmitted, goes out as a first try.
        let n = if leg == Leg::Pull && pkts > self.fabric.profile().packets_for(bytes) {
            1
        } else {
            pkts
        };
        let n_corrupt = if corrupt { n } else { 0 };
        if let Some(tr) = &mut self.trace {
            if corrupt {
                tr.retx_corrupt(tid, n);
            } else {
                tr.retx(tid, n);
            }
        }
        if let Some(tm) = &mut self.telemetry {
            match leg {
                Leg::Capsule => tm.retx_initiator(now, init, n, n_corrupt),
                Leg::Pull | Leg::Completion => tm.retx_target(now, target, n, n_corrupt),
            }
        }
        let init_nic = &mut self.initiators[init].nic;
        let target_nic = &mut self.targets[target].nic;
        let step = match leg {
            Leg::Capsule => self.fabric.resume_send(init_nic, init_qp, now, pkts, bytes),
            Leg::Pull => self.fabric.resume_pull(target_nic, init_nic, init_qp, now, pkts, bytes),
            Leg::Completion => self.fabric.resume_send(target_nic, conn_qp, now, pkts, bytes),
        };
        self.xfer_step(id, leg, bytes, step);
    }

    /// Schedules the SSD submission once both halves of a command are
    /// ready: the driver work (CPU + gate release) and the data pull.
    /// Whichever side finishes second triggers the event, so it fires
    /// exactly once.
    fn try_ssd_submit(&mut self, id: u64) {
        let cmd = self.cmds.get(id).expect("cmd exists");
        if cmd.data_ready != SimTime::FAR_FUTURE && cmd.driver_ready != SimTime::FAR_FUTURE {
            let at = cmd.data_ready.max(cmd.driver_ready);
            self.events.push(at, Event::SsdSubmit(id));
        }
    }

    fn on_cmd_arrive(&mut self, now: SimTime, id: u64) {
        let (target_idx, qp, kind, bytes, attr, ssd_idx, tid, init) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (
                cmd.target,
                cmd.qp,
                cmd.kind,
                cmd.phys.blocks as u64 * 4096,
                cmd.attr,
                cmd.ssd,
                cmd.trace,
                self.threads[cmd.thread].init,
            )
        };
        // Target-side work lands on the core of the sender's
        // connection QP (one QP group per initiator).
        let core = init * self.cfg.qps_per_target + qp;
        let recv_done = self.targets[target_idx]
            .cores
            .run_on(core, now, self.cfg.cpu.target_recv);
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateAdmit, recv_done);
            tr.gate_depth(tid, self.targets[target_idx].gate.buffered() as u32);
        }
        if self.telemetry.is_some() {
            let depth = self.targets[target_idx].gate.buffered() as u32;
            let tm = self.telemetry.as_mut().expect("checked above");
            tm.gate_depth(recv_done, depth);
        }

        if kind == CmdKind::Flush {
            // Explicit FLUSH command (Linux mode): straight to the SSD.
            let submit = self.ungated_submit(recv_done, target_idx, core, tid);
            let (_op, done) = self.targets[target_idx].ssds[ssd_idx].submit_flush(submit);
            self.events.push(done, Event::SsdFlushDone(id));
            return;
        }

        // Pull the data blocks with a one-sided RDMA READ (overlaps any
        // gate wait). A dropped packet parks the pull in go-back-N
        // recovery; `data_ready` stays FAR_FUTURE until the resend
        // completes and the submission waits for it.
        let init_qp = self.target_qp(target_idx, qp);
        let step = self.fabric.pull_burst(
            &mut self.targets[target_idx].nic,
            &mut self.initiators[init].nic,
            init_qp,
            recv_done,
            bytes,
        );
        self.xfer_step(id, Leg::Pull, bytes, step);

        if let Some(attr) = attr {
            // Apply the release piggyback for this stream.
            let stream = attr.stream;
            let through = self.initiators[init].rio.delivered_through(stream);
            self.apply_release(target_idx, stream, through.0);
            // The in-order submission gate may buffer the command.
            let mut released = std::mem::take(&mut self.gate_scratch);
            released.clear();
            self.targets[target_idx]
                .gate
                .arrive_into(attr, id, &mut released);
            if !released.iter().any(|&(_, rid)| rid == id) {
                // The arriving command was held back out of order;
                // bill the buffering to its initiator.
                self.initiators[init].m.gate_buffered += 1;
            }
            let mut cpu = recv_done;
            for &(r_attr, r_id) in &released {
                cpu = self.rio_release(cpu, target_idx, r_attr, r_id);
            }
            self.gate_scratch = released;
        } else {
            // Baselines submit once the driver CPU work and the data
            // pull both finish (a scheduled event keeps the device
            // clock monotone).
            let submit = self.ungated_submit(recv_done, target_idx, core, tid);
            self.cmds.get_mut(id).expect("cmd exists").driver_ready = submit;
            self.try_ssd_submit(id);
        }
    }

    /// Target driver work of a command no gate holds (explicit FLUSH,
    /// baseline writes): release == driver done.
    fn ungated_submit(&mut self, at: SimTime, target_idx: usize, core: usize, tid: u32) -> SimTime {
        let submit = self.targets[target_idx]
            .cores
            .run_on(core, at, self.cfg.cpu.ssd_submit);
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateRelease, submit);
        }
        submit
    }

    /// Submits a command's write to its SSD at the event's instant.
    ///
    /// On integrity runs the target first re-derives the payload digest
    /// over the pulled bytes and checks it against the capsule's stamp
    /// (charging a per-block CRC pass). The fabric NAKs every corrupted
    /// packet back into go-back-N recovery, so by construction the
    /// check always passes here — the assert *is* the end-to-end
    /// guarantee that no corrupted payload reaches media. The write
    /// then carries real payload bytes, sealed on landing.
    fn on_ssd_submit(&mut self, now: SimTime, id: u64) {
        let target_idx = self.cmds.get(id).expect("cmd exists").target;
        if self.targets[target_idx].drr.is_some() {
            // Multi-tenant run: the write queues behind its tenant's
            // DRR share instead of hitting the device directly.
            let (tenant_idx, blocks) = {
                let cmd = self.cmds.get(id).expect("cmd exists");
                let init = &self.initiators[self.threads[cmd.thread].init];
                (init.tenant_idx, cmd.phys.blocks)
            };
            let drr = self.targets[target_idx].drr.as_mut().expect("checked above");
            drr.queues[tenant_idx].push_back((id, now, blocks));
            self.drr_pump(now, target_idx);
            return;
        }
        self.ssd_submit_now(now, id);
    }

    /// Admits a write to its SSD unconditionally (the DRR already ran,
    /// or the run is single-tenant and the scheduler is inert).
    fn ssd_submit_now(&mut self, now: SimTime, id: u64) {
        let (target_idx, ssd_idx, lba, blocks, tag, core, stream, digest) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            let stream = self.threads[cmd.thread].stream.0;
            (
                cmd.target,
                cmd.ssd,
                cmd.phys.lba,
                cmd.phys.blocks,
                cmd.tag,
                self.conn_qp(cmd.thread, cmd.qp),
                stream,
                cmd.digest,
            )
        };
        let (at, images) = if self.integrity {
            let at = self.targets[target_idx].cores.run_on(
                core,
                now,
                self.cfg.cpu.crc_per_block * blocks as u64,
            );
            let seeds = (0..blocks as u64).map(|j| payload::seed_for(stream, tag, lba + j));
            assert_eq!(
                PayloadDigest::over_seeds(seeds.clone()),
                digest,
                "corrupted payload reached the target SSD queue"
            );
            let images: Vec<BlockImage> = seeds
                .map(|s| BlockImage::Bytes(payload::block_for(s)))
                .collect();
            (at, images.into())
        } else {
            (now, Images::Run(BlockImage::Tag(tag), blocks))
        };
        if let Some(tm) = &mut self.telemetry {
            tm.ssd_admit(at, target_idx);
        }
        let (_op, done) =
            self.targets[target_idx].ssds[ssd_idx].submit_write(at, lba, images, false);
        self.events.push(done, Event::SsdWriteDone(id));
    }

    /// Runs one target's deficit-round-robin scheduler: while the
    /// admission cap has room and tenants have queued writes, the
    /// cursor tenant earns `weight × quantum` blocks of deficit per
    /// visit and drains queue heads while the deficit lasts. Admitted
    /// writes hit the SSD at `now`; their wait is recorded in the
    /// per-tenant admission histogram.
    fn drr_pump(&mut self, now: SimTime, target_idx: usize) {
        let mut admit = std::mem::take(&mut self.admit_scratch);
        if let Some(drr) = &mut self.targets[target_idx].drr {
            let n = drr.queues.len();
            while drr.outstanding < DRR_OUTSTANDING_CAP && !drr.is_empty() {
                let i = drr.cursor;
                if drr.queues[i].is_empty() {
                    // An emptied queue forfeits its leftover deficit
                    // (classic DRR: no banking while idle).
                    drr.deficits[i] = 0;
                    drr.cursor = (i + 1) % n;
                    drr.fresh = true;
                    continue;
                }
                // One quantum per *visit*, not per pump call: the
                // outstanding cap slices a visit across many calls,
                // and re-granting the quantum on every admission slot
                // would collapse the weights into plain round-robin.
                if drr.fresh {
                    drr.deficits[i] += DRR_QUANTUM_BLOCKS * drr.weights[i] as u64;
                    drr.fresh = false;
                }
                let &(id, queued_at, blocks) = drr.queues[i].front().expect("non-empty");
                if (blocks as u64) > drr.deficits[i] {
                    // Deficit spent; the remainder carries into the
                    // next round so oversized writes still progress.
                    drr.cursor = (i + 1) % n;
                    drr.fresh = true;
                    continue;
                }
                drr.deficits[i] -= blocks as u64;
                drr.queues[i].pop_front();
                drr.outstanding += 1;
                admit.push((i, id, queued_at));
            }
        }
        for (tenant_idx, id, queued_at) in admit.drain(..) {
            self.tenant_gate_wait[tenant_idx].record(now.since(queued_at));
            if let Some(tm) = &mut self.telemetry {
                tm.drr_wait(now, tenant_idx, now.since(queued_at));
            }
            self.ssd_submit_now(now, id);
        }
        self.admit_scratch = admit;
    }

    /// Submits a command's embedded FLUSH at the event's instant.
    fn on_ssd_flush_submit(&mut self, now: SimTime, id: u64) {
        let (target_idx, ssd_idx) = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            (cmd.target, cmd.ssd)
        };
        let (_op, done) = self.targets[target_idx].ssds[ssd_idx].submit_flush(now);
        self.events.push(done, Event::SsdFlushDone(id));
    }

    /// Processes one gate release: PMR append, then SSD submission.
    fn rio_release(
        &mut self,
        cpu: SimTime,
        target_idx: usize,
        attr: OrderingAttr,
        id: u64,
    ) -> SimTime {
        let core = {
            let cmd = self.cmds.get(id).expect("cmd exists");
            self.conn_qp(cmd.thread, cmd.qp)
        };
        let cmd = self.cmds.get_mut(id).expect("cmd exists");
        // Persist the ordering attribute before the data (step ⑤).
        let rec = attr.to_pmr_record(0);
        let target = &mut self.targets[target_idx];
        let log = target.log.as_mut().expect("rio target has a log");
        let (slot, write) = log
            .append(&rec)
            .expect("PMR log full: raise pmr size or lower inflight bound");
        target.ssds[0]
            .pmr_mut()
            .mmio_write(write.offset, &write.bytes);
        target.slots[attr.stream.0 as usize].push_back((attr.seq_end.0, slot));
        target.slot_seen[attr.stream.0 as usize] = true;
        cmd.slot = Some(slot);
        let tid = cmd.trace;
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateRelease, cpu);
        }
        let cpu = self.targets[target_idx]
            .cores
            .run_on(core, cpu, self.cfg.cpu.pmr_append);
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::PmrPersist, cpu);
        }
        // Submit to the SSD once the driver work and the data pull both
        // finish (via an event, keeping the device clock monotone). A
        // retransmitted data pull may still be in flight here.
        let submit = self.targets[target_idx]
            .cores
            .run_on(core, cpu, self.cfg.cpu.ssd_submit);
        self.cmds.get_mut(id).expect("cmd exists").driver_ready = submit;
        self.try_ssd_submit(id);
        cpu
    }

    /// Applies a delivered-through release from the initiator: frees
    /// PMR slots and advances the superblock head mark.
    fn apply_release(&mut self, target_idx: usize, stream: StreamId, through: u32) {
        let target = &mut self.targets[target_idx];
        let applied = &mut target.applied_release[stream.0 as usize];
        if through <= *applied {
            return;
        }
        *applied = through;
        // Only streams that ever appended a slot here carry a head mark
        // in this target's PMR superblock.
        if target.slot_seen[stream.0 as usize] {
            let q = &mut target.slots[stream.0 as usize];
            let log = target.log.as_mut().expect("rio target");
            while let Some(&(seq_end, slot)) = q.front() {
                if seq_end <= through {
                    q.pop_front();
                    log.free(slot);
                } else {
                    break;
                }
            }
            let w = log.set_head_seq(stream, Seq(through));
            target.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
        }
    }

    /// A command's SSD write finished: free its DRR admission slot,
    /// then run the media-done path.
    fn on_ssd_write_done(&mut self, now: SimTime, id: u64) {
        let target_idx = self.cmds.get(id).expect("cmd exists").target;
        if let Some(tm) = &mut self.telemetry {
            tm.ssd_done(now, target_idx);
        }
        if let Some(drr) = &mut self.targets[target_idx].drr {
            // A completed write frees one admission slot; let the DRR
            // refill it before the completion is processed.
            drr.outstanding = drr.outstanding.saturating_sub(1);
            self.drr_pump(now, target_idx);
        }
        self.on_media_done(now, id, false);
    }

    /// The device finished a command's write (`flushed == false`) or
    /// its FLUSH — embedded or explicit (`flushed == true`): IRQ, then
    /// either chain the embedded FLUSH or complete the command.
    fn on_media_done(&mut self, now: SimTime, id: u64, flushed: bool) {
        let cmd = self.cmds.get(id).expect("cmd exists");
        let (target_idx, core, slot, tid) =
            (cmd.target, self.conn_qp(cmd.thread, cmd.qp), cmd.slot, cmd.trace);
        let chain_flush = cmd.flush_embedded && !flushed;
        // Rio toggles the record's persist bit once the data is durable
        // (step ⑦): at write completion on PLP drives; otherwise only on
        // the FLUSH carrier, which vouches for everything before it
        // (§4.3.2).
        let plp = self.targets[target_idx].ssds[cmd.ssd].profile().plp;
        let persist = cmd.attr.is_some() && (flushed || plp);
        if let Some(tr) = &mut self.trace {
            // An embedded FLUSH overwrites the write's stamp when it
            // lands (last write wins): media-done is the durability
            // instant.
            tr.rec(tid, Stage::MediaDone, now);
        }
        let mut cpu = self.targets[target_idx]
            .cores
            .run_on(core, now, self.cfg.cpu.irq);
        if chain_flush {
            // The final request of a durability group embeds a FLUSH
            // (§4.6): run it before completing.
            self.events.push(cpu, Event::SsdFlushSubmit(id));
            return;
        }
        if persist {
            cpu = self.pmr_persist(cpu, target_idx, core, slot);
        }
        self.send_completion(cpu, id);
    }

    /// Toggles the persist bit of a command's PMR record, charging the
    /// posted MMIO to the connection's target core.
    fn pmr_persist(
        &mut self,
        cpu: SimTime,
        target_idx: usize,
        core: usize,
        slot: Option<SlotRef>,
    ) -> SimTime {
        let target = &mut self.targets[target_idx];
        if let Some(slot) = slot {
            let w = target.log.as_ref().expect("rio target").mark_persist(slot);
            target.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
        }
        target.cores.run_on(core, cpu, self.cfg.cpu.pmr_toggle)
    }

    /// Sends the completion capsule back to the initiator (with the
    /// same go-back-N recovery as the command capsule).
    fn send_completion(&mut self, now: SimTime, id: u64) {
        let cmd = self.cmds.get(id).expect("cmd exists");
        let (target_idx, qp) = (cmd.target, self.conn_qp(cmd.thread, cmd.qp));
        let step = self.fabric.send_burst(
            &mut self.targets[target_idx].nic,
            qp,
            now,
            COMPLETION_BYTES,
        );
        self.xfer_step(id, Leg::Completion, COMPLETION_BYTES, step);
    }

    // ---- completion side ---------------------------------------------------

    fn on_cmd_complete(&mut self, now: SimTime, id: u64) {
        let cmd = self.cmds.remove(id).expect("cmd exists");
        let t = cmd.thread;
        let cpu = self.init_run_on(t, now, self.cfg.cpu.irq);
        if let Some(tm) = &mut self.telemetry {
            tm.cmd_done(cpu);
        }
        if let Some(tr) = &mut self.trace {
            tr.rec(cmd.trace, Stage::Complete, cpu);
            if cmd.attr.is_none() {
                // No in-order completer on the baseline paths:
                // completion is delivery, the trace closes here.
                tr.finish_unordered(cmd.trace, cpu);
            }
        }

        if cmd.kind == CmdKind::Flush {
            // Linux mode flush leg.
            self.on_sync_flush_complete(cpu, t);
            return;
        }

        let unit_id = cmd.unit;
        let finished = {
            let unit = self.units.get_mut(unit_id).expect("unit exists");
            unit.fragments_done += 1;
            unit.fragments_done == unit.fragments_total
        };
        if !finished {
            return;
        }
        let unit = self.units.remove(unit_id).expect("unit exists");

        if let Some(attr) = &cmd.attr {
            // Rio: this last fragment's attribute carries the unit's
            // ordering identity (merged span included); report the unit
            // to the in-order completer once.
            let mut delivered = std::mem::take(&mut self.delivered_scratch);
            delivered.clear();
            let init = self.threads[t].init;
            self.initiators[init].rio.on_done_into(attr, &mut delivered);
            let stream = attr.stream;
            if self.trace.is_some() || self.telemetry.is_some() {
                // Sample the completer's held-back pressure.
                let held: usize = self.initiators.iter().map(|i| i.rio.total_pending()).sum();
                if let Some(tr) = &mut self.trace {
                    // Commands delivered through the in-order completer
                    // close now.
                    if let Some(&last) = delivered.last() {
                        tr.deliver(stream.0 as usize, last.0, cpu);
                    }
                    tr.note_completer_held(held as u64);
                }
                if let Some(tm) = &mut self.telemetry {
                    tm.completer_pending(cpu, held as u64);
                }
            }
            for &seq in &delivered {
                // In-order delivery: the group is the queue's front.
                let g = self.threads[t]
                    .undelivered
                    .pop_front()
                    .expect("delivered group was submitted");
                debug_assert_eq!(g.seq, seq.0);
                self.deliver(t, 1, g.spec.blocks() as u64, g.submitted, cpu);
                self.threads[t].inflight -= 1;
                self.maybe_wake(cpu, t);
            }
            self.delivered_scratch = delivered;
        } else {
            self.deliver(t, unit.plain_groups, unit.blocks as u64, unit.submitted, cpu);
            if self.cfg.mode == OrderingMode::LinuxNvmf {
                // Write leg finished; issue the FLUSH leg.
                self.on_sync_write_complete(cpu, t, &cmd);
            } else {
                // Orderless / Horae data path.
                self.threads[t].inflight -= unit.plain_groups as usize;
                self.maybe_wake(cpu, t);
            }
        }
    }

    /// `groups` groups of thread `owner`, `blocks` blocks in all,
    /// submitted at `submitted`, became visible to the application at
    /// `at`: the one place delivery is accounted, on the owning
    /// initiator's row.
    fn deliver(&mut self, owner: usize, groups: u64, blocks: u64, submitted: SimTime, at: SimTime) {
        self.last_completion = self.last_completion.max(at);
        if let Some(tm) = &mut self.telemetry {
            tm.delivered(at, groups, blocks);
        }
        let m = &mut self.initiators[self.threads[owner].init].m;
        m.groups_done += groups;
        m.blocks_done += blocks;
        m.group_latency.record(at.since(submitted));
        m.finished_at = m.finished_at.max(at);
    }

    /// Linux mode: after the ordered write completes, send a FLUSH leg
    /// when the group requires one, otherwise finish the group.
    fn on_sync_write_complete(&mut self, now: SimTime, t: usize, cmd: &Cmd) {
        debug_assert_eq!(self.threads[t].sync_stage, SyncStage::AwaitWrite);
        let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
        if !self.threads[t].cur_flush_leg {
            self.finish_sync_group(cpu, t);
            return;
        }
        self.threads[t].sync_stage = SyncStage::AwaitFlush;
        let c = self.init_run_on(t, cpu, self.cfg.cpu.cmd_post);
        let flush_cmd = Cmd::new(CmdKind::Flush, t, cmd.target, cmd.ssd, cmd.qp);
        self.send_cmd(c, cpu, flush_cmd);
    }

    fn on_sync_flush_complete(&mut self, now: SimTime, t: usize) {
        assert_eq!(
            self.threads[t].sync_stage,
            SyncStage::AwaitFlush,
            "flush completion outside AwaitFlush"
        );
        self.finish_sync_group(now, t);
    }

    /// Finishes the current synchronous group and moves on.
    fn finish_sync_group(&mut self, now: SimTime, t: usize) {
        self.threads[t].sync_stage = SyncStage::Idle;
        self.threads[t].inflight -= 1;
        self.last_completion = self.last_completion.max(now);
        if self.threads[t].cur_sync_after {
            self.finish_op(t, now);
        }
        let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
        self.events.push(cpu, Event::Resume(t));
    }

    /// Wakes a parked thread whose window has room again, or whose
    /// sync point (fsync wait) is now satisfied.
    fn maybe_wake(&mut self, now: SimTime, t: usize) {
        if self.threads[t].syncing {
            if self.threads[t].inflight == 0 {
                self.threads[t].syncing = false;
                self.finish_op(t, now);
                self.threads[t].parked = false;
                let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
                self.events.push(cpu, Event::Resume(t));
            }
            return;
        }
        if self.threads[t].parked
            && (self.thread_has_work(t) || self.threads[t].ctrl_pending.is_some())
            && self.threads[t].inflight < self.cfg.max_inflight_per_stream
        {
            self.threads[t].parked = false;
            let cpu = self.init_run_on(t, now, self.cfg.cpu.ctx_switch);
            self.events.push(cpu, Event::Resume(t));
        }
    }

    // ---- test access -------------------------------------------------------

    /// Immutable access to a target's SSDs.
    #[cfg(test)]
    pub(crate) fn target_ssds(&self, target: usize) -> &[Ssd] {
        &self.targets[target].ssds
    }

    /// Number of targets.
    #[cfg(test)]
    pub(crate) fn n_targets(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FabricConfig, FaultEvent, FaultKind, FaultPlan, TargetConfig};
    use proptest::prelude::*;
    use rio_net::FabricProfile;
    use rio_ssd::SsdProfile;

    fn small_cfg(mode: OrderingMode, threads: usize) -> ClusterConfig {
        ClusterConfig {
            seed: 7,
            mode,
            initiator_cores: 8,
            targets: vec![TargetConfig {
                ssds: vec![SsdProfile::optane905p()],
                cores: 8,
            }],
            fabric: FabricProfile::connectx6(),
            net: Default::default(),
            cpu: Default::default(),
            streams: threads,
            qps_per_target: 8,
            stripe_blocks: 1,
            max_inflight_per_stream: 16,
            plug_merge: true,
            pin_stream_to_qp: true,
            integrity: false,
            faults: FaultPlan::none(),
            trace: None,
            telemetry: None,
            initiators: Vec::new(),
        }
    }

    fn run(mode: OrderingMode, threads: usize, groups: u64) -> RunMetrics {
        let cfg = small_cfg(mode, threads);
        let wl = Workload::random_4k(threads, groups);
        Cluster::new(cfg, wl).run()
    }

    #[test]
    fn orderless_completes_all_groups() {
        let m = run(OrderingMode::Orderless, 2, 200);
        assert_eq!(m.groups_done, 400);
        assert_eq!(m.blocks_done, 400);
        assert!(m.span.as_nanos() > 0);
        assert!(m.initiator_util > 0.0);
    }

    #[test]
    fn rio_completes_all_groups() {
        let m = run(OrderingMode::Rio { merge: true }, 2, 200);
        assert_eq!(m.groups_done, 400);
        assert_eq!(m.blocks_done, 400);
    }

    #[test]
    fn linux_completes_all_groups() {
        let m = run(OrderingMode::LinuxNvmf, 2, 50);
        assert_eq!(m.groups_done, 100);
    }

    #[test]
    fn horae_completes_all_groups() {
        let m = run(OrderingMode::Horae, 2, 100);
        assert_eq!(m.groups_done, 200);
    }

    #[test]
    fn ordering_cost_ranking_holds() {
        // The paper's headline shape: orderless ≥ Rio > Horae > Linux.
        let orderless = run(OrderingMode::Orderless, 4, 300).block_iops();
        let rio = run(OrderingMode::Rio { merge: true }, 4, 300).block_iops();
        let horae = run(OrderingMode::Horae, 4, 300).block_iops();
        let linux = run(OrderingMode::LinuxNvmf, 4, 100).block_iops();
        assert!(rio > horae, "rio {rio:.0} <= horae {horae:.0}");
        assert!(horae > linux, "horae {horae:.0} <= linux {linux:.0}");
        assert!(
            rio > orderless * 0.5,
            "rio {rio:.0} too far below orderless {orderless:.0}"
        );
    }

    #[test]
    fn rio_merging_reduces_commands() {
        let cfg = small_cfg(OrderingMode::Rio { merge: true }, 1);
        let wl = Workload::seq_batched(1, 256, 8, 1);
        let merged = Cluster::new(cfg, wl.clone()).run();
        let cfg = small_cfg(OrderingMode::Rio { merge: false }, 1);
        let unmerged = Cluster::new(cfg, wl).run();
        assert_eq!(merged.groups_done, unmerged.groups_done);
        assert!(
            merged.commands_sent * 2 <= unmerged.commands_sent,
            "merged {} vs unmerged {}",
            merged.commands_sent,
            unmerged.commands_sent
        );
    }

    #[test]
    fn journal_triplet_halves_commands() {
        // §4.1: two consecutive ordered requests merge into one command.
        let cfg = small_cfg(OrderingMode::Rio { merge: true }, 1);
        let wl = Workload::journal_triplet(1, 100);
        let m = Cluster::new(cfg, wl).run();
        assert_eq!(m.groups_done, 200);
        assert!(
            m.commands_sent <= 110,
            "expected ~100 merged commands, sent {}",
            m.commands_sent
        );
    }

    #[test]
    fn fsync_journal_completes_in_all_modes() {
        for mode in [
            OrderingMode::Rio { merge: true },
            OrderingMode::Horae,
            OrderingMode::LinuxNvmf,
        ] {
            let cfg = small_cfg(mode.clone(), 2);
            let wl = Workload::fsync_append(2, 50);
            let m = Cluster::new(cfg, wl).run();
            assert_eq!(m.ops_done, 100, "{} lost fsyncs", mode.label());
            assert_eq!(m.groups_done, 300, "{}: 3 groups per op", mode.label());
            assert!(m.op_latency.count() == 100);
            assert!(m.op_latency.mean().as_micros_f64() > 1.0);
        }
    }

    #[test]
    fn fsync_rio_beats_ext4_and_horae_latency() {
        // The Fig. 13/14 shape: RioFS < HoraeFS < Ext4 fsync latency.
        let lat = |mode: OrderingMode| {
            let cfg = small_cfg(mode, 1);
            let wl = Workload::fsync_append(1, 200);
            let m = Cluster::new(cfg, wl).run();
            m.op_latency.mean().as_micros_f64()
        };
        let rio = lat(OrderingMode::Rio { merge: true });
        let horae = lat(OrderingMode::Horae);
        let ext4 = lat(OrderingMode::LinuxNvmf);
        assert!(rio < horae, "rio {rio:.1}us !< horae {horae:.1}us");
        assert!(horae < ext4, "horae {horae:.1}us !< ext4 {ext4:.1}us");
    }

    #[test]
    fn fsync_stage_breakdown_shape() {
        // Fig. 14: Rio dispatches JM/JC immediately (CPU-only), Horae
        // pays a control-path round trip per stage.
        let stages = |mode: OrderingMode| {
            let cfg = small_cfg(mode, 1);
            let wl = Workload::fsync_append(1, 100);
            let m = Cluster::new(cfg, wl).run();
            [
                m.stage_dispatch[0].mean(),
                m.stage_dispatch[1].mean(),
                m.stage_dispatch[2].mean(),
                m.stage_dispatch[3].mean(),
            ]
        };
        let rio = stages(OrderingMode::Rio { merge: true });
        let horae = stages(OrderingMode::Horae);
        // JM dispatch: Horae's control path makes it an order of
        // magnitude slower than Rio's CPU-only dispatch.
        assert!(
            horae[1] > rio[1] * 4.0,
            "horae JM {:.0}ns vs rio JM {:.0}ns",
            horae[1],
            rio[1]
        );
        assert!(rio[1] < 5_000.0, "rio JM dispatch should be ~CPU-only");
        // Both spend comparable time waiting on I/O.
        assert!(rio[3] > 0.0 && horae[3] > 0.0);
    }

    #[test]
    fn qp_pinning_keeps_the_gate_idle() {
        // Principle 2: with streams pinned to queue pairs, RC in-order
        // delivery means the gate never buffers; scattering commands
        // across QPs forces it to.
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 4);
        cfg.pin_stream_to_qp = true;
        let pinned = Cluster::new(cfg, Workload::random_4k(4, 400)).run();
        assert_eq!(pinned.gate_buffered, 0, "pinned streams must not buffer");

        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 4);
        cfg.pin_stream_to_qp = false;
        let scattered = Cluster::new(cfg, Workload::random_4k(4, 400)).run();
        assert!(
            scattered.gate_buffered > 0,
            "scattered QPs should reorder arrivals"
        );
        assert_eq!(
            scattered.groups_done, pinned.groups_done,
            "ordering still intact"
        );
    }

    #[test]
    fn lossy_fabric_completes_and_counts_retransmits() {
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
        cfg.net = FabricConfig::lossy(0.05, 2);
        cfg.net.migrate_every = 64;
        let m = Cluster::new(cfg, Workload::random_4k(2, 300)).run();
        assert_eq!(m.groups_done, 600, "loss must not lose groups");
        assert_eq!(m.blocks_done, 600);
        assert!(m.net.drops > 0, "5% loss must drop packets");
        assert!(m.net.retransmits > 0, "drops must be retransmitted");
        assert!(m.net.retx_rounds > 0);
        assert_eq!(m.net.per_path.len(), 2, "both paths reported");
        assert!(
            m.net.per_path.iter().all(|p| p.packets > 0),
            "migration + QP spread must load both paths: {:?}",
            m.net.per_path
        );
    }

    #[test]
    fn retransmission_reorders_into_the_gate() {
        // Streams are pinned to QPs, so without loss the gate never
        // buffers. A retransmitted command is overtaken by its QP
        // successors, and the target-side gate must absorb exactly
        // that reordering (the paper's §4.3.1 argument, now driven by
        // the fabric instead of the scatter ablation).
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
        cfg.net = FabricConfig::lossy(0.08, 1);
        let lossy = Cluster::new(cfg, Workload::random_4k(2, 400)).run();
        assert!(
            lossy.gate_buffered > 0,
            "retransmitted commands should arrive after successors"
        );
        assert_eq!(lossy.groups_done, 800, "ordering still intact");

        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
        cfg.net = FabricConfig::default();
        let clean = Cluster::new(cfg, Workload::random_4k(2, 400)).run();
        assert_eq!(clean.gate_buffered, 0, "lossless pinned gate stays idle");
    }

    #[test]
    fn lossy_fabric_degrades_linux_more_than_rio() {
        // The fig_lossy_fabric headline in miniature: with a deep
        // asynchronous window (Rio's whole design), per-stream recovery
        // stalls overlap and the SSD stays fed, so relative throughput
        // loss under packet loss is far worse for the serial Linux
        // path than for Rio's pipelined one.
        let run = |mode: OrderingMode, loss: f64, groups: u64| {
            let mut cfg = small_cfg(mode, 4);
            cfg.max_inflight_per_stream = 64;
            cfg.net = FabricConfig::lossy(loss, 1);
            Cluster::new(cfg, Workload::random_4k(4, groups))
                .run()
                .block_iops()
        };
        let rio_drop = 1.0
            - run(OrderingMode::Rio { merge: true }, 0.02, 2000)
                / run(OrderingMode::Rio { merge: true }, 0.0, 2000);
        let linux_drop = 1.0
            - run(OrderingMode::LinuxNvmf, 0.02, 300) / run(OrderingMode::LinuxNvmf, 0.0, 300);
        assert!(
            linux_drop > rio_drop,
            "linux lost {linux_drop:.3} vs rio {rio_drop:.3}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// For any loss rate < 1 and any path layout, every submitted
        /// group completes exactly once under every ordering engine,
        /// and retransmission never breaks the per-mode invariants.
        #[test]
        fn prop_lossy_exactly_once_all_modes(
            loss in 0.0f64..0.5,
            paths in 1usize..5,
            migrate in 0u64..3,
            seed in any::<u64>(),
        ) {
            for mode in [
                OrderingMode::Orderless,
                OrderingMode::LinuxNvmf,
                OrderingMode::Horae,
                OrderingMode::Rio { merge: true },
            ] {
                let groups = if mode == OrderingMode::LinuxNvmf { 15 } else { 60 };
                let mut cfg = small_cfg(mode.clone(), 2);
                cfg.seed = seed;
                cfg.net = FabricConfig::lossy(loss, paths);
                cfg.net.rto_us = 25.0;
                cfg.net.migrate_every = migrate * 32;
                let m = Cluster::new(cfg, Workload::random_4k(2, groups)).run();
                prop_assert_eq!(m.groups_done, 2 * groups, "{} lost groups", mode.label());
                prop_assert_eq!(m.blocks_done, 2 * groups, "{} lost blocks", mode.label());
                if loss > 0.01 {
                    prop_assert!(
                        m.net.drops == 0 || m.net.retransmits > 0,
                        "{}: drops without retransmission", mode.label()
                    );
                }
            }
        }
    }

    // ---- fault injection ---------------------------------------------------

    fn two_target_cfg(threads: usize) -> ClusterConfig {
        ClusterConfig {
            seed: 9,
            mode: OrderingMode::Rio { merge: true },
            initiator_cores: 8,
            targets: vec![
                TargetConfig {
                    ssds: vec![SsdProfile::optane905p()],
                    cores: 8,
                },
                TargetConfig {
                    ssds: vec![SsdProfile::optane905p()],
                    cores: 8,
                },
            ],
            fabric: FabricProfile::connectx6(),
            net: Default::default(),
            cpu: Default::default(),
            streams: threads,
            qps_per_target: 8,
            stripe_blocks: 1,
            max_inflight_per_stream: 16,
            plug_merge: true,
            pin_stream_to_qp: true,
            integrity: false,
            faults: FaultPlan::none(),
            trace: None,
            telemetry: None,
            initiators: Vec::new(),
        }
    }

    /// The acceptance scenario: loss = 1e-3, 2 paths, one of two
    /// targets power-fails mid-flight; the run survives, completes
    /// every group exactly once, and replays byte-identically.
    #[test]
    fn survivable_crash_completes_every_group_exactly_once() {
        let threads = 2usize;
        let groups = 600u64;
        let lossy = |faults: FaultPlan| {
            let mut cfg = two_target_cfg(threads);
            cfg.net = FabricConfig::lossy(1e-3, 2);
            cfg.faults = faults;
            Cluster::new(cfg, Workload::random_4k(threads, groups)).run()
        };
        // Probe the crash-free span, then crash target 1 mid-flight.
        let baseline = lossy(FaultPlan::none());
        let crash_at = SimTime::from_nanos(baseline.finished_at.as_nanos() / 2);
        let run = || lossy(FaultPlan::survivable_crash(crash_at, vec![1]));
        let m = run();

        assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
        assert_eq!(m.blocks_done, threads as u64 * groups);
        assert_eq!(m.recoveries.len(), 1);
        assert_eq!(m.epochs.len(), 2, "one crash splits the run in two");
        let r = &m.recoveries[0];
        assert_eq!(r.crashed_targets, vec![1]);
        assert!(r.power_fail);
        assert_eq!(r.crashed_at, crash_at);
        assert!(r.resumed_at > r.crashed_at, "recovery takes time");
        assert!(r.records_scanned > 0, "mid-flight work left records");
        let requeued: u64 = r.streams.iter().map(|s| s.requeued).sum();
        assert!(requeued > 0, "a mid-flight crash must roll back work");
        assert!(
            m.finished_at > r.resumed_at,
            "the workload resumed to the configured end"
        );
        // PLP drives: the valid prefix covers everything the app saw
        // complete — no acknowledged group is ever rolled back.
        for s in &r.streams {
            assert!(s.valid_through >= s.delivered_through);
        }
        assert_eq!(
            m.epochs[0].groups_done + m.epochs[1].groups_done,
            m.groups_done,
            "epochs partition the run"
        );
        assert_eq!(m, run(), "same seed replays byte-identically");
    }

    #[test]
    fn nic_reset_fault_recovers_without_power_loss() {
        let threads = 2usize;
        let groups = 400u64;
        let baseline = Cluster::new(
            two_target_cfg(threads),
            Workload::random_4k(threads, groups),
        )
        .run();
        let mut cfg = two_target_cfg(threads);
        cfg.faults = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_nanos(baseline.finished_at.as_nanos() / 2),
                kind: FaultKind::NicReset { target: 0 },
                resume: true,
            }],
        };
        let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run();
        assert_eq!(m.groups_done, threads as u64 * groups);
        assert_eq!(m.recoveries.len(), 1);
        assert!(!m.recoveries[0].power_fail, "link flap, not power failure");
        assert_eq!(m.recoveries[0].crashed_targets, vec![0]);
    }

    #[test]
    fn a_run_survives_multiple_faults() {
        let threads = 2usize;
        let groups = 900u64;
        let baseline = Cluster::new(
            two_target_cfg(threads),
            Workload::random_4k(threads, groups),
        )
        .run();
        let span = baseline.finished_at.as_nanos();
        let mut cfg = two_target_cfg(threads);
        cfg.faults = FaultPlan {
            events: vec![
                FaultEvent {
                    at: SimTime::from_nanos(span / 3),
                    kind: FaultKind::PowerFail { targets: vec![0] },
                    resume: true,
                },
                FaultEvent {
                    at: SimTime::from_nanos(2 * span / 3),
                    kind: FaultKind::PowerFail {
                        targets: Vec::new(),
                    },
                    resume: true,
                },
            ],
        };
        let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run();
        assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
        assert_eq!(m.recoveries.len(), 2);
        assert_eq!(m.epochs.len(), 3);
        assert_eq!(m.recoveries[1].crashed_targets, vec![0, 1]);
        assert_eq!(
            m.epochs.iter().map(|e| e.groups_done).sum::<u64>(),
            m.groups_done
        );
    }

    #[test]
    fn crash_during_fsync_ops_preserves_op_count() {
        let threads = 2usize;
        let ops = 60u64;
        let baseline = Cluster::new(
            two_target_cfg(threads),
            Workload::fsync_append(threads, ops),
        )
        .run();
        let mut cfg = two_target_cfg(threads);
        cfg.net = FabricConfig::lossy(1e-3, 2);
        cfg.faults = FaultPlan::survivable_crash(
            SimTime::from_nanos(baseline.finished_at.as_nanos() / 2),
            vec![1],
        );
        let m = Cluster::new(cfg, Workload::fsync_append(threads, ops)).run();
        assert_eq!(m.ops_done, threads as u64 * ops, "every fsync returns once");
        assert_eq!(m.groups_done, threads as u64 * ops * 3, "D/JM/JC each once");
    }

    #[test]
    #[should_panic(expected = "fault injection requires a Rio mode")]
    fn fault_plan_rejected_outside_rio() {
        let mut cfg = two_target_cfg(2);
        cfg.mode = OrderingMode::Orderless;
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(1_000), vec![0]);
        let _ = Cluster::new(cfg, Workload::random_4k(2, 10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Crash-under-loss: a random target subset power-fails at a
        /// random mid-flight instant with loss in [0, 1e-2) over 1, 2
        /// or 4 paths. Afterwards every fsync'ed group is exactly-once
        /// (each op returns once, each of its groups completes once),
        /// and on these PLP drives the valid prefix always covers the
        /// acknowledged prefix — an acked group is either fully durable
        /// in storage order or was never acked and re-executes.
        #[test]
        fn prop_crash_under_loss_exactly_once(
            loss in 0.0f64..0.01,
            paths_sel in 0usize..3,
            subset in 1usize..4,
            frac in 0.2f64..0.8,
            seed in any::<u64>(),
        ) {
            let paths = [1usize, 2, 4][paths_sel];
            let threads = 2usize;
            let ops = 40u64;
            let mut cfg = two_target_cfg(threads);
            cfg.seed = seed;
            cfg.net = FabricConfig::lossy(loss, paths);
            let baseline =
                Cluster::new(cfg.clone(), Workload::fsync_append(threads, ops)).run();
            let crash_at =
                SimTime::from_nanos((baseline.finished_at.as_nanos() as f64 * frac) as u64);
            let targets: Vec<usize> = (0..2).filter(|t| subset & (1 << t) != 0).collect();
            let mut crashing = cfg.clone();
            crashing.faults = FaultPlan::survivable_crash(crash_at, targets.clone());
            let m = Cluster::new(crashing, Workload::fsync_append(threads, ops)).run();

            prop_assert_eq!(m.ops_done, threads as u64 * ops, "fsyncs exactly once");
            prop_assert_eq!(m.groups_done, baseline.groups_done, "groups exactly once");
            prop_assert_eq!(m.blocks_done, baseline.blocks_done);
            prop_assert_eq!(m.recoveries.len(), 1);
            let r = &m.recoveries[0];
            prop_assert_eq!(&r.crashed_targets, &targets);
            for s in &r.streams {
                prop_assert!(
                    s.valid_through >= s.delivered_through,
                    "PLP: acked prefix {:?} beyond valid prefix {:?}",
                    s.delivered_through, s.valid_through
                );
            }
            for sp in &r.plan.streams {
                prop_assert!(sp.valid_through >= sp.resume_head);
            }

            // Same scenario with end-to-end integrity on: every sealed
            // media block must read back byte-for-byte as submitted
            // (recovered payload == submitted payload), with a clean
            // corruption ledger.
            let mut verified = cfg;
            verified.integrity = true;
            verified.faults = FaultPlan::survivable_crash(crash_at, targets);
            let v = Cluster::new(verified, Workload::fsync_append(threads, ops))
                .run_and_verify();
            prop_assert_eq!(v.ops_done, threads as u64 * ops);
            prop_assert_eq!(v.groups_done, baseline.groups_done);
            prop_assert!(v.integrity.balanced(), "ledger: {:?}", v.integrity);
        }
    }

    // ---- end-to-end data integrity ----------------------------------------

    #[test]
    fn integrity_off_keeps_the_ledger_empty() {
        let m = run(OrderingMode::Rio { merge: true }, 2, 200);
        assert_eq!(m.integrity, IntegrityMetrics::default());
    }

    #[test]
    fn integrity_on_clean_run_lands_verified_payloads() {
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
        cfg.integrity = true;
        let m = Cluster::new(cfg, Workload::random_4k(2, 200)).run_and_verify();
        assert_eq!(m.groups_done, 400);
        assert_eq!(m.integrity.injected(), 0, "nothing injected: {:?}", m.integrity);
        assert!(m.integrity.balanced());
    }

    #[test]
    fn wire_corruption_is_detected_refetched_and_never_delivered() {
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
        cfg.net.corrupt_rate = 0.01;
        let m = Cluster::new(cfg, Workload::random_4k(2, 400)).run_and_verify();
        assert_eq!(m.groups_done, 800, "corruption must not lose groups");
        assert!(m.integrity.wire_injected > 0, "1% corruption must strike");
        assert_eq!(
            m.integrity.wire_injected, m.integrity.wire_detected,
            "every corrupted packet is caught by the receiver CRC"
        );
        assert!(
            m.integrity.wire_refetched >= m.integrity.wire_detected,
            "go-back-N re-fetches at least the corrupted packet"
        );
        assert!(m.net.retx_rounds > 0, "NAKs enter the recovery machinery");
        assert!(m.recoveries.is_empty(), "wire corruption needs no recovery");
        assert!(m.integrity.balanced());
    }

    #[test]
    fn packet_corrupt_fault_turns_corruption_on_mid_run() {
        let threads = 2usize;
        let groups = 400u64;
        let baseline = Cluster::new(
            small_cfg(OrderingMode::Rio { merge: true }, threads),
            Workload::random_4k(threads, groups),
        )
        .run();
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, threads);
        cfg.faults = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_nanos(baseline.finished_at.as_nanos() / 2),
                kind: FaultKind::PacketCorrupt { rate: 0.05 },
                resume: true,
            }],
        };
        let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run_and_verify();
        assert_eq!(m.groups_done, threads as u64 * groups);
        assert!(
            m.integrity.wire_injected > 0,
            "the second half of the run must see corruption"
        );
        assert!(m.recoveries.is_empty(), "a rate change is not a crash");
        assert_eq!(m.epochs.len(), 1, "no epoch closes on a rate change");
        assert!(m.integrity.balanced());
    }

    #[test]
    fn torn_write_tears_are_scrubbed_and_repaired() {
        let threads = 2usize;
        let groups = 600u64;
        // Volatile-cache drives: the write cache is essentially never
        // empty mid-run, so the power cut reliably catches a write
        // mid-drain and tears it. (A PLP Optane completes writes in
        // microseconds and may be idle at any given instant.)
        let volatile = |mut cfg: ClusterConfig| {
            for t in &mut cfg.targets {
                t.ssds = vec![SsdProfile::pm981()];
            }
            cfg
        };
        let baseline = Cluster::new(
            volatile(two_target_cfg(threads)),
            Workload::random_4k(threads, groups),
        )
        .run();
        let mut cfg = volatile(two_target_cfg(threads));
        cfg.integrity = true;
        cfg.faults = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_nanos(baseline.finished_at.as_nanos() / 2),
                kind: FaultKind::TornWrite { targets: vec![1] },
                resume: true,
            }],
        };
        let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run_and_verify();
        assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
        assert_eq!(m.recoveries.len(), 1);
        assert!(m.recoveries[0].power_fail, "a torn write rides a power cut");
        assert!(
            m.integrity.torn_injected >= 1,
            "a mid-flight power cut tears the in-flight write"
        );
        assert!(m.integrity.balanced(), "ledger: {:?}", m.integrity);
        assert!(m.integrity.scrubbed_records > 0);
        assert!(m.integrity.scrub_us > 0.0);
    }

    #[test]
    fn bit_rot_is_detected_and_repaired_or_reported() {
        let threads = 2usize;
        let groups = 600u64;
        let baseline = Cluster::new(
            two_target_cfg(threads),
            Workload::random_4k(threads, groups),
        )
        .run();
        let mut cfg = two_target_cfg(threads);
        cfg.faults = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_nanos(baseline.finished_at.as_nanos() / 2),
                kind: FaultKind::BitRot {
                    targets: Vec::new(),
                    flips: 3,
                },
                resume: true,
            }],
        };
        let m = Cluster::new(cfg, Workload::random_4k(threads, groups)).run_and_verify();
        assert_eq!(m.groups_done, threads as u64 * groups, "exactly once");
        assert_eq!(m.recoveries.len(), 1);
        assert!(!m.recoveries[0].power_fail, "rot strikes powered media");
        assert!(m.integrity.rot_injected > 0, "flips must land");
        assert_eq!(
            m.integrity.media_detected,
            m.integrity.torn_injected + m.integrity.rot_injected,
            "the scrub finds every injected media corruption"
        );
        assert_eq!(
            m.integrity.media_detected,
            m.integrity.media_repaired + m.integrity.media_unrepairable,
            "every detected block is repaired or written off"
        );
        assert!(m.integrity.balanced());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The headline guarantee: under any combination of packet
        /// corruption, packet loss and multi-path layout, in every
        /// ordering mode, no corrupted payload is ever delivered —
        /// every injected corruption is detected, every group
        /// completes exactly once, and the media ends byte-for-byte
        /// equal to what was submitted.
        #[test]
        fn prop_corruption_never_delivered(
            corrupt in 0.0f64..0.2,
            loss in 0.0f64..0.05,
            paths_sel in 0usize..3,
            seed in any::<u64>(),
        ) {
            let paths = [1usize, 2, 4][paths_sel];
            for mode in [
                OrderingMode::Orderless,
                OrderingMode::LinuxNvmf,
                OrderingMode::Horae,
                OrderingMode::Rio { merge: true },
            ] {
                let groups = if mode == OrderingMode::LinuxNvmf { 15 } else { 60 };
                let mut cfg = small_cfg(mode.clone(), 2);
                cfg.seed = seed;
                cfg.net = FabricConfig::lossy(loss, paths);
                cfg.net.corrupt_rate = corrupt;
                cfg.net.rto_us = 25.0;
                let m = Cluster::new(cfg, Workload::random_4k(2, groups)).run_and_verify();
                prop_assert_eq!(m.groups_done, 2 * groups, "{} lost groups", mode.label());
                prop_assert_eq!(
                    m.integrity.wire_injected, m.integrity.wire_detected,
                    "{}: corruption slipped past the receiver CRC", mode.label()
                );
                prop_assert!(
                    m.integrity.balanced(),
                    "{}: unbalanced ledger {:?}", mode.label(), m.integrity
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(OrderingMode::Rio { merge: true }, 3, 100);
        let b = run(OrderingMode::Rio { merge: true }, 3, 100);
        assert_eq!(a.blocks_done, b.blocks_done);
        assert_eq!(a.span.as_nanos(), b.span.as_nanos());
        assert_eq!(a.commands_sent, b.commands_sent);
    }

    // ---- multi-initiator & tenancy -----------------------------------------

    /// The 4-initiator × 4-target acceptance scenario: lossy fabric,
    /// one tenant per initiator, every group delivered exactly once
    /// per tenant, equal weights serviced fairly (Jain ≥ 0.95), and
    /// the whole thing replays byte-identically.
    #[test]
    fn four_initiators_four_targets_lossy_exactly_once_and_fair() {
        let groups = 150u64;
        let run = || {
            let mut cfg =
                ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 4, 2, 4);
            cfg.net = FabricConfig::lossy(1e-3, 2);
            Cluster::new(cfg, Workload::random_4k(8, groups)).run()
        };
        let m = run();
        assert_eq!(m.groups_done, 8 * groups, "exactly once overall");
        assert_eq!(m.tenants.len(), 4);
        for t in &m.tenants {
            assert_eq!(t.groups_done, 2 * groups, "tenant {} exactly once", t.tenant);
        }
        for i in &m.initiators {
            assert_eq!(i.groups_done, 2 * groups);
            assert!(i.commands_sent > 0, "initiator {} sent nothing", i.initiator);
            assert!(i.util > 0.0);
        }
        let jain = m.tenant_fairness();
        assert!(jain >= 0.95, "equal weights must be fair: {jain}");
        assert!(
            m.tenants.iter().any(|t| t.gate_wait.count() > 0),
            "multi-tenant DRR admission must be exercised"
        );
        assert_eq!(m, run(), "same seed replays byte-identically");
    }

    /// Normalisation facts the event path relies on instead of
    /// per-use fallbacks. A zero QoS weight is raised to 1 once, in
    /// `effective_initiators()`, before the DRR (whose quantum would
    /// otherwise never grow) or the metrics see it.
    #[test]
    fn zero_weight_is_raised_to_one_at_normalisation() {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 1);
        cfg.initiators[0].weight = 0;
        assert_eq!(cfg.effective_initiators()[0].weight, 1);
        let m = Cluster::new(cfg, Workload::random_4k(2, 100)).run();
        assert_eq!(m.groups_done, 200, "a zero-weight tenant still progresses");
        assert_eq!(m.initiators[0].weight, 1);
        assert!(m.tenants.iter().all(|t| t.weight == 1));
    }

    /// Every global stream has an owning initiator by construction:
    /// spare streams of a single-initiator config (more streams than
    /// threads) belong to initiator 0, and multi-initiator slices map
    /// to their hosts.
    #[test]
    fn every_stream_has_an_owning_initiator_by_construction() {
        let mut cfg = small_cfg(OrderingMode::Rio { merge: true }, 2);
        cfg.streams = 5;
        let cl = Cluster::new(cfg, Workload::random_4k(2, 10));
        assert_eq!(cl.init_of_stream, vec![0; 5]);
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 2, 1);
        cfg.initiators[1].streams = 1;
        let cl = Cluster::new(cfg, Workload::random_4k(5, 10));
        assert_eq!(cl.init_of_stream, vec![0, 0, 1, 2, 2]);
        assert_eq!(cl.threads[3].init, 2);
        assert_eq!(cl.threads[4].core, 1, "cores count from the slice base");
    }

    /// `metrics()` averages over the targets unconditionally because a
    /// cluster without targets cannot be built.
    #[test]
    #[should_panic(expected = "need at least one target")]
    fn a_cluster_without_targets_is_rejected_at_construction() {
        let mut cfg = small_cfg(OrderingMode::Orderless, 1);
        cfg.targets.clear();
        let _ = Cluster::new(cfg, Workload::random_4k(1, 1));
    }

    /// Regression for the latent single-NIC assumption in metrics
    /// assembly: `NetMetrics::absorb` must fold in *every* initiator's
    /// NIC, and the per-initiator command counters must partition the
    /// global one.
    #[test]
    fn per_initiator_breakdowns_partition_global_totals() {
        let groups = 200u64;
        let m = {
            let cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 1, 2);
            Cluster::new(cfg, Workload::random_4k(3, groups)).run()
        };
        assert_eq!(m.initiators.len(), 3);
        assert_eq!(
            m.initiators.iter().map(|i| i.commands_sent).sum::<u64>(),
            m.commands_sent,
            "per-initiator command counts must partition the total"
        );
        assert_eq!(
            m.initiators.iter().map(|i| i.groups_done).sum::<u64>(),
            m.groups_done
        );
        assert_eq!(
            m.initiators.iter().map(|i| i.blocks_done).sum::<u64>(),
            m.blocks_done
        );
        // Each initiator moved real bytes through its own NIC; if
        // absorb only saw one NIC the aggregate would undercount the
        // per-command wire traffic by ~3x.
        let single = {
            let cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 1, 1, 2);
            Cluster::new(cfg, Workload::random_4k(1, groups)).run()
        };
        assert!(
            m.net.bytes_out > 2 * single.net.bytes_out,
            "3 initiators must put ~3x one initiator's bytes on the wire \
             ({} vs {})",
            m.net.bytes_out,
            single.net.bytes_out
        );
    }

    /// Skewed QoS weights order tenant throughput: with equal demand
    /// and a shared saturated target, the weight-4 tenant must beat
    /// the weight-1 tenant, and weight-normalized fairness stays high.
    #[test]
    fn skewed_weights_order_tenant_throughput() {
        let groups = 400u64;
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 2, 1);
        cfg.initiators[0] = cfg.initiators[0].clone().with_weight(4);
        let m = Cluster::new(cfg, Workload::random_4k(4, groups)).run();
        assert_eq!(m.groups_done, 4 * groups, "exactly once");
        assert_eq!(m.tenants.len(), 2);
        let heavy = m.tenants.iter().find(|t| t.weight == 4).expect("weight 4");
        let light = m.tenants.iter().find(|t| t.weight == 1).expect("weight 1");
        assert!(
            heavy.block_iops() > light.block_iops(),
            "weight 4 must outrun weight 1: {} vs {}",
            heavy.block_iops(),
            light.block_iops()
        );
        assert!(
            heavy.gate_wait.count() + light.gate_wait.count() > 0,
            "a saturated shared target must queue in the DRR"
        );
    }

    /// A multi-initiator run whose initiators all share one tenant id
    /// keeps the DRR scheduler inert: no admission queueing, one
    /// tenant row whose counters equal the global totals.
    #[test]
    fn single_tenant_multi_initiator_keeps_drr_inert() {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 1);
        for ic in &mut cfg.initiators {
            ic.tenant = 7;
        }
        let m = Cluster::new(cfg, Workload::random_4k(2, 200)).run();
        assert_eq!(m.tenants.len(), 1);
        assert_eq!(m.tenants[0].tenant, 7);
        assert_eq!(m.tenants[0].groups_done, m.groups_done);
        assert_eq!(m.tenants[0].gate_wait.count(), 0, "single tenant: no DRR");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Exactly-once and per-stream in-order for any M∈1..=4
        /// initiators × per-initiator stream count × loss < 1e-2, in
        /// every ordering mode — plus, for Rio, an optional mid-run
        /// target crash that the run must survive with the same
        /// guarantee per tenant.
        #[test]
        fn prop_multi_initiator_exactly_once(
            n_init in 1usize..=4,
            streams_each in 1usize..=2,
            loss in 0.0f64..0.01,
            crash in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let threads = n_init * streams_each;
            for mode in [
                OrderingMode::Orderless,
                OrderingMode::LinuxNvmf,
                OrderingMode::Horae,
                OrderingMode::Rio { merge: true },
            ] {
                let groups = if mode == OrderingMode::LinuxNvmf { 12 } else { 40 };
                let mut cfg = ClusterConfig::multi_initiator(mode.clone(), n_init, streams_each, 2);
                cfg.seed = seed;
                cfg.net = FabricConfig::lossy(loss, 2);
                cfg.net.rto_us = 25.0;
                let m = Cluster::new(cfg.clone(), Workload::random_4k(threads, groups)).run();
                prop_assert_eq!(
                    m.groups_done, threads as u64 * groups,
                    "{} lost groups", mode.label()
                );
                prop_assert_eq!(m.tenants.len(), n_init);
                for t in &m.tenants {
                    prop_assert_eq!(
                        t.groups_done, streams_each as u64 * groups,
                        "tenant {} not exactly-once in {}", t.tenant, mode.label()
                    );
                }

                // The crash leg only exists on Rio (fault injection
                // requires persisted ORDER attributes).
                if crash && matches!(mode, OrderingMode::Rio { .. }) {
                    let crash_at = SimTime::from_nanos(m.finished_at.as_nanos() / 2);
                    let mut crashing = cfg;
                    crashing.faults = FaultPlan::survivable_crash(crash_at, vec![1]);
                    let c = Cluster::new(crashing, Workload::random_4k(threads, groups)).run();
                    prop_assert_eq!(c.groups_done, threads as u64 * groups);
                    prop_assert_eq!(c.recoveries.len(), 1);
                    for t in &c.tenants {
                        prop_assert_eq!(
                            t.groups_done, streams_each as u64 * groups,
                            "tenant {} not exactly-once across the crash", t.tenant
                        );
                    }
                }
            }
        }

        /// Fairness: equal-weight tenants on one saturated target stay
        /// within Jain ≥ 0.95; a 4:1 weight skew strictly orders the
        /// two tenants' throughput.
        #[test]
        fn prop_tenant_fairness(
            n_init in 2usize..=4,
            seed in any::<u64>(),
        ) {
            let groups = 250u64;
            let mut cfg =
                ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, n_init, 1, 1);
            cfg.seed = seed;
            let m = Cluster::new(cfg, Workload::random_4k(n_init, groups)).run();
            prop_assert_eq!(m.groups_done, n_init as u64 * groups);
            let jain = m.tenant_fairness();
            prop_assert!(jain >= 0.95, "equal weights must be fair: {}", jain);

            let mut skew =
                ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 1);
            skew.seed = seed;
            skew.initiators[0] = skew.initiators[0].clone().with_weight(4);
            let s = Cluster::new(skew, Workload::random_4k(2, 400)).run();
            let heavy = s.tenants.iter().find(|t| t.weight == 4).expect("weight 4");
            let light = s.tenants.iter().find(|t| t.weight == 1).expect("weight 1");
            prop_assert!(
                heavy.block_iops() > light.block_iops(),
                "weight 4 ({}) must outrun weight 1 ({})",
                heavy.block_iops(), light.block_iops()
            );
        }
    }

    #[test]
    fn multi_target_striping_reaches_all_ssds() {
        let mut cfg = ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 2);
        cfg.initiator_cores = 8;
        for t in &mut cfg.targets {
            t.cores = 8;
        }
        cfg.qps_per_target = 8;
        let wl = Workload {
            threads: 2,
            groups_per_thread: 100,
            pattern: crate::workload::Pattern::SeqWrite { blocks: 8 },
            batch: 1,
        };
        let mut cl = Cluster::new(cfg, wl);
        cl.start();
        cl.run_until(SimTime::from_nanos(u64::MAX / 2));
        let m = cl.metrics();
        assert_eq!(m.groups_done, 200);
        // Every SSD saw writes.
        for t in 0..cl.n_targets() {
            for ssd in cl.target_ssds(t) {
                assert!(ssd.stats().writes > 0, "an SSD saw no writes");
            }
        }
    }
}
