//! Cluster configuration: topology, ordering mode, CPU cost model,
//! and the fault-injection plan. Every experiment is one
//! [`ClusterConfig::new`] (or a canned instance of it) plus the fields
//! it overrides; the initiator side has one description, `initiators`;
//! one count, `cores`, sizes every server's driver and every
//! connection's queue pairs; and [`ClusterConfig::validate`] names what
//! makes a pair unrunnable.

use crate::telemetry::TelemetryConfig;
use crate::trace::TraceConfig;
use crate::workload::Workload;
use rio_net::FabricProfile;
use rio_sim::SimTime;
use rio_ssd::SsdProfile;

/// Which ordering engine drives the stack (§6.2's compared systems).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OrderingMode {
    /// No ordering guarantees (the paper's "orderless" upper bound).
    Orderless,
    /// Stock Linux NVMe-oF ordering: wait for completion + FLUSH
    /// between consecutive ordered requests.
    LinuxNvmf,
    /// Horae over NVMe-oF: synchronous control path before an
    /// asynchronous data path.
    Horae,
    /// Rio's asynchronous I/O pipeline.
    Rio {
        /// Whether the ORDER-queue merges requests (Fig. 12's
        /// "RIO w/o merge" ablation disables it).
        merge: bool,
    },
}

impl OrderingMode {
    /// Display name used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            OrderingMode::Orderless => "orderless",
            OrderingMode::LinuxNvmf => "Linux",
            OrderingMode::Horae => "HORAE",
            OrderingMode::Rio { merge: true } => "RIO",
            OrderingMode::Rio { merge: false } => "RIO w/o merge",
        }
    }
}

/// Fabric transport configuration: loss, corruption and paths.
///
/// These knobs parameterize the packet-level model in `rio-net`: the
/// cluster applies them on top of the base [`FabricProfile`] timing
/// profile when it builds the fabric (see [`FabricConfig::apply`]).
/// MTU and go-back-N recovery latency stay the base profile's; a base
/// profile that carries transport settings of its own is refused
/// ([`ConfigError::TransportInFabricProfile`]). The default is the
/// lossless single-path fabric earlier experiments ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Per-packet drop probability (clamped to `[0, 0.995]` by the
    /// fabric so go-back-N recovery terminates).
    pub loss_rate: f64,
    /// Per-packet in-flight corruption probability (clamped like
    /// `loss_rate`). A corrupted packet is delivered, caught by the
    /// receiver's payload digest check, and NAKed into the same
    /// go-back-N recovery a drop takes. Non-zero rates force
    /// integrity checking on (see [`ClusterConfig::integrity`]).
    pub corrupt_rate: f64,
    /// Number of asymmetric paths per NIC. The base profile's path is
    /// split: its bandwidth evenly, and path `i` runs at its latency
    /// times `1 + 0.15 * i`.
    pub paths: usize,
    /// Messages per queue pair between path migrations; `0` pins each
    /// QP to its initial path. When non-zero, a retransmission timeout
    /// also fails the QP over to the next path.
    pub migrate_every: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            loss_rate: 0.0,
            corrupt_rate: 0.0,
            paths: 1,
            migrate_every: 0,
        }
    }
}

/// Latency step between adjacent paths of a multi-path fabric, as a
/// fraction of the base one-way latency (quoted by [`FabricConfig::paths`]).
const PATH_LATENCY_SPREAD: f64 = 0.15;

impl FabricConfig {
    /// A lossy multi-path fabric — the `fig_lossy_fabric` sweep shape.
    pub fn lossy(loss_rate: f64, paths: usize) -> Self {
        FabricConfig {
            loss_rate,
            paths: paths.max(1),
            ..FabricConfig::default()
        }
    }

    /// Builds the `rio-net` profile: `base` timing, MTU and recovery
    /// latency plus this config's loss, corruption and path layout.
    pub fn apply(&self, base: FabricProfile) -> FabricProfile {
        let rto_us = base.rto_us;
        let mut p = base
            .with_loss(self.loss_rate, rto_us)
            .with_corruption(self.corrupt_rate)
            .with_migration(self.migrate_every);
        if self.paths > 1 {
            p = p.with_paths(self.paths, PATH_LATENCY_SPREAD);
        }
        p
    }
}

/// What one injected fault physically destroys.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Power failure on the listed targets: volatile SSD caches,
    /// device queues and NIC windows die; media and PMR survive. An
    /// empty list crashes every target (the classic §6.5 experiment).
    PowerFail {
        /// Target indices to crash (empty = all).
        targets: Vec<usize>,
    },
    /// A link flap on one target's NIC. No target loses power — SSD
    /// caches and accepted commands survive and complete — but the
    /// initiator's in-flight ordering state is severed, and the §4.4
    /// recovery protocol is initiator-driven and global: every
    /// connection re-establishes and every stream re-cuts at its valid
    /// prefix. `target` records which link flapped (reported in
    /// [`crate::metrics::RecoveryMetrics::crashed_targets`]); the
    /// recovery cost is the same whichever NIC it was, and far below a
    /// power failure's, because every driver answers the scan from
    /// DRAM instead of an MMIO PMR sweep.
    NicReset {
        /// The target whose NIC resets.
        target: usize,
    },
    /// The fabric starts corrupting packets in flight at `rate` from
    /// this instant on. Nothing crashes and no recovery runs — the
    /// receiver-side digest checks catch every corrupted packet and
    /// NAK it into go-back-N retransmission; this fault only turns the
    /// corruption source on (or off, with `rate` 0) mid-run.
    PacketCorrupt {
        /// The per-packet corruption probability from now on.
        rate: f64,
    },
    /// Power failure that additionally tears the record a crashed
    /// SSD was mid-write: the first block of the oldest in-flight
    /// write lands half-old half-new under its intended checksum, so
    /// the post-recovery scrub must find and repair it. Empty list =
    /// all targets, like [`FaultKind::PowerFail`].
    TornWrite {
        /// Target indices to crash (empty = all).
        targets: Vec<usize>,
    },
    /// At-rest bit rot on the listed targets: up to `flips` sealed
    /// media records get one bit flipped each, seals kept. No power is
    /// lost — the fault runs the recovery protocol only to drive the
    /// integrity scrub that detects and repairs (or reports) the rot.
    BitRot {
        /// Target indices hit (empty = all).
        targets: Vec<usize>,
        /// Maximum records to corrupt per SSD.
        flips: u32,
    },
}

impl FaultKind {
    /// The targets this fault hits, resolved against `n_targets`.
    pub fn hit_targets(&self, n_targets: usize) -> Vec<usize> {
        match self {
            FaultKind::PowerFail { targets } | FaultKind::TornWrite { targets }
                if targets.is_empty() =>
            {
                (0..n_targets).collect()
            }
            FaultKind::PowerFail { targets } | FaultKind::TornWrite { targets } => targets.clone(),
            FaultKind::NicReset { target } => vec![*target],
            FaultKind::PacketCorrupt { .. } => Vec::new(),
            FaultKind::BitRot { targets, .. } if targets.is_empty() => (0..n_targets).collect(),
            FaultKind::BitRot { targets, .. } => targets.clone(),
        }
    }

    /// Whether SSD state dies with this fault.
    pub fn is_power_fail(&self) -> bool {
        matches!(
            self,
            FaultKind::PowerFail { .. } | FaultKind::TornWrite { .. }
        )
    }

    /// Whether this fault needs per-block integrity machinery (payload
    /// digests, media seals, post-recovery scrub) to be observable.
    pub fn needs_integrity(&self) -> bool {
        matches!(
            self,
            FaultKind::PacketCorrupt { .. } | FaultKind::TornWrite { .. } | FaultKind::BitRot { .. }
        )
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Virtual time the fault fires — even if the workload has already
    /// completed by then (an idle cluster crashes too, and the epoch
    /// that ends at the fault includes the idle stretch).
    pub at: SimTime,
    /// What the fault destroys.
    pub kind: FaultKind,
    /// Whether the run resumes after recovery. `true` re-queues every
    /// rolled-back group and drives the workload to completion (a
    /// survivable run); `false` halts after the recovery plan and
    /// discards are applied (the one-shot §6.5 report shape).
    pub resume: bool,
}

/// The fault-injection plan of a run: faults fire in order at their
/// virtual times, each followed by a full in-loop recovery (PMR scan,
/// global merge, discard) before the workload resumes.
///
/// Only Rio modes can carry a non-empty plan — recovery needs the
/// persisted ordering attributes. A fault scheduled inside an earlier
/// fault's recovery window is deferred to that recovery's resume
/// instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in strictly increasing time order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No faults (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The classic §6.5 shape: power-fail every target at `at` and stop
    /// after recovery.
    pub fn crash_all_at(at: SimTime) -> Self {
        FaultPlan {
            events: vec![FaultEvent {
                at,
                kind: FaultKind::PowerFail {
                    targets: Vec::new(),
                },
                resume: false,
            }],
        }
    }

    /// A survivable mid-flight crash of a target subset at `at`.
    pub fn survivable_crash(at: SimTime, targets: Vec<usize>) -> Self {
        FaultPlan {
            events: vec![FaultEvent {
                at,
                kind: FaultKind::PowerFail { targets },
                resume: true,
            }],
        }
    }
}

/// One initiator server in a multi-initiator cluster.
///
/// Each initiator owns its own NIC, [`rio_order::Rio`] handle (sequencer,
/// ORDER queues, in-order completer) and a contiguous slice of the
/// global stream-id space; a
/// global stream id is `stream_base + local stream`, so target-side
/// structures keyed by stream (submission gate, PMR log, ORDER slots)
/// are implicitly keyed by `(initiator, stream)` without collisions.
#[derive(Debug, Clone, PartialEq)]
pub struct InitiatorConfig {
    /// Ordered streams this initiator opens; each stream is driven by
    /// one workload thread (the global workload thread count must equal
    /// the sum of all initiators' `streams`).
    pub streams: usize,
    /// Tenant this initiator belongs to. Targets schedule SSD
    /// admissions fairly *across tenants* (deficit round-robin) when a
    /// run has more than one distinct tenant.
    pub tenant: u32,
    /// QoS weight of this initiator's tenant: under contention a
    /// tenant's share of target service is proportional to the sum of
    /// its initiators' weights. Must be at least 1.
    pub weight: u32,
}

impl InitiatorConfig {
    /// An initiator with `streams` streams, tenant `tenant` and weight 1.
    pub fn new(streams: usize, tenant: u32) -> Self {
        InitiatorConfig {
            streams,
            tenant,
            weight: 1,
        }
    }

    /// Sets the QoS weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// Why a configuration cannot run a workload; `Display` gives the
/// message [`crate::Cluster::new`] panics with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The workload has no threads.
    NoThreads,
    /// The initiator list is empty.
    NoInitiators,
    /// An initiator opens no stream.
    InitiatorWithoutStreams,
    /// Fewer streams than workload threads.
    TooFewStreams,
    /// Several initiators but fewer threads than streams: hosts would idle.
    IdleStreams,
    /// The target list is empty.
    NoTargets,
    /// This target has no SSD.
    TargetWithoutSsds(usize),
    /// A server needs at least one driver core.
    NoCores,
    /// A zero window admits nothing: the run would "finish" at t = 0.
    ZeroWindow,
    /// The base fabric profile has no path: nothing times its wire.
    FabricWithoutPaths,
    /// The base fabric profile carries loss, corruption, paths or
    /// migration, which [`FabricConfig::apply`] would overwrite.
    TransportInFabricProfile,
    /// A recovering fault (anything but `PacketCorrupt`) under a non-Rio mode.
    FaultsNeedRio,
    /// Fault times do not strictly increase.
    UnorderedFaults,
    /// A fault names a target the cluster does not have.
    MissingFaultTarget {
        /// The index the fault names.
        target: usize,
        /// How many targets there are.
        of: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError::*;
        f.write_str(match self {
            NoThreads => "need at least one thread",
            NoInitiators => "need at least one initiator",
            InitiatorWithoutStreams => "every initiator needs at least one stream",
            TooFewStreams => "need one stream per thread",
            IdleStreams => "multi-initiator runs need exactly one thread per stream",
            NoTargets => "need at least one target",
            TargetWithoutSsds(t) => return write!(f, "target {t} has no SSDs"),
            NoCores => "a server needs at least one core",
            ZeroWindow => "need a non-zero in-flight window",
            FabricWithoutPaths => "the fabric profile needs a path",
            TransportInFabricProfile => "set loss, corruption, paths and migration in `net`",
            FaultsNeedRio => {
                "fault injection requires a Rio mode: recovery rebuilds \
                 the order from persisted attributes, which only Rio keeps"
            }
            UnorderedFaults => "fault times must strictly increase",
            MissingFaultTarget { target, of } => {
                return write!(f, "fault names target {target} of {of}")
            }
        })
    }
}

impl std::error::Error for ConfigError {}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Seed for all simulator randomness.
    pub seed: u64,
    /// Ordering engine.
    pub mode: OrderingMode,
    /// Target servers, one entry each listing the SSDs installed on it.
    pub targets: Vec<Vec<SsdProfile>>,
    /// Fabric timing profile: one path (its latency, bandwidth and
    /// jitter), MTU and recovery latency. Its transport fields must be
    /// the lossless defaults, because `net` sets them and splits the
    /// path into `net.paths`.
    pub fabric: FabricProfile,
    /// Fabric transport behavior: loss, corruption, paths, migration.
    pub net: FabricConfig,
    /// Initiator servers, never empty: every constructor fills the list
    /// (the single-initiator shapes with one tenant-0, weight-1 entry).
    /// The cluster builds one NIC + `librio` handle per entry over one
    /// global stream space, the concatenation of every entry's streams.
    pub initiators: Vec<InitiatorConfig>,
    /// Driver cores on every initiator and every target, and NIC queue
    /// pairs per (initiator, target) connection: the paper's testbed
    /// has one NVMe-oF I/O queue per driver core (§6.2.1).
    pub cores: usize,
    /// Maximum in-flight ordered groups per stream before the submitter
    /// backs off (asynchronous modes).
    pub max_inflight_per_stream: usize,
    /// Whether the orderless plug merges adjacent writes (the Fig. 3
    /// "w/ merging" vs "w/o merging" toggle).
    pub plug_merge: bool,
    /// Scheduler Principle 2 (§4.5): pin each stream to one NIC send
    /// queue so RC in-order delivery makes the target gate free.
    /// Disabling it scatters commands across queue pairs — an ablation
    /// that shows the gate absorbing network reordering.
    pub pin_stream_to_qp: bool,
    /// End-to-end data integrity checking: per-command payload
    /// digests stamped at submission and verified at the target, real
    /// payload bytes (not compact tags) landing on media under
    /// CRC-32C seals, and a post-recovery scrub pass. Forced on when
    /// the fabric corrupts packets or the fault plan injects
    /// torn-write/bit-rot/corruption faults; when off (the default)
    /// the machinery draws no RNG, charges no CPU and allocates no
    /// payload bytes, so runs replay byte-identically to builds
    /// without it.
    pub integrity: bool,
    /// Fault-injection plan (empty = no faults). Requires a Rio mode
    /// when non-empty.
    pub faults: FaultPlan,
    /// Per-command stage tracing (`None` = off, zero overhead). When
    /// set, [`crate::metrics::RunMetrics::breakdown`] carries the
    /// fig. 14-style [`crate::trace::LatencyBreakdown`].
    pub trace: Option<TraceConfig>,
    /// Virtual-time telemetry sampling (`None` = off, zero overhead).
    /// When set, [`crate::metrics::RunMetrics::telemetry`] carries the
    /// bucketed [`crate::telemetry::Telemetry`] series plus the stall
    /// watchdog's findings. Like tracing, the sampler schedules no
    /// events and draws no randomness, so enabling it never perturbs
    /// the simulated run.
    pub telemetry: Option<TelemetryConfig>,
}

impl ClusterConfig {
    /// The shape every canned constructor is an instance of: one
    /// initiator with `streams` streams driving one target per entry of
    /// `targets` (the entry lists that target's SSDs), 36 cores and
    /// queue pairs a side over a lossless single-path ConnectX-6 fabric.
    pub fn new(mode: OrderingMode, targets: Vec<Vec<SsdProfile>>, streams: usize) -> Self {
        ClusterConfig {
            seed: 42,
            mode,
            targets,
            fabric: FabricProfile::connectx6(),
            net: FabricConfig::default(),
            initiators: vec![InitiatorConfig::new(streams, 0)],
            cores: 36,
            max_inflight_per_stream: 48,
            plug_merge: true,
            pin_stream_to_qp: true,
            integrity: false,
            faults: FaultPlan::none(),
            trace: None,
            telemetry: None,
        }
    }

    /// A single-target, single-SSD cluster — the Fig. 2/10(a,b) shape.
    pub fn single_ssd(mode: OrderingMode, ssd: SsdProfile, streams: usize) -> Self {
        ClusterConfig::new(mode, vec![vec![ssd]], streams)
    }

    /// The 4-SSD / 2-target configuration of Fig. 10(d)–12.
    pub fn four_ssd_two_targets(mode: OrderingMode, streams: usize) -> Self {
        let targets = vec![
            vec![SsdProfile::pm981(), SsdProfile::optane905p()],
            vec![SsdProfile::pm981(), SsdProfile::p4800x()],
        ];
        ClusterConfig::new(mode, targets, streams)
    }

    /// A multi-initiator cluster: `n_initiators` equal-weight tenants
    /// (tenant id = initiator index), `streams_each` streams per
    /// initiator, one Optane 905P target per `n_targets`.
    pub fn multi_initiator(
        mode: OrderingMode,
        n_initiators: usize,
        streams_each: usize,
        n_targets: usize,
    ) -> Self {
        let targets = vec![vec![SsdProfile::optane905p()]; n_targets.max(1)];
        ClusterConfig {
            initiators: (0..n_initiators)
                .map(|i| InitiatorConfig::new(streams_each, i as u32))
                .collect(),
            ..ClusterConfig::new(mode, targets, streams_each)
        }
    }

    /// The initiator list with every QoS weight raised to at least 1 (a
    /// zero weight would starve its tenant's DRR quantum) — the only
    /// place the cluster reads its initiator topology from.
    pub fn effective_initiators(&self) -> Vec<InitiatorConfig> {
        self.initiators
            .iter()
            .map(|ic| ic.clone().with_weight(ic.weight.max(1)))
            .collect()
    }

    /// Total streams across all initiators — the size of the global
    /// stream-id space every per-stream structure is sized for.
    pub fn total_streams(&self) -> usize {
        self.initiators.iter().map(|i| i.streams).sum()
    }

    /// Checks every condition the cluster relies on instead of testing per event.
    pub fn validate(&self, workload: &Workload) -> Result<(), ConfigError> {
        use ConfigError::*;
        let ensure = |ok: bool, e: ConfigError| if ok { Ok(()) } else { Err(e) };
        let (threads, streams) = (workload.threads, self.total_streams());
        ensure(threads > 0, NoThreads)?;
        ensure(!self.initiators.is_empty(), NoInitiators)?;
        ensure(self.initiators.iter().all(|ic| ic.streams > 0), InitiatorWithoutStreams)?;
        ensure(streams >= threads, TooFewStreams)?;
        ensure(self.initiators.len() == 1 || threads == streams, IdleStreams)?;
        ensure(!self.targets.is_empty(), NoTargets)?;
        let ssdless = self.targets.iter().position(|ssds| ssds.is_empty());
        ssdless.map_or(Ok(()), |t| Err(TargetWithoutSsds(t)))?;
        ensure(self.cores > 0, NoCores)?;
        ensure(self.max_inflight_per_stream > 0, ZeroWindow)?;
        let f = &self.fabric;
        let lossless = f.loss_rate == 0.0 && f.corrupt_rate == 0.0 && f.migrate_every == 0;
        ensure(!f.paths.is_empty(), FabricWithoutPaths)?;
        ensure(lossless && f.paths.len() == 1, TransportInFabricProfile)?;
        let faults = &self.faults.events;
        let recovers = |e: &FaultEvent| !matches!(e.kind, FaultKind::PacketCorrupt { .. });
        let rio = matches!(self.mode, OrderingMode::Rio { .. });
        ensure(rio || !faults.iter().any(recovers), FaultsNeedRio)?;
        ensure(faults.windows(2).all(|w| w[0].at < w[1].at), UnorderedFaults)?;
        let of = self.targets.len();
        let missing = faults.iter().flat_map(|e| e.kind.hit_targets(of)).find(|&t| t >= of);
        missing.map_or(Ok(()), |target| Err(MissingFaultTarget { target, of }))
    }

    /// Total SSDs across targets.
    pub fn total_ssds(&self) -> usize {
        self.targets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(OrderingMode::Orderless.label(), "orderless");
        assert_eq!(OrderingMode::LinuxNvmf.label(), "Linux");
        assert_eq!(OrderingMode::Horae.label(), "HORAE");
        assert_eq!(OrderingMode::Rio { merge: true }.label(), "RIO");
        assert_eq!(OrderingMode::Rio { merge: false }.label(), "RIO w/o merge");
    }

    #[test]
    fn canned_configs_shape() {
        let c = ClusterConfig::single_ssd(OrderingMode::Orderless, SsdProfile::pm981(), 4);
        assert_eq!(c.total_ssds(), 1);
        let c = ClusterConfig::four_ssd_two_targets(OrderingMode::Rio { merge: true }, 12);
        assert_eq!(c.total_ssds(), 4);
        assert_eq!(c.targets.len(), 2);
    }

    /// The single-initiator constructors spell the legacy scalar
    /// shorthand out as the one-entry list it always stood for.
    #[test]
    fn empty_initiators_derive_the_legacy_single_initiator() {
        let c = ClusterConfig::single_ssd(OrderingMode::Orderless, SsdProfile::pm981(), 4);
        assert_eq!(c.total_streams(), 4);
        let single = vec![InitiatorConfig {
            streams: 4,
            tenant: 0,
            weight: 1,
        }];
        assert_eq!(c.initiators, single);
        assert_eq!(c.effective_initiators(), single);
    }

    /// A power failure of `target` at `us` microseconds, resuming.
    fn crash(us: u64, target: usize) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_nanos(us * 1_000),
            kind: FaultKind::PowerFail { targets: vec![target] },
            resume: true,
        }
    }

    #[test]
    fn validate_names_each_bad_configuration() {
        use ConfigError::*;
        // One initiator with two streams over two single-SSD targets.
        let good = || ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 1, 2, 2);
        let wl = |threads| Workload::random_4k(threads, 10);
        assert_eq!(good().validate(&wl(2)), Ok(()));
        assert_eq!(good().validate(&wl(1)), Ok(()), "one initiator may keep a spare stream");
        // A broken field, the thread count, and the error it earns.
        type Case = (fn(&mut ClusterConfig), usize, ConfigError);
        let table: [Case; 17] = [
            (|_| {}, 0, NoThreads),
            (|c| c.initiators.clear(), 2, NoInitiators),
            (|c| c.initiators[0].streams = 0, 2, InitiatorWithoutStreams),
            (|_| {}, 3, TooFewStreams),
            (|c| c.initiators.push(InitiatorConfig::new(1, 1)), 2, IdleStreams),
            (|c| c.targets.clear(), 2, NoTargets),
            (|c| c.targets[1].clear(), 2, TargetWithoutSsds(1)),
            (|c| c.cores = 0, 2, NoCores),
            (|c| c.max_inflight_per_stream = 0, 2, ZeroWindow),
            (|c| c.fabric.paths.clear(), 2, FabricWithoutPaths),
            (|c| c.fabric = c.fabric.clone().with_loss(0.05, 25.0), 2, TransportInFabricProfile),
            (|c| c.fabric.corrupt_rate = 1e-3, 2, TransportInFabricProfile),
            (|c| c.fabric.migrate_every = 16, 2, TransportInFabricProfile),
            (|c| c.fabric = c.fabric.clone().with_paths(2, 0.15), 2, TransportInFabricProfile),
            (
                |c| {
                    c.mode = OrderingMode::Horae;
                    c.faults.events = vec![crash(100, 0)];
                },
                2,
                FaultsNeedRio,
            ),
            (|c| c.faults.events = vec![crash(100, 0), crash(100, 1)], 2, UnorderedFaults),
            (|c| c.faults.events = vec![crash(100, 2)], 2, MissingFaultTarget { target: 2, of: 2 }),
        ];
        for (break_it, threads, want) in table {
            let mut cfg = good();
            break_it(&mut cfg);
            assert_eq!(cfg.validate(&wl(threads)), Err(want.clone()), "{want}");
        }
        // A plan of pure packet corruption only retunes the fabric: any
        // mode takes it.
        let mut cfg = good();
        cfg.mode = OrderingMode::Horae;
        cfg.faults.events = vec![FaultEvent {
            kind: FaultKind::PacketCorrupt { rate: 1e-3 },
            ..crash(100, 0)
        }];
        assert_eq!(cfg.validate(&wl(2)), Ok(()));
    }

    #[test]
    fn multi_initiator_concatenates_stream_spaces() {
        let c = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 3, 2, 2);
        assert_eq!(c.initiators.len(), 3);
        assert_eq!(c.targets.len(), 2);
        assert_eq!(c.total_streams(), 6);
        let eff = c.effective_initiators();
        assert_eq!(eff.len(), 3);
        assert_eq!(eff[1].tenant, 1);
        assert_eq!(eff[2].weight, 1);
        assert_eq!(InitiatorConfig::new(2, 0).with_weight(4).weight, 4);
    }
}
