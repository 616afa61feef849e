//! The six pinned workloads: their cluster configurations, why each is
//! here, and the output checks every repetition must pass.
//!
//! Every workload is a closed loop *inside virtual time*: T simulated
//! threads each keep up to `max_inflight_per_stream` ordered groups
//! outstanding (`rio_fsync` keeps one blocking operation per thread).
//! On the host there is one thread making one `Cluster::run` call at a
//! time.

use rio_sim::SimTime;
use rio_ssd::SsdProfile;
use rio_stack::{
    ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, OrderingMode, RunMetrics,
    Workload,
};

/// Independent simulations pooled into one measurement. `--seed N`
/// runs cluster seeds `N * 1000 .. N * 1000 + SUBSEEDS`; latency
/// histograms are merged and scalar metrics averaged across them, so
/// that a virtual-time metric moves with the model and not with which
/// side of a bimodal latency distribution one seed's median fell on
/// (one seed moves `orderless_rand4k`'s p50 by ±25 %, eight by ±2 %).
pub const SUBSEEDS: u64 = 8;

/// The cluster seed of sub-seed `i` under benchmark seed `seed`.
pub fn cluster_seed(seed: u64, i: u64) -> u64 {
    seed * 1000 + i
}

/// Virtual instant of `rio_integrity_crash`'s power failure: about
/// 45 % of the workload's fault-free span (40.2–40.5 ms across seeds).
/// Pinned, not derived, so the crash cannot drift with the model; the
/// checks fail loudly if it ever falls outside the run.
const CRASH_AT: SimTime = SimTime::from_nanos(18_000_000);

const RIO: OrderingMode = OrderingMode::Rio { merge: true };

/// One pinned workload.
pub struct Spec {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// One sentence: which layers this workload stresses and what it
    /// is the control for.
    pub why: &'static str,
    build: fn() -> (ClusterConfig, Workload),
    /// Ordered groups a complete run delivers.
    pub groups: u64,
    /// 4 KB blocks a complete run writes.
    pub blocks: u64,
    /// Blocking fsync operations a complete run finishes.
    pub ops: u64,
    /// Whether the run crosses one injected crash and recovery.
    pub crash: bool,
}

fn rand4k(mode: OrderingMode) -> (ClusterConfig, Workload) {
    (
        ClusterConfig::four_ssd_two_targets(mode, 8),
        Workload::random_4k(8, 30_000),
    )
}

/// The six workloads, in report order.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "rio_rand4k",
        why: "Paper headline (Fig. 10d): sequencer, ORDER queue, gate, PMR log and in-order completer do the most work per block and merging never fires",
        build: || rand4k(RIO),
        groups: 240_000,
        blocks: 240_000,
        ops: 0,
        crash: false,
    },
    Spec {
        name: "orderless_rand4k",
        why: "Same shape with rio-order bypassed: an ordering-path change must show on rio_rand4k and leave this unchanged, an engine change shows on both",
        build: || rand4k(OrderingMode::Orderless),
        groups: 240_000,
        blocks: 240_000,
        ops: 0,
        crash: false,
    },
    Spec {
        name: "horae_rand4k",
        why: "Event-heaviest baseline (8.9 events/block): event heap and rio-net control path dominate, rio-order bypassed; guards the handlers the four modes share",
        build: || rand4k(OrderingMode::Horae),
        groups: 240_000,
        blocks: 240_000,
        ops: 0,
        crash: false,
    },
    Spec {
        name: "rio_seq_merge",
        why: "Ordering layer used the opposite way (Fig. 3/12): 16 requests merge into one command, so OrderQueue merge, merged-span completion and payload size carry the cost",
        build: || {
            (
                ClusterConfig::single_ssd(RIO, SsdProfile::optane905p(), 4),
                Workload::seq_batched(4, 240_000, 16, 1),
            )
        },
        groups: 960_000,
        blocks: 960_000,
        ops: 0,
        crash: false,
    },
    Spec {
        name: "rio_fsync",
        why: "Application-facing pattern (Fig. 13/15): D/JM/JC groups, FLUSH on commit, one blocking wait per op; latency-bound, exercises submit_flush, sync parking and deliver",
        build: || {
            (
                ClusterConfig::single_ssd(RIO, SsdProfile::optane905p(), 16),
                Workload::fsync_append(16, 8_000),
            )
        },
        groups: 384_000,
        blocks: 512_000,
        ops: 128_000,
        crash: false,
    },
    Spec {
        name: "rio_integrity_crash",
        why: "Only workload where rio-proto CRC-32C and payload generation dominate host time, and the only one running go-back-N, per-tenant DRR, PMR scan, recovery and scrub",
        build: || {
            let mut cfg = ClusterConfig::multi_initiator(RIO, 2, 2, 2);
            cfg.net = FabricConfig::lossy(1e-2, 4);
            cfg.net.corrupt_rate = 1e-3;
            cfg.integrity = true;
            cfg.max_inflight_per_stream = 64;
            cfg.faults = FaultPlan {
                events: vec![FaultEvent {
                    at: CRASH_AT,
                    kind: FaultKind::TornWrite {
                        targets: Vec::new(),
                    },
                    resume: true,
                }],
            };
            (cfg, Workload::random_4k(4, 6_000))
        },
        groups: 24_000,
        blocks: 24_000,
        ops: 0,
        crash: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The generated inputs for one simulation: the program under test
    /// sees only this configuration, never the benchmark seed.
    pub fn instance(&self, cluster_seed: u64) -> (ClusterConfig, Workload) {
        let (mut cfg, wl) = (self.build)();
        cfg.seed = cluster_seed;
        (cfg, wl)
    }

    /// Checks one run's outputs; returns one line per violated check.
    pub fn check(&self, m: &RunMetrics) -> Vec<String> {
        let mut bad = Vec::new();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                bad.push(format!("{what}: got {got}, want {want}"));
            }
        };
        expect("groups delivered exactly once", m.groups_done, self.groups);
        expect("blocks written", m.blocks_done, self.blocks);
        expect("fsync ops finished", m.ops_done, self.ops);
        expect("unrepairable blocks", m.integrity.media_unrepairable, 0);
        expect("recoveries", m.recoveries.len() as u64, self.crash as u64);
        expect("epochs", m.epochs.len() as u64, 1 + self.crash as u64);
        if self.crash {
            let i = &m.integrity;
            expect(
                "wire corruptions detected",
                i.wire_detected,
                i.wire_injected,
            );
            if !i.balanced() {
                bad.push(format!("integrity ledger unbalanced: {i:?}"));
            }
            if i.torn_injected == 0 || i.wire_injected == 0 {
                bad.push("no fault was injected: the workload no longer tests detection".into());
            }
            if m.epochs.iter().any(|e| e.blocks_done == 0) {
                bad.push("the pinned crash instant fell outside the run".into());
            }
        }
        bad
    }
}
