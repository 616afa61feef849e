//! Seeded fault-plan fuzz: random topologies, fabrics, observers and
//! fault plans, each run held to every run law (`rio::stack::laws`;
//! ROADMAP 2(a)/(f), in sampled form). One [`SimRng`] drives each
//! test's whole generator, so a failure replays from the seed it prints
//! (`MASTER_SEED` for one test, `MASTER_SEED ^ 1` for the other) and
//! the case index alone, and the failing case's configuration and
//! workload are printed on the way out.

use rio::sim::{SimRng, SimTime};
use rio::ssd::SsdProfile;
use rio::stack::laws::check_laws;
use rio::stack::{
    Cluster, ClusterConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, InitiatorConfig,
    OrderingMode, RunMetrics, TelemetryConfig, TraceConfig, Workload,
};

/// Chosen so that, with the stale-seal fix in `rio-ssd`'s
/// `Landing::zero` reverted, `fault_plans_keep_every_ledger` goes
/// unbalanced early in its budget (case 7).
const MASTER_SEED: u64 = 99;

/// Prints the case — the seed its generator drew from, its index, its
/// configuration and workload — when an invariant, or the engine under
/// it, panics.
struct Case<'a>(u64, usize, &'a ClusterConfig, &'a Workload);

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let Case(seed, case, cfg, wl) = self;
            eprintln!("seed {seed} case {case} failed:\n{cfg:#?}\n{wl:#?}");
        }
    }
}

fn pick<T: Copy>(rng: &mut SimRng, of: &[T]) -> T {
    of[rng.below(of.len() as u64) as usize]
}

/// A uniform count in `lo..=hi`.
fn count(rng: &mut SimRng, lo: u64, hi: u64) -> usize {
    rng.between(lo, hi) as usize
}

/// 1–3 initiators × 1–3 streams over 1–3 targets (one Optane, or a
/// volatile-cache PM981 beside it) on 1–8 cores a server, with the
/// window, QP pinning, fabric, integrity and observers drawn too.
fn cluster(rng: &mut SimRng, mode: OrderingMode) -> ClusterConfig {
    let targets = (0..count(rng, 1, 3))
        .map(|_| match rng.chance(0.5) {
            true => vec![SsdProfile::optane905p()],
            false => vec![SsdProfile::pm981(), SsdProfile::optane905p()],
        })
        .collect();
    let mut cfg = ClusterConfig::new(mode, targets, 1);
    let n_init = count(rng, 1, 3);
    cfg.initiators = (0..n_init)
        .map(|_| {
            InitiatorConfig::new(count(rng, 1, 3), rng.below(n_init as u64) as u32)
                .with_weight(rng.below(5) as u32)
        })
        .collect();
    cfg.seed = rng.below(u64::MAX);
    cfg.max_inflight_per_stream = count(rng, 1, 40);
    cfg.cores = count(rng, 1, 8);
    cfg.pin_stream_to_qp = rng.chance(0.7);
    cfg.net = FabricConfig::lossy(pick(rng, &[0.0, 1e-3, 1e-2, 5e-2]), count(rng, 1, 4));
    cfg.net.corrupt_rate = pick(rng, &[0.0, 0.0, 1e-3]);
    cfg.net.migrate_every = pick(rng, &[0, 16, 64]);
    cfg.integrity = rng.chance(0.5);
    cfg.trace = rng.chance(0.3).then(TraceConfig::default);
    cfg.telemetry = rng.chance(0.5).then(TelemetryConfig::default);
    cfg
}

/// A workload for `cfg` (one thread per stream) and the exact groups
/// and blocks it delivers when run to completion. `scale` divides the
/// group counts (the synchronous Linux engine is slow per group).
fn workload(rng: &mut SimRng, cfg: &ClusterConfig, scale: u64) -> (Workload, u64, u64) {
    let threads = cfg.total_streams();
    let t = threads as u64;
    match rng.below(3) {
        0 => {
            let g = rng.between(40, 240) / scale;
            (Workload::random_4k(threads, g), t * g, t * g)
        }
        1 => {
            let (g, blocks) = (rng.between(40, 160) / scale, rng.between(1, 4));
            let wl = Workload::seq_batched(threads, g, count(rng, 1, 8), blocks as u32);
            (wl, t * g, t * g * blocks)
        }
        _ => {
            // One op is a D / JM / JC triplet of 1 + 2 + 1 blocks.
            let ops = rng.between(10, 50) / scale;
            (Workload::fsync_append(threads, ops), t * ops * 3, t * ops * 4)
        }
    }
}

/// A subset of the targets; empty means all of them.
fn some_targets(rng: &mut SimRng, n: usize) -> Vec<usize> {
    (0..n).filter(|_| rng.chance(0.5)).collect()
}

/// 0–3 faults of all five kinds at increasing times, 85 % resuming.
fn fault_plan(rng: &mut SimRng, n_targets: usize) -> FaultPlan {
    let mut at_us = 0;
    let mut events = Vec::new();
    for _ in 0..rng.below(4) {
        at_us += rng.between(50, 600);
        let kind = match rng.below(5) {
            0 => FaultKind::PowerFail { targets: some_targets(rng, n_targets) },
            1 => FaultKind::NicReset { target: rng.below(n_targets as u64) as usize },
            2 => FaultKind::PacketCorrupt { rate: pick(rng, &[0.0, 1e-3, 1e-2]) },
            3 => FaultKind::TornWrite { targets: some_targets(rng, n_targets) },
            _ => FaultKind::BitRot {
                targets: some_targets(rng, n_targets),
                flips: rng.below(4) as u32,
            },
        };
        events.push(FaultEvent {
            at: SimTime::from_nanos(at_us * 1_000),
            kind,
            resume: rng.chance(0.85),
        });
    }
    FaultPlan { events }
}

/// Runs `wl` on `cfg` and holds the run to every law.
fn run(cfg: &ClusterConfig, wl: &Workload) -> RunMetrics {
    let m = Cluster::new(cfg.clone(), wl.clone()).run();
    check_laws(&m).unwrap_or_else(|broken| panic!("{broken}"));
    m
}

/// Whatever the plan destroys, every run keeps every law (`LAWS`:
/// the integrity, epoch, row, telemetry and trace ledgers balance), and
/// delivery is exactly once when every fault resumes.
#[test]
fn fault_plans_keep_every_ledger() {
    let seed = MASTER_SEED;
    let mut master = SimRng::seed_from_u64(seed);
    for case in 0..70 {
        let rng = &mut master.fork();
        let merge = rng.chance(0.7);
        let mut cfg = cluster(rng, OrderingMode::Rio { merge });
        cfg.faults = fault_plan(rng, cfg.targets.len());
        let (wl, groups, blocks) = workload(rng, &cfg, 1);
        let _print_on_panic = Case(seed, case, &cfg, &wl);
        let m = run(&cfg, &wl);
        if cfg.faults.events.iter().all(|e| e.resume) {
            assert_eq!((m.groups_done, m.blocks_done), (groups, blocks), "exactly once");
        }
    }
}

/// Without a recovery in the way every engine is a pure function of
/// `(config, seed)` with exact totals, and every run keeps every law.
#[test]
fn corrupting_fabrics_replay_exactly_in_every_mode() {
    const MODES: [OrderingMode; 5] = [
        OrderingMode::Orderless,
        OrderingMode::LinuxNvmf,
        OrderingMode::Horae,
        OrderingMode::Rio { merge: true },
        OrderingMode::Rio { merge: false },
    ];
    let seed = MASTER_SEED ^ 1;
    let mut master = SimRng::seed_from_u64(seed);
    for case in 0..30 {
        let rng = &mut master.fork();
        let mode = MODES[case % MODES.len()];
        let mut cfg = cluster(rng, mode);
        cfg.trace = Some(TraceConfig::default());
        cfg.faults = fault_plan(rng, cfg.targets.len());
        for e in &mut cfg.faults.events {
            e.kind = FaultKind::PacketCorrupt { rate: pick(rng, &[0.0, 1e-3, 1e-2]) };
        }
        let scale = if mode == OrderingMode::LinuxNvmf { 4 } else { 1 };
        let (wl, groups, blocks) = workload(rng, &cfg, scale);
        let _print_on_panic = Case(seed, case, &cfg, &wl);
        let m = run(&cfg, &wl);
        assert_eq!(m, run(&cfg, &wl), "replay diverged");
        assert_eq!((m.groups_done, m.blocks_done), (groups, blocks));
        assert_eq!(m.breakdown.expect("traced").aborted, 0, "no crash, no aborted trace");
    }
}
