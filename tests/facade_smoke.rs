//! Facade wiring smoke test: every `pub use` in `src/lib.rs` must
//! resolve, and a minimal end-to-end simulation must run purely through
//! `rio::` paths. Catches regressions where a sub-crate rename or a
//! dropped re-export silently breaks downstream users of the facade.

use rio::block::{Bio, BioFlags, Plug, StripedVolume};
use rio::fs::{BlockDev, MemDev, OrderedDev, RioFs};
use rio::net::{Fabric, FabricProfile};
use rio::order::{
    BlockRange, InOrderCompleter, OrderQueue, OrderQueueConfig, OrderingAttr, PmrLog, Rio,
    Sequencer, StreamId, SubmissionGate, SubmitOpts,
};
use rio::proto::{Cqe, NvmOpcode, PmrRecord, RioExt, RioFlags, RioOpcode, Sqe, Status};
use rio::sim::{EventHeap, SimDuration, SimRng, SimTime};
use rio::ssd::{Pmr, Ssd, SsdProfile};
use rio::stack::{Cluster, ClusterConfig, InitiatorConfig, OrderingMode, RunMetrics, Workload};
use rio::workloads::{FioJob, MiniKv, Varmail};

/// Touch one real constructor per facade module so the re-export graph
/// is exercised beyond name resolution.
#[test]
fn facade_types_construct() {
    let mut seq = Sequencer::new(1, 1);
    let attr = seq.submit(
        StreamId(0),
        BlockRange::new(0, 1),
        SubmitOpts {
            end_group: true,
            ..Default::default()
        },
    );
    assert_eq!(attr.stream, StreamId(0));
    let _ = OrderQueue::new(StreamId(0), OrderQueueConfig::default());
    let _ = PmrLog::format(1 << 20, 24);
    let _ = Sqe::write(1, 0, 8);
    let _ = BlockRange::new(0, 8);
    let _ = SsdProfile::optane905p();
    let _ = FabricProfile::connectx6();
    let _ = MemDev::new(64);
    let _ = OrderedDev::new(64);
    let _ = SimRng::seed_from_u64(1);
    let _ = SimTime::ZERO;

    // Silence "unused import" only for items that are type-level here.
    type _TypeLevel = (
        Option<Bio>,
        Option<BioFlags>,
        Option<Plug>,
        Option<StripedVolume>,
        Option<Fabric>,
        Option<InOrderCompleter>,
        Option<OrderingAttr>,
        Option<Rio>,
        Option<SubmissionGate>,
        Option<SubmitOpts>,
        Option<Cqe>,
        Option<NvmOpcode>,
        Option<PmrRecord>,
        Option<RioExt>,
        Option<RioFlags>,
        Option<RioOpcode>,
        Option<Status>,
        Option<EventHeap<u32>>,
        Option<SimDuration>,
        Option<Pmr>,
        Option<Ssd>,
        Option<RunMetrics>,
        Option<InitiatorConfig>,
        Option<FioJob>,
        Option<MiniKv>,
        Option<Varmail>,
    );
}

/// A tiny cluster simulation runs end-to-end through `rio::` paths and
/// produces non-trivial metrics.
#[test]
fn facade_minimal_stack_simulation() {
    let cfg = ClusterConfig::single_ssd(OrderingMode::Rio { merge: true }, SsdProfile::pm981(), 2);
    let metrics = Cluster::new(cfg, Workload::random_4k(2, 50)).run();
    assert!(metrics.block_iops() > 0.0, "simulation produced no IOPS");
    assert!(metrics.blocks_done > 0, "no blocks completed");
}

/// The facade's fs + device path works: write, fsync, read back.
#[test]
fn facade_fs_round_trip() {
    let mut fs = RioFs::mkfs(OrderedDev::new(512), 1);
    fs.create("hello").expect("create");
    fs.write("hello", 0, b"rio facade").expect("write");
    fs.fsync("hello", 0).expect("fsync");
    let back = fs.read("hello", 0, 10).expect("read");
    assert_eq!(&back, b"rio facade");
    let dev = fs.into_device();
    assert_eq!(BlockDev::n_blocks(&dev), 512);
}
