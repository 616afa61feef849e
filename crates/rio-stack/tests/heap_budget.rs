//! The event path's heap budget, as a test that fails `cargo test`.
//!
//! A counting global allocator watches one small cluster run per
//! ordering mode and holds allocations per block and peak live bytes
//! per block under pinned ceilings. Both are exact counts — the
//! simulation is deterministic and this binary holds a single test, so
//! nothing else allocates while it measures — which makes this a gate
//! that cannot flap: a refactor that re-grows a per-block map or a
//! per-command vector trips it however noisy the host is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use rio_ssd::SsdProfile;
use rio_stack::{Cluster, ClusterConfig, OrderingMode, Workload};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System` plus three statistics counters. The counters publish no
/// other data, so `Relaxed` is sufficient.
struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer
// unchanged to `System`, which upholds the `GlobalAlloc` contract; the
// bookkeeping around the calls touches only atomics and never the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: see the impl-level comment; `layout` is forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: see the impl-level comment; `layout` is forwarded as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: see the impl-level comment; `ptr`/`layout` are forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see the impl-level comment; all arguments are forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is a valid non-zero size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Live bytes above the current level at the peak of `f`.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - live)
}

/// Allocation calls of `Cluster::new` + `run()`, and the peak live
/// bytes `run()` adds on top of what `Cluster::new` pre-sizes (slabs,
/// rings and the PMR regions RIO formats), for the cluster `build`
/// makes, which writes `blocks` blocks; both per block written. Last,
/// `Cluster::new`'s own peak bytes.
fn per_block(build: impl Fn() -> Cluster, blocks: u64) -> (f64, f64, u64) {
    let (_, setup) = peak_of(|| drop(build()));
    let allocs = ALLOCS.load(Relaxed);
    let (m, peak) = peak_of(|| build().run());
    let allocs = ALLOCS.load(Relaxed) - allocs;
    assert_eq!(m.blocks_done, blocks, "lost blocks");
    (
        allocs as f64 / blocks as f64,
        (peak - setup) as f64 / blocks as f64,
        setup,
    )
}

const RIO: OrderingMode = OrderingMode::Rio { merge: true };

/// A 2 000-group random-4 KB workload on the paper's four-SSD,
/// two-target testbed. With `integrity` every block is a 4 KB payload
/// block, sealed on media.
fn rand4k(mode: OrderingMode, integrity: bool) -> Cluster {
    const THREADS: usize = 8;
    Cluster::new(
        ClusterConfig {
            integrity,
            ..ClusterConfig::four_ssd_two_targets(mode, THREADS)
        },
        Workload::random_4k(THREADS, 2_000 / THREADS as u64),
    )
}

/// `workload` under RIO with merging on one Optane SSD, a stream per
/// thread (the benchmark's `rio_seq_merge` / `rio_fsync` shape).
fn rio_single_ssd(workload: Workload) -> Cluster {
    let cfg = ClusterConfig::single_ssd(RIO, SsdProfile::optane905p(), workload.threads);
    Cluster::new(cfg, workload)
}

/// A budget cell: name, cluster, the blocks it writes, then the
/// ceilings on allocations and peak live bytes, both per block, and on
/// the peak bytes of building the cluster.
type Cell = (&'static str, fn() -> Cluster, u64, f64, f64, u64);

#[test]
fn event_path_stays_inside_its_heap_budget() {
    // Peak ceilings are about 2 % above the exact counts and allocation
    // ceilings 0.01–0.03 above them (the harness's own thread adds a
    // handful to whichever cell runs first): 0.117 / 73, 0.072 / 71,
    // 0.070 / 49, 0.074 / 74 on random 4 KB. The fixed
    // allocations of `Cluster::new` are spread over only 2 000 blocks,
    // which is the 0.07 every mode carries; RIO's 0.04 above it is its
    // eight ORDER queues and the batch they trade buffers with growing
    // to working size, once. For scale: one `Vec` per generated group,
    // dispatch unit, plugged bio, SSD write or PMR update is 1.0
    // allocation per block each (a flush that copies its units out is
    // 2.0, a plug built per batch 3.0); the SSD's one block store
    // journals a write as its deltas from the one before — about 6
    // bytes for a RIO write, whose tag is its group sequence, and 10–12
    // for a baseline's slab-id tag — in chunks of at most 64 KiB, where
    // a 16-byte record per write in a doubling `Vec` read 77 / 75 / 54 /
    // 79 here (and 46 on fsync). The device packs that 16-byte record
    // when it accepts the write, so a cache entry is 40 bytes and an
    // in-flight write 40 (a 72-byte entry carrying the unpacked run and
    // its byte count read 62–108 here). A PLP drive holds a
    // write's landing only while it is in flight — held to the end of
    // the run instead, it is 40 bytes per write more, and a second
    // store (or a per-write completion record kept only for
    // statistics) is 16 bytes or more. The integrity-on cell
    // (0.120 / 78) sits on the same floor: a block travels and lands
    // as its 8-byte payload seed, sealed by streaming, and the store
    // journals it like a tag, so a 4 KB buffer per block would be 1.0
    // allocation and 4 096 bytes more, and a one-element `Vec` around
    // the image 1.0 more. The two
    // single-SSD cells (0.056 / 33, 0.064 / 42) hold the merge path —
    // 16 one-block groups leave as one command, where per-unit vectors
    // are 0.375 per block — and the fsync path — D, JM and JC groups of
    // 1 + 2 + 1 blocks, one blocking wait per op, 1.25 per block with
    // per-unit vectors — to the same floor.
    //
    // Building a cluster costs 270 304 bytes at its peak when no PMR is
    // written (Orderless, Horae, Linux, whose targets hold no gate and no
    // log) and 441 568 with RIO's log formatted on the first SSD of each
    // of two targets; one SSD with its log costs 237 240 (merge) and
    // 362 072 (fsync, whose workload holds more). Formatting writes only the superblock, so each log
    // holds one 64 KiB page of its 2 MB PMR: a region allocated whole
    // by its first write, or before anything writes it, fails every
    // RIO build ceiling.
    let budgets: [Cell; 7] = [
        ("Rio rand4k", || rand4k(RIO, false), 2_000, 0.15, 75.0, 450_000),
        ("Orderless rand4k", || rand4k(OrderingMode::Orderless, false), 2_000, 0.09, 73.0, 280_000),
        ("Horae rand4k", || rand4k(OrderingMode::Horae, false), 2_000, 0.09, 50.0, 280_000),
        ("LinuxNvmf rand4k", || rand4k(OrderingMode::LinuxNvmf, false), 2_000, 0.09, 76.0, 280_000),
        ("Rio rand4k integrity", || rand4k(RIO, true), 2_000, 0.15, 80.0, 450_000),
        ("Rio seq merge16", || rio_single_ssd(Workload::seq_batched(4, 500, 16, 1)), 2_000, 0.07, 34.0, 242_000),
        ("Rio fsync_append", || rio_single_ssd(Workload::fsync_append(8, 64)), 2_048, 0.08, 43.0, 369_000),
    ];
    for (cell, build, blocks, max_allocs, max_peak, max_setup) in budgets {
        let (allocs, peak, setup) = per_block(build, blocks);
        println!(
            "{cell}: {allocs:.3} allocations and {peak:.0} peak bytes per block, \
             {setup} bytes to build"
        );
        assert!(
            allocs <= max_allocs,
            "{cell}: {allocs:.3} allocations per block ({:.0} in all), budget {max_allocs}",
            allocs * blocks as f64
        );
        assert!(
            peak <= max_peak,
            "{cell}: {peak:.0} peak live bytes per block, budget {max_peak}"
        );
        assert!(
            setup <= max_setup,
            "{cell}: {setup} peak bytes to build, budget {max_setup}"
        );
    }
}
