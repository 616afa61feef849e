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
/// bytes `run()` adds on top of what `Cluster::new` pre-sizes (PMR
/// regions, slabs, rings — 8 MB that would drown a per-block cost),
/// for a 2 000-group random-4 KB workload on the paper's four-SSD,
/// two-target testbed; both per block written. With `integrity` every
/// block is a real 4 KB payload that stays live on media.
fn per_block(mode: &OrderingMode, integrity: bool) -> (f64, f64) {
    const THREADS: usize = 8;
    const GROUPS: u64 = 2_000;
    let build = || {
        Cluster::new(
            ClusterConfig {
                integrity,
                ..ClusterConfig::four_ssd_two_targets(*mode, THREADS)
            },
            Workload::random_4k(THREADS, GROUPS / THREADS as u64),
        )
    };
    let (_, setup) = peak_of(|| drop(build()));
    let allocs = ALLOCS.load(Relaxed);
    let (m, peak) = peak_of(|| build().run());
    let allocs = ALLOCS.load(Relaxed) - allocs;
    assert_eq!(m.blocks_done, GROUPS, "{mode:?} lost blocks");
    (
        allocs as f64 / GROUPS as f64,
        (peak - setup) as f64 / GROUPS as f64,
    )
}

#[test]
fn event_path_stays_inside_its_heap_budget() {
    // (mode, allocations per block, peak live bytes per block), about
    // 2 % above the exact counts — 2.124 / 121, 3.081 / 120,
    // 0.083 / 95, 0.088 / 141. For scale: one `Vec` per generated
    // group, SSD write or PMR update is 1.0 allocation per block each;
    // the SSD's one block store journals a 48-byte record per write,
    // and a second store (or a per-write completion record kept only
    // for statistics) is that much again. The fixed allocations of
    // `Cluster::new` are spread over only 2 000 blocks, which is the
    // 0.08 every mode carries. The integrity-on cell (4.133 / 4 279)
    // adds the block's 4 096 bytes, the `Arc` that shares them between
    // the in-flight command and media, and a media index entry per
    // block; a one-element `Vec` around the image is 1.0 more.
    let budgets = [
        (OrderingMode::Rio { merge: true }, false, 2.17, 124.0),
        (OrderingMode::Orderless, false, 3.15, 123.0),
        (OrderingMode::Horae, false, 0.09, 97.0),
        (OrderingMode::LinuxNvmf, false, 0.09, 144.0),
        (OrderingMode::Rio { merge: true }, true, 4.21, 4365.0),
    ];
    for (mode, integrity, max_allocs, max_peak) in budgets {
        let (allocs, peak) = per_block(&mode, integrity);
        let mode = format!("{mode:?} integrity {integrity}");
        println!("{mode}: {allocs:.3} allocations and {peak:.0} peak bytes per block");
        assert!(
            allocs <= max_allocs,
            "{mode}: {allocs:.3} allocations per block, budget {max_allocs}"
        );
        assert!(
            peak <= max_peak,
            "{mode}: {peak:.0} peak live bytes per block, budget {max_peak}"
        );
    }
}
