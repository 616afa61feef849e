//! The counting global allocator behind `peak_heap_mb` and the
//! `rio-stack.allocs_per_block` ledger rows.
//!
//! It is installed unconditionally (see `main.rs`), so both sides of
//! any before/after comparison pay the same few relaxed atomic adds
//! per allocation. The program is single-threaded, so the counters are
//! exact and repeat bit for bit for a fixed seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System` plus four statistics counters. The counters publish no
/// other data, so `Relaxed` is sufficient.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
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

/// A reading of the allocation counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocMark {
    allocs: u64,
    bytes: u64,
    live: u64,
}

/// Reads the counters.
pub fn mark() -> AllocMark {
    AllocMark {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Reads the counters and restarts peak tracking from the current live
/// size, so [`AllocMark::peak_since`] reports the high-water mark of
/// what follows.
pub fn mark_peak() -> AllocMark {
    let m = mark();
    PEAK.store(m.live, Relaxed);
    m
}

impl AllocMark {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since the mark.
    pub fn allocs_since(&self) -> u64 {
        ALLOCS.load(Relaxed) - self.allocs
    }

    /// Bytes requested since the mark.
    pub fn bytes_since(&self) -> u64 {
        BYTES.load(Relaxed) - self.bytes
    }

    /// Highest live-byte count reached since the mark, above the live
    /// size at the mark. Meaningful on the latest [`mark_peak`] only.
    pub fn peak_since(&self) -> u64 {
        PEAK.load(Relaxed).saturating_sub(self.live)
    }
}

/// Tells glibc's `malloc` to keep freed memory in the process: never
/// trim the heap top, never serve a request by a private `mmap`.
///
/// Every repetition builds and drops a 65–225 MB simulation. By default
/// glibc hands that memory back to the kernel each time, and the next
/// repetition pays to fault it in again — on this VM a hypervisor-bound
/// cost that was the noisiest part of a repetition (on `rio_fsync`:
/// `run()` quartiles 640–865 ms with the default, 578–599 ms without
/// it, alternating runs). After the first repetition the heap is warm,
/// which is the state "let lazy set-up finish before timing" asks for;
/// what a simulation allocates is reported by `peak_heap_mb` and the
/// allocation counts, which do not depend on this. A no-op on other C
/// libraries.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_MAX: c_int = -4;
        // SAFETY: `mallopt` takes two plain integers and only updates
        // glibc's allocator parameters under its own lock; both
        // parameter ids are from <malloc.h> and any value is accepted
        // or rejected by return code, which is deliberately ignored (a
        // refusal only leaves the default behaviour).
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            mallopt(M_MMAP_MAX, 0);
        }
    }
}
