//! The SSD state machine: command processing, cache, FLUSH, crash.
//!
//! Timing model (each `submit_*` returns the completion instant):
//!
//! ```text
//! completion = cmd-processor queueing            (IOPS cap)
//!            ⊔ flush-stall window                (device-wide FLUSH)
//!            + cache-overflow delay              (sustained-bw cap)
//!            + base write latency (+ jitter)
//! ```
//!
//! Durability model:
//!
//! * PLP drives: a write is durable at completion.
//! * Volatile-cache drives: a write is durable when (a) the background
//!   drain has reached it (FIFO at `media_bw`), or (b) a FLUSH submitted
//!   after its completion finishes, or (c) it was submitted with FUA.
//! * [`Ssd::crash`] keeps the media and PMR, loses the volatile cache
//!   and all in-flight commands.
//!
//! Integrity model (opt-in via [`Ssd::set_integrity`]):
//!
//! * every block landing on media carries a CRC-32C seal of its
//!   intended image,
//! * a power failure tears the write the media was absorbing — partial
//!   bytes under the intended seal,
//! * [`Ssd::rot_at_rest`] flips bits in sealed blocks without touching
//!   their seals,
//! * [`Ssd::scrub`] re-checksums every sealed block and reports the
//!   mismatches; with integrity off none of this costs anything.
//!
//! A generated block travels and lands as its seed, and submitted bytes
//! land as given. Both are sealed and scrubbed in place, and replaced
//! (not mutated) on media by materialised bytes when a torn write or
//! bit rot corrupts them.
//!
//! A token write (a tag, zero or payload run) is packed once, on
//! acceptance, into the 16-byte record the media journal codes; its
//! cache entry or in-flight slot holds that record until it lands. A
//! PLP drive's cache entry holds only the write's block count.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use rio_sim::{MultiServer, SimDuration, SimRng, SimTime};

use crate::media::{BlockImage, BlockRun, BlockStore, Images, Record};
use crate::pmr::Pmr;
use crate::profile::SsdProfile;

/// Block size used throughout the repository.
pub const BLOCK_SIZE: u64 = 4096;

/// Device time of one discard (µs). TRIM-class commands on scattered
/// 4 KB ranges are far slower than reads or writes on real devices
/// (calibrated against the paper's ~125 ms data recovery), and a device
/// runs them one at a time.
pub const DISCARD_US: f64 = 150.0;

/// Device time to verify one sealed media block in a recovery scrub
/// (µs): a 4 KB read plus a CRC-32C pass.
pub const SCRUB_US_PER_BLOCK: f64 = 2.0;

/// Aggregate device statistics.
#[derive(Debug, Default, Clone)]
pub struct SsdStats {
    /// Write commands accepted (counted at submission).
    pub writes: u64,
    /// Blocks of the accepted write commands.
    pub blocks_written: u64,
    /// Completed FLUSH commands.
    pub flushes: u64,
    /// Total simulated time spent inside FLUSHes.
    pub flush_time: SimDuration,
    /// Discards accepted (counted at submission).
    pub discards: u64,
}

/// A write's blocks on their way to media. The device packs a token
/// run once, when it accepts the write, and carries that record through
/// the cache or the in-flight queue into the store's journal unchanged.
#[derive(Debug, Clone)]
enum Landing {
    /// A token run, as the store journals it (sealed by its seed on
    /// integrity runs).
    Packed(Record),
    /// What does not pack — real bytes, a list, or a seal that is not
    /// the seed's — as the runs the store will take.
    Runs(Vec<BlockRun>),
    /// A PLP cache entry's bandwidth-only occupancy: this many blocks,
    /// no images.
    Held(u32),
}

impl Landing {
    /// Takes over a submitted write: with `integrity` each block is
    /// sealed with the CRC of the image the submitter intends to land.
    /// A payload run packs sealed by its seed, the one seal it can
    /// have, so no seal is derived until the store unpacks it; any
    /// other image is checksummed once here (`BlockImage::crc32c`).
    fn new(lba: u64, images: Images, integrity: bool) -> Self {
        let run = |lba, image: BlockImage, blocks| BlockRun {
            lba,
            seal: integrity.then(|| image.crc32c(BLOCK_SIZE as usize)),
            image,
            blocks,
        };
        match images {
            Images::Run(image, blocks) => match Record::token(lba, &image, blocks, integrity) {
                Some(record) => Landing::Packed(record),
                None => Landing::Runs(vec![run(lba, image, blocks)]),
            },
            Images::List(list) => Landing::Runs(
                (lba..)
                    .zip(list)
                    .map(|(lba, image)| run(lba, image, 1))
                    .collect(),
            ),
        }
    }

    /// Bytes of cache the write occupies.
    fn bytes(&self) -> u64 {
        let blocks = match self {
            Landing::Packed(record) => record.blocks(),
            Landing::Runs(runs) => runs.iter().map(|run| run.blocks).sum(),
            Landing::Held(blocks) => *blocks,
        };
        u64::from(blocks) * BLOCK_SIZE
    }

    /// Writes the blocks to `media`: a packed run is one journal push.
    fn land(&self, media: &mut BlockStore) {
        match self {
            Landing::Packed(record) => _ = media.write_record(*record),
            Landing::Runs(runs) => runs.iter().for_each(|run| _ = media.write_run(run.clone())),
            Landing::Held(_) => {}
        }
    }

    /// The leading block with its seal, when there is one to tear.
    fn sealed_head(&self) -> Option<(u64, BlockImage, u32)> {
        let head = |run: &BlockRun| Some((run.lba, run.image.clone(), run.seal?));
        match self {
            Landing::Packed(record) => head(&record.unpack()),
            Landing::Runs(runs) => head(runs.first()?),
            Landing::Held(_) => None,
        }
    }

    /// Zeroes the images of the blocks inside `lbas` and drops their
    /// seals — the seal vouched for the discarded data, and a zero
    /// block landing under it would scrub as corruption; a write the
    /// range touches is kept block by block from then on.
    fn zero(&mut self, lbas: std::ops::Range<u64>) {
        let touched = |lba, blocks| lba < lbas.end && lbas.start < lba + u64::from(blocks);
        let unpacked;
        let runs = match self {
            Landing::Packed(record) if touched(record.lba(), record.blocks()) => {
                unpacked = record.unpack();
                std::slice::from_ref(&unpacked)
            }
            Landing::Runs(runs) if runs.iter().any(|r| touched(r.lba, r.blocks)) => runs,
            _ => return,
        };
        let blocks = runs.iter().flat_map(|r| {
            (r.lba..r.lba + r.blocks as u64).map(|lba| BlockRun {
                lba,
                image: if lbas.contains(&lba) {
                    BlockImage::Zero
                } else {
                    r.image.clone()
                },
                blocks: 1,
                seal: r.seal.filter(|_| !lbas.contains(&lba)),
            })
        });
        *self = Landing::Runs(blocks.collect());
    }
}

/// One cache entry: a write occupying the cache until drained.
///
/// Entries are added at submission (they consume cache space and media
/// bandwidth immediately); `cached_at` is the write's completion time,
/// which decides FLUSH coverage. On PLP drives an entry is
/// [`Landing::Held`] — durability is handled by the completion-time
/// media write — and exists only to model the bandwidth bound.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// What a volatile drive holds until the drain or a FLUSH reaches
    /// it — packed for a token run — or a PLP drive's block count; its
    /// blocks are the bytes of cache the entry occupies.
    write: Landing,
    /// Submission time (FLUSH coverage: NVMe flush drains everything
    /// the controller accepted before the flush was submitted).
    submitted_at: SimTime,
    /// Completion time (background-drain eligibility).
    cached_at: SimTime,
}

/// An operation that changes durable state at its completion time. A
/// volatile drive's cached write is not one: it already sits in the
/// cache, and the drain or a FLUSH is what lands it.
#[derive(Debug, Clone)]
enum PendingOp {
    /// PLP write: blocks move to media at completion. FUA writes on
    /// volatile drives take this path too.
    DurableWrite(Landing),
    /// FLUSH: cache entries completed at or before `submitted` become
    /// durable.
    Flush { submitted: SimTime },
}

/// A pending operation under its `(completion, op id)` key. Keys are
/// unique, so the order is total and settlement deterministic.
#[derive(Debug)]
struct Pending {
    due: (SimTime, u64),
    op: PendingOp,
}

/// Reversed, so a `BinaryHeap` of them yields the earliest first.
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other.due.cmp(&self.due)
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}

impl Eq for Pending {}

/// The simulated NVMe SSD.
#[derive(Debug)]
pub struct Ssd {
    profile: SsdProfile,
    rng: SimRng,
    cmd_units: MultiServer,
    /// PLP drives: flush serialization unit.
    flush_unit: rio_sim::FifoResource,
    flush_busy_until: SimTime,
    /// FIFO of writes not yet drained to media.
    cache: VecDeque<CacheEntry>,
    /// Total bytes currently occupying the cache.
    cache_sum: u64,
    /// Unspent drain budget in bytes (fractional carry).
    drain_carry: f64,
    last_drain_update: SimTime,
    /// What survives a crash.
    media: BlockStore,
    pmr: Pmr,
    /// Durable writes and FLUSHes not yet settled — only what changes
    /// durable state at its completion time — earliest first. On a PLP
    /// drive [`Ssd::retire`] lands them as they complete, so this holds
    /// what is in flight; a volatile drive's FLUSHes and FUA writes
    /// wait here for [`Ssd::advance`].
    pending: BinaryHeap<Pending>,
    next_op: u64,
    stats: SsdStats,
    /// Whether media landings are checksummed and crashes tear.
    integrity: bool,
}

impl Ssd {
    /// Creates a device from a profile with a deterministic jitter seed.
    pub fn new(profile: SsdProfile, seed: u64) -> Self {
        let pmr = Pmr::new(profile.pmr_bytes);
        Ssd {
            cmd_units: MultiServer::new(profile.queue_processors),
            flush_unit: rio_sim::FifoResource::new(),
            rng: SimRng::seed_from_u64(seed),
            flush_busy_until: SimTime::ZERO,
            cache: VecDeque::new(),
            cache_sum: 0,
            drain_carry: 0.0,
            last_drain_update: SimTime::ZERO,
            media: BlockStore::new(),
            pmr,
            pending: BinaryHeap::new(),
            next_op: 0,
            stats: SsdStats::default(),
            integrity: false,
            profile,
        }
    }

    /// Turns the end-to-end integrity machinery on or off. With it off
    /// (the default) writes are not checksummed, crashes do not tear,
    /// and nothing here draws randomness or clones bytes.
    pub fn set_integrity(&mut self, on: bool) {
        self.integrity = on;
    }

    /// The device profile.
    pub fn profile(&self) -> &SsdProfile {
        &self.profile
    }

    /// Device statistics.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// The PMR region.
    pub fn pmr(&self) -> &Pmr {
        &self.pmr
    }

    /// Mutable PMR access (target-driver MMIO writes).
    pub fn pmr_mut(&mut self) -> &mut Pmr {
        &mut self.pmr
    }

    /// Bytes currently occupying the write cache.
    pub fn dirty_bytes(&self) -> u64 {
        self.cache_sum
    }

    fn update_drain(&mut self, now: SimTime) {
        // The clock never runs back: `advance` steps through completion
        // instants the submissions may have passed already, and a
        // rewound clock would credit the same interval twice. A step
        // to an instant the clock has passed is therefore a no-op.
        let now = now.max(self.last_drain_update);
        let elapsed = now.since(self.last_drain_update);
        self.last_drain_update = now;
        if self.cache.is_empty() {
            self.drain_carry = 0.0;
            return;
        }
        self.drain_carry += elapsed.as_secs_f64() * self.profile.media_bw;
        // The device cannot bank idle drain capacity: while the head of
        // the cache is still in flight, budget must not pile up, or a
        // bursty arrival pattern would sidestep the bandwidth bound.
        // A 1 MB allowance keeps sustained drain exact as long as the
        // clock advances at least every ~0.5 ms under load; it grows to
        // one maximum transfer where that is larger, or a write bigger
        // than the allowance would never drain.
        let max_transfer = u64::from(self.profile.max_transfer_blocks) * BLOCK_SIZE;
        self.drain_carry = self.drain_carry.min(max_transfer.max(1 << 20) as f64);
        let lag = SimDuration::from_micros_f64(self.profile.drain_lag_us);
        // Background drain only touches writes that completed at least
        // `drain_lag` ago (FTL batching window).
        while let Some(e) = self.cache.pop_front_if(|e| {
            e.cached_at + lag <= now && e.write.bytes() as f64 <= self.drain_carry
        }) {
            let bytes = e.write.bytes();
            self.drain_carry -= bytes as f64;
            self.cache_sum -= bytes;
            e.write.land(&mut self.media);
        }
        if self.cache.is_empty() {
            self.drain_carry = 0.0;
        }
    }

    /// Applies every effect due at or before `now`. Call before querying
    /// durable state and at crash time.
    pub fn advance(&mut self, now: SimTime) {
        // Due ops run in completion order, the drain clock advancing
        // alongside so FLUSH/drain interleavings resolve correctly.
        while let Some((done_at, op)) = self.pop_due(now) {
            self.update_drain(done_at);
            self.settle(op);
        }
        self.update_drain(now);
    }

    /// Lands, in completion order, every operation a PLP drive
    /// completed by `floor`, so that `pending` holds only what is in
    /// flight. `floor` is a promise that no later call to this device
    /// carries an earlier instant: a cluster passes its event clock. A
    /// submission instant makes no such promise, because a target core
    /// may submit ahead of that clock, and a crash at the clock must
    /// still find the command in flight.
    ///
    /// Under the promise this is exactly what [`Ssd::advance`] would do
    /// for these operations later:
    /// - every operation left, or accepted later, completes after them,
    ///   so they land in the same order;
    /// - only operations the drain clock has passed land, so the drain
    ///   steps `advance` would take for them are no-ops;
    /// - a PLP cache entry holds only a block count, so nothing else
    ///   lands in between.
    ///
    /// A volatile drive lands nothing here: its FLUSH evicts cache
    /// entries, and the cache is timing state.
    pub fn retire(&mut self, floor: SimTime) {
        if !self.profile.plp {
            return;
        }
        let through = floor.min(self.last_drain_update);
        while let Some((_, op)) = self.pop_due(through) {
            self.settle(op);
        }
    }

    /// Takes the earliest pending operation if it completes at or
    /// before `now`, with its completion instant.
    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, PendingOp)> {
        let next = self.pending.peek_mut().filter(|p| p.due.0 <= now)?;
        let Pending { due, op } = PeekMut::pop(next);
        Some((due.0, op))
    }

    /// Applies an operation's durable effect.
    fn settle(&mut self, op: PendingOp) {
        match op {
            PendingOp::DurableWrite(write) => write.land(&mut self.media),
            PendingOp::Flush { submitted } => {
                self.stats.flushes += 1;
                // On a volatile-cache drive, everything completed at
                // or before the flush submission is now durable. On
                // PLP drives the flush is a durability no-op and the
                // cache entries stay, so the media-bandwidth bound
                // cannot be laundered through cheap flushes.
                if !self.profile.plp {
                    let (media, cache_sum) = (&mut self.media, &mut self.cache_sum);
                    self.cache.retain(|e| {
                        let covered = e.submitted_at <= submitted;
                        if covered {
                            *cache_sum -= e.write.bytes();
                            e.write.land(media);
                        }
                        !covered
                    });
                }
            }
        }
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn write_latency(&mut self, blocks: u32) -> SimDuration {
        let us = self.profile.write_us
            + self.profile.write_us_per_extra_block * (blocks.saturating_sub(1)) as f64;
        SimDuration::from_micros_f64(us * self.rng.jitter(self.profile.jitter))
    }

    /// Submits a write of `images` starting at `lba`. Returns the op id
    /// and completion instant; effects apply via [`Ssd::retire`] or
    /// [`Ssd::advance`].
    ///
    /// # Panics
    ///
    /// Panics on an empty write, a transfer larger than the device
    /// limit, or an out-of-range LBA.
    pub fn submit_write(
        &mut self,
        now: SimTime,
        lba: u64,
        images: impl Into<Images>,
        fua: bool,
    ) -> (u64, SimTime) {
        let images = images.into();
        let blocks = images.blocks();
        assert!(blocks > 0, "empty write");
        assert!(
            blocks <= self.profile.max_transfer_blocks,
            "transfer of {blocks} blocks exceeds device limit {}",
            self.profile.max_transfer_blocks
        );
        assert!(
            lba + blocks as u64 <= self.profile.capacity_blocks,
            "write beyond device capacity"
        );
        self.update_drain(now);
        let bytes = blocks as u64 * BLOCK_SIZE;

        let cmd_done = self.cmd_units.admit(
            now,
            SimDuration::from_micros_f64(self.profile.cmd_overhead_us),
        );
        let start = cmd_done.max(self.flush_busy_until);
        // Cache overflow throttling: completion waits for drain space.
        let projected = self.cache_sum + bytes;
        let overflow = projected.saturating_sub(self.profile.cache_bytes);
        let overflow_delay =
            SimDuration::from_micros_f64(overflow as f64 / self.profile.media_bw * 1e6);
        let completion = start + overflow_delay + self.write_latency(blocks);

        let write = Landing::new(lba, images, self.integrity);
        self.stats.writes += 1;
        self.stats.blocks_written += blocks as u64;
        let id = self.op_id();
        let durable_at_completion = self.profile.plp || fua;
        // The cache entry models occupancy and (for volatile drives)
        // holds the landing until the drain or a FLUSH reaches it; on
        // the durable path the completion-time media write owns it.
        let cached = if durable_at_completion {
            self.pending.push(Pending {
                due: (completion, id),
                op: PendingOp::DurableWrite(write),
            });
            Landing::Held(blocks)
        } else {
            write
        };
        self.cache.push_back(CacheEntry {
            write: cached,
            submitted_at: now,
            cached_at: completion,
        });
        self.cache_sum += bytes;
        (id, completion)
    }

    /// Submits a device-wide FLUSH; completion drains the cache.
    ///
    /// On power-loss-protected drives the flush is a cheap no-op that
    /// does not stall other commands; on volatile-cache drives it
    /// drains the cache exclusively (the device-wide stall behind
    /// Fig. 2(a)'s collapse).
    pub fn submit_flush(&mut self, now: SimTime) -> (u64, SimTime) {
        self.update_drain(now);
        let cmd_done = self.cmd_units.admit(
            now,
            SimDuration::from_micros_f64(self.profile.cmd_overhead_us),
        );
        if self.profile.plp {
            // Flushes do not stall writes, but they serialize on one
            // internal unit — many threads flushing contend.
            let dur = SimDuration::from_micros_f64(
                self.profile.flush_base_us * self.rng.jitter(self.profile.jitter),
            );
            let completion = self.flush_unit.admit(cmd_done, dur);
            self.stats.flush_time += dur;
            return self.push_flush(now, completion);
        }
        let start = cmd_done.max(self.flush_busy_until);
        let drain_us = self.dirty_bytes() as f64 / self.profile.media_bw * 1e6;
        let dur = SimDuration::from_micros_f64(
            (self.profile.flush_base_us + drain_us) * self.rng.jitter(self.profile.jitter),
        );
        let completion = start + dur;
        // FLUSH stalls the device: later commands queue behind it.
        self.flush_busy_until = completion;
        self.stats.flush_time += dur;
        self.push_flush(now, completion)
    }

    /// Queues a FLUSH submitted at `now` that completes at `completion`.
    fn push_flush(&mut self, now: SimTime, completion: SimTime) -> (u64, SimTime) {
        let id = self.op_id();
        self.pending.push(Pending {
            due: (completion, id),
            op: PendingOp::Flush { submitted: now },
        });
        (id, completion)
    }

    /// Discards `count` blocks at `lba` (recovery roll-back). Takes
    /// effect immediately, on media and in the cache. Every discard
    /// runs on the first command processor, so it completes
    /// [`DISCARD_US`] after the device's previous one.
    pub fn submit_discard(&mut self, now: SimTime, lba: u64, count: u32) -> (u64, SimTime) {
        self.update_drain(now);
        let done = self.cmd_units.admit_to(0, now, SimDuration::from_micros_f64(DISCARD_US));
        self.media.discard(lba, count as u64);
        for e in &mut self.cache {
            // Cheap approximation: a discarded range inside a cache
            // entry zeroes the overlapping images.
            e.write.zero(lba..lba + count as u64);
        }
        self.stats.discards += 1;
        (self.op_id(), done)
    }

    /// Settles every accepted command at its own completion instant and
    /// returns the latest one (or `now` if nothing was pending).
    ///
    /// This is the partial-failure counterpart of [`Ssd::crash`]: when
    /// *other* targets lose power, an alive target keeps its cache and
    /// in-flight queue, and by the time the initiator's recovery (tens
    /// of milliseconds of PMR scanning) reads or discards state here,
    /// every command the device had accepted — microseconds from
    /// completion — has finished. Recovery drivers call this before
    /// issuing discards so a pending write cannot land *after* the
    /// roll-back erased its range and resurrect rolled-back data.
    pub fn quiesce(&mut self, now: SimTime) -> SimTime {
        let settle = self
            .pending
            .iter()
            .map(|p| p.due.0)
            .max()
            .unwrap_or(now)
            .max(now);
        self.advance(settle);
        settle
    }

    /// Simulates a power failure at `now`: volatile cache and in-flight
    /// commands are lost; media and PMR survive. On PLP drives the
    /// capacitors flush completed writes to media first.
    ///
    /// On integrity runs the power cut additionally *tears* the write
    /// the media was absorbing at the instant of failure: the leading
    /// block of the oldest in-flight command (or, on volatile drives,
    /// of the cache head mid-drain) lands half-written under the seal
    /// its full image would have carried. Returns the number of torn
    /// records (0 or 1 here; always 0 with integrity off).
    pub fn crash(&mut self, now: SimTime) -> u64 {
        // Completed durable writes (PLP / FUA) land in media via advance;
        // volatile entries whose drain point was reached land there too.
        self.advance(now);
        let mut torn = 0u64;
        if self.integrity {
            let inflight = self
                .pending
                .iter()
                .filter_map(|p| match &p.op {
                    PendingOp::DurableWrite(write) => Some((p.due, write.sealed_head()?)),
                    PendingOp::Flush { .. } => None,
                })
                .min_by_key(|(due, _)| *due)
                .map(|(_, head)| head);
            let mid_drain = || self.cache.front().and_then(|e| e.write.sealed_head());
            if let Some((lba, img, seal)) = inflight.or_else(mid_drain) {
                let mut bytes = img.to_bytes(BLOCK_SIZE as usize);
                for b in &mut bytes[BLOCK_SIZE as usize / 2..] {
                    *b = 0;
                }
                self.media
                    .write_sealed(lba, BlockImage::Bytes(bytes.into_boxed_slice()), seal);
                torn = 1;
            }
        }
        // Whatever is still in the volatile cache is lost. (PLP entries
        // are held block counts; their durability was completion-time.)
        self.cache.clear();
        self.cache_sum = 0;
        self.drain_carry = 0.0;
        self.pending.clear();
        self.cmd_units.reset(now);
        self.flush_unit.reset(now);
        self.flush_busy_until = now;
        torn
    }

    /// Flips one bit in each of up to `flips` *distinct* sealed media
    /// blocks, leaving their seals untouched (at-rest bit rot). Returns
    /// the number of blocks rotted — distinct blocks, and CRC-32C
    /// catches every single-bit error, so a scrub detects exactly this
    /// many. Draws from the device's deterministic jitter RNG.
    pub fn rot_at_rest(&mut self, flips: u32) -> u64 {
        if !self.integrity {
            return 0;
        }
        let mut lbas = self.media.sealed_lbas();
        let n = (flips as usize).min(lbas.len());
        for i in 0..n {
            let j = i + self.rng.below((lbas.len() - i) as u64) as usize;
            lbas.swap(i, j);
            let bit = self.rng.below(BLOCK_SIZE * 8) as usize;
            self.media.flip_bit(lbas[i], bit, BLOCK_SIZE as usize);
        }
        n as u64
    }

    /// Re-checksums every sealed media block. Returns the number of
    /// records scanned and the (ascending) addresses whose bytes no
    /// longer match their seal — torn writes and bit rot.
    pub fn scrub(&self) -> (u64, Vec<u64>) {
        let mut scanned = 0;
        let mut corrupt = Vec::new();
        self.media.for_each_sealed(|lba, seal, img| {
            scanned += 1;
            if img.crc32c(BLOCK_SIZE as usize) != seal {
                corrupt.push(lba);
            }
        });
        (scanned, corrupt)
    }

    /// Whether every sealed media block still matches its seal (the
    /// end-state check integrity tests run after a workload).
    // rio-lint: allow(S6) rio-stack's cluster tests end every verified run with it; ROADMAP 1(b)'s refinement check is its product caller
    pub fn media_verified(&self) -> bool {
        self.scrub().1.is_empty()
    }

    /// Whether every sealed media block is byte-for-byte the payload
    /// image its embedded seed generates — i.e. exactly what some
    /// submission produced. Only meaningful for stacks that write
    /// [`rio_proto::payload`] blocks (seal checks alone cannot tell a
    /// coherent wrong-data overwrite from the intended write).
    // rio-lint: allow(S6) rio-stack's cluster tests end every verified run with it; ROADMAP 1(b)'s refinement check is its product caller
    pub fn payload_verified(&self) -> bool {
        let mut verified = true;
        self.media.for_each_sealed(|_, _, img| {
            // Materialised whole, so anything but 4 KB of real data
            // fails (`verify_block` rejects other lengths).
            verified &= img.with_prefix(usize::MAX, rio_proto::payload::verify_block);
        });
        verified
    }

    /// Durable view of a block (what a post-crash read would return).
    // rio-lint: allow(S6) ROADMAP 1(b) reads the post-recovery media image back through it
    pub fn durable_read(&self, lba: u64) -> BlockImage {
        self.media.read(lba)
    }

    /// Whether `lba` has durable content.
    #[cfg(test)]
    pub fn is_durable(&self, lba: u64) -> bool {
        self.media.version(lba) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_proto::payload::{block_for, seal_for};
    use std::collections::BTreeMap;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    fn ssd(profile: SsdProfile) -> Ssd {
        Ssd::new(profile, 42)
    }

    fn one_block(tag: u64) -> Vec<BlockImage> {
        vec![BlockImage::Tag(tag)]
    }

    #[test]
    fn unsaturated_write_latency_near_profile() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 0, one_block(1), false);
        let us = done.as_micros_f64();
        // cmd overhead + ~10 us write, ±jitter.
        assert!((9.0..16.0).contains(&us), "latency was {us} us");
    }

    #[test]
    fn plp_write_durable_after_completion() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        s.advance(done);
        assert!(s.is_durable(5));
        assert_eq!(s.durable_read(5), BlockImage::Tag(9));
    }

    #[test]
    fn volatile_write_lost_on_crash_without_flush() {
        let mut s = ssd(SsdProfile::pm981());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        // Crash shortly after completion: the drain has not reached it.
        s.crash(done + SimDuration::from_nanos(1_000));
        assert!(!s.is_durable(5), "volatile cache must be lost");
        assert_eq!(s.durable_read(5), BlockImage::Zero);
    }

    #[test]
    fn flush_makes_prior_writes_durable() {
        let mut s = ssd(SsdProfile::pm981());
        let (_, w_done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        let (_, f_done) = s.submit_flush(w_done);
        s.advance(f_done);
        s.crash(f_done + SimDuration::from_nanos(1_000));
        assert!(s.is_durable(5), "flushed write survives");
        assert_eq!(s.durable_read(5), BlockImage::Tag(9));
    }

    #[test]
    fn flush_does_not_cover_later_writes() {
        let mut s = ssd(SsdProfile::pm981());
        let (_, f_done) = s.submit_flush(SimTime::ZERO);
        // Submitted after the flush, completes after it too.
        let (_, w_done) = s.submit_write(t(1), 7, one_block(3), false);
        assert!(w_done > f_done, "flush stalls the write");
        s.crash(w_done + SimDuration::from_nanos(1_000));
        assert!(!s.is_durable(7));
    }

    #[test]
    fn fua_write_durable_on_volatile_drive() {
        let mut s = ssd(SsdProfile::pm981());
        let (_, done) = s.submit_write(SimTime::ZERO, 3, one_block(1), true);
        s.crash(done + SimDuration::from_nanos(1_000));
        assert!(s.is_durable(3), "FUA bypasses the volatile cache");
    }

    #[test]
    fn background_drain_eventually_persists() {
        let mut s = ssd(SsdProfile::pm981());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        // Wait far longer than 4 KB / 600 MB/s.
        s.crash(done + SimDuration::from_nanos(100_000_000));
        assert!(s.is_durable(5), "drained write survives without FLUSH");
    }

    #[test]
    fn plp_crash_preserves_completed_cache() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        s.crash(done);
        assert!(s.is_durable(5));
    }

    #[test]
    fn in_flight_write_lost_on_crash_even_with_plp() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        // Crash before completion.
        s.crash(SimTime::from_nanos(done.as_nanos() / 2));
        assert!(!s.is_durable(5), "incomplete command has no durability");
    }

    #[test]
    fn sustained_throughput_bounded_by_media_bw() {
        // A small cache makes the steady state dominate quickly.
        let mut p = SsdProfile::pm981();
        p.cache_bytes = 4 * 1024 * 1024;
        let media_bw = p.media_bw;
        let mut s = ssd(p);
        // Stream 128 MB of 16 KB writes back to back (QD 1).
        let mut now = SimTime::ZERO;
        let n: u64 = 8192;
        for i in 0..n {
            let images = vec![BlockImage::Tag(i); 4];
            let (_, done) = s.submit_write(now, i * 4, images, false);
            now = done;
        }
        let achieved = n as f64 * 4.0 * 4096.0 / now.as_secs_f64();
        assert!(
            achieved < media_bw * 1.15,
            "throughput {achieved:.0} B/s exceeds media bw {media_bw:.0}"
        );
        assert!(
            achieved > media_bw * 0.5,
            "throughput {achieved:.0} B/s unreasonably low"
        );
    }

    #[test]
    fn flush_cost_scales_with_dirty_bytes() {
        let mut s = ssd(SsdProfile::pm981());
        // Empty-cache flush.
        let (_, f0) = s.submit_flush(SimTime::ZERO);
        let empty_cost = f0.since(SimTime::ZERO);
        // Dirty ~8 MB, then flush.
        let mut now = f0;
        for i in 0..64 {
            let (_, done) = s.submit_write(now, i * 32, vec![BlockImage::Tag(i); 32], false);
            now = done;
        }
        let (_, f1) = s.submit_flush(now);
        let full_cost = f1.since(now);
        assert!(
            full_cost.as_nanos() > empty_cost.as_nanos() * 3,
            "flush with dirty cache ({full_cost}) must dwarf empty flush ({empty_cost})"
        );
    }

    #[test]
    fn optane_flush_is_cheap() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, w) = s.submit_write(SimTime::ZERO, 0, one_block(1), false);
        let (_, f) = s.submit_flush(w);
        let cost = f.since(w).as_micros_f64();
        assert!(cost < 12.0, "PLP flush should be ~free, got {cost} us");
    }

    #[test]
    fn discard_erases_everywhere() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 4, one_block(7), false);
        s.advance(done);
        s.submit_discard(done, 4, 1);
        assert!(!s.is_durable(4));
        assert_eq!(s.durable_read(4), BlockImage::Zero);
    }

    /// A device runs its discards one at a time, `DISCARD_US` each; a
    /// second device runs its own alongside.
    #[test]
    fn discards_serialise_per_device_and_devices_overlap() {
        let at = t(10);
        let last = |s: &mut Ssd| (0..5).map(|lba| s.submit_discard(at, lba, 1).1).last();
        let five = SimDuration::from_micros_f64(5.0 * DISCARD_US);
        let (mut a, mut b) = (ssd(SsdProfile::optane905p()), ssd(SsdProfile::pm981()));
        assert_eq!(last(&mut a), Some(at + five));
        assert_eq!(last(&mut b), Some(at + five), "the second device waits for nothing");
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_transfer_rejected() {
        let mut s = ssd(SsdProfile::optane905p());
        let images = vec![BlockImage::Zero; 33];
        s.submit_write(SimTime::ZERO, 0, images, false);
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn out_of_range_write_rejected() {
        let p = SsdProfile::optane905p();
        let cap = p.capacity_blocks;
        let mut s = ssd(p);
        s.submit_write(SimTime::ZERO, cap, one_block(1), false);
    }

    #[test]
    fn quiesce_settles_in_flight_commands() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        // Quiesce *before* the write's completion instant: the alive
        // device still finishes the accepted command.
        let settled = s.quiesce(SimTime::from_nanos(done.as_nanos() / 2));
        assert!(settled >= done, "quiesce runs to the last completion");
        assert!(s.is_durable(5), "accepted PLP write lands on media");
        // A crash after the quiesce point loses nothing more.
        s.crash(settled);
        assert!(s.is_durable(5));
    }

    #[test]
    fn quiesce_on_idle_device_is_a_no_op() {
        let mut s = ssd(SsdProfile::pm981());
        let t0 = t(5);
        assert_eq!(s.quiesce(t0), t0);
    }

    #[test]
    fn integrity_seals_landed_blocks_and_scrub_is_clean() {
        let mut s = ssd(SsdProfile::optane905p());
        s.set_integrity(true);
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        s.advance(done);
        let (scanned, corrupt) = s.scrub();
        assert_eq!(scanned, 1);
        assert!(corrupt.is_empty());
        assert!(s.media_verified());
    }

    #[test]
    fn integrity_off_records_no_seals() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        s.advance(done);
        assert_eq!(s.scrub(), (0, Vec::new()));
    }

    /// A block whose bytes are nonzero throughout, so a torn (half
    /// written, half zero) landing is visibly different from the
    /// intended image. Tag images have all-zero tails, which a tear
    /// cannot corrupt — and should not report as corrupt.
    fn noisy_block(fill: u8) -> Vec<BlockImage> {
        vec![BlockImage::Bytes(
            vec![fill | 1; BLOCK_SIZE as usize].into_boxed_slice(),
        )]
    }

    #[test]
    fn crash_tears_the_inflight_write_under_its_intended_seal() {
        let mut s = ssd(SsdProfile::optane905p());
        s.set_integrity(true);
        let (_, d0) = s.submit_write(SimTime::ZERO, 1, noisy_block(7), false);
        s.advance(d0);
        let (_, done) = s.submit_write(d0, 5, noisy_block(9), false);
        // Power cut mid-write: the in-flight command tears.
        let torn = s.crash(SimTime::from_nanos(d0.as_nanos() / 2 + done.as_nanos() / 2));
        assert_eq!(torn, 1);
        let (scanned, corrupt) = s.scrub();
        assert_eq!(scanned, 2, "settled block + torn block are sealed");
        assert_eq!(corrupt, vec![5], "only the torn block mismatches");
        assert!(!s.media_verified());
        // The torn image is the half-written prefix of the intended one.
        let bytes = s.durable_read(5).to_bytes(BLOCK_SIZE as usize);
        assert_eq!(bytes[0], 9, "leading half landed");
        assert!(bytes[2048..].iter().all(|&b| b == 0), "tail never landed");
    }

    #[test]
    fn volatile_drain_head_tears_on_crash() {
        let mut s = ssd(SsdProfile::pm981());
        s.set_integrity(true);
        let (_, w) = s.submit_write(SimTime::ZERO, 3, noisy_block(4), false);
        let (_, f) = s.submit_flush(w);
        s.advance(f);
        // A fresh cached write sits at the cache head when power cuts.
        let (_, done) = s.submit_write(f, 8, noisy_block(6), false);
        let torn = s.crash(done + SimDuration::from_nanos(1));
        assert_eq!(torn, 1);
        let (_, corrupt) = s.scrub();
        assert_eq!(corrupt, vec![8]);
    }

    #[test]
    fn quiesced_crash_tears_nothing() {
        let mut s = ssd(SsdProfile::optane905p());
        s.set_integrity(true);
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        s.quiesce(done);
        assert_eq!(s.crash(done), 0, "nothing in flight, nothing torn");
        assert!(s.media_verified());
    }

    #[test]
    fn rot_flips_distinct_sealed_blocks_and_scrub_finds_them_all() {
        let mut s = ssd(SsdProfile::optane905p());
        s.set_integrity(true);
        let mut now = SimTime::ZERO;
        for lba in 0..8 {
            let (_, done) = s.submit_write(now, lba, one_block(lba), false);
            now = done;
        }
        s.advance(now);
        let rotted = s.rot_at_rest(3);
        assert_eq!(rotted, 3);
        let (scanned, corrupt) = s.scrub();
        assert_eq!(scanned, 8);
        assert_eq!(corrupt.len(), 3, "every rotted block detected");
        // Asking for more rot than there are blocks caps out.
        assert_eq!(s.rot_at_rest(100), 8 - 3 + 3);
    }

    #[test]
    fn rot_is_a_no_op_with_integrity_off() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 0, one_block(1), false);
        s.advance(done);
        assert_eq!(s.rot_at_rest(5), 0);
    }

    #[test]
    fn discard_repairs_a_corrupt_block_by_removal() {
        let mut s = ssd(SsdProfile::optane905p());
        s.set_integrity(true);
        let (_, done) = s.submit_write(SimTime::ZERO, 4, one_block(7), false);
        s.advance(done);
        s.rot_at_rest(1);
        assert!(!s.media_verified());
        s.submit_discard(done, 4, 1);
        assert!(s.media_verified(), "discarded block no longer scrubbed");
    }

    /// A device holding 16 flushed payload blocks, with integrity on.
    fn payload_ssd(profile: SsdProfile) -> (Ssd, SimTime) {
        let mut s = ssd(profile);
        s.set_integrity(true);
        let mut now = SimTime::ZERO;
        for lba in 0..16 {
            let images = vec![BlockImage::Bytes(block_for(lba))];
            now = s.submit_write(now, lba, images, false).1;
        }
        let (_, flushed) = s.submit_flush(now);
        s.advance(flushed);
        (s, flushed)
    }

    /// Rots three settled blocks, then cuts power halfway through a
    /// write of LBA 20, and scrubs.
    fn scripted_torn_and_rot(profile: SsdProfile) -> (u64, Vec<u64>) {
        let (mut s, now) = payload_ssd(profile);
        assert_eq!(s.rot_at_rest(3), 3);
        let images = vec![BlockImage::Bytes(block_for(20))];
        let (_, done) = s.submit_write(now, 20, images, false);
        let mid = SimTime::from_nanos(now.as_nanos() / 2 + done.as_nanos() / 2);
        assert_eq!(s.crash(mid), 1);
        s.scrub()
    }

    #[test]
    fn scripted_torn_and_rot_scrub_is_pinned() {
        // Literal results of the copying implementation this replaced:
        // the in-flight command tears on the PLP drive, the cache head
        // mid-drain on the volatile one.
        assert_eq!(
            scripted_torn_and_rot(SsdProfile::optane905p()),
            (17, vec![0, 8, 14, 20])
        );
        assert_eq!(
            scripted_torn_and_rot(SsdProfile::pm981()),
            (17, vec![0, 8, 14, 20])
        );
    }

    #[test]
    fn a_sealed_image_lands_exactly_as_its_bytes_would() {
        for profile in [SsdProfile::optane905p(), SsdProfile::pm981()] {
            for integrity in [false, true] {
                let run = |image: fn(u64) -> BlockImage| {
                    let mut s = ssd(profile.clone());
                    s.set_integrity(integrity);
                    // A one-block run and a two-block list.
                    let (_, a) = s.submit_write(SimTime::ZERO, 3, Images::Run(image(3), 1), false);
                    let (_, b) = s.submit_write(a, 8, vec![image(8), image(9)], false);
                    let (_, flushed) = s.submit_flush(b);
                    s.advance(flushed);
                    assert!(s.payload_verified());
                    let seals: Vec<_> = (0..12).map(|lba| s.media.seal(lba)).collect();
                    let reads: Vec<_> = (0..12).map(|lba| s.durable_read(lba)).collect();
                    (seals, reads, s.scrub())
                };
                let bytes = run(|seed| BlockImage::Bytes(block_for(seed)));
                let sealed = run(BlockImage::Payload);
                assert_eq!(bytes, sealed);
                let (scanned, corrupt) = sealed.2;
                assert_eq!((scanned, corrupt.len()), (3 * integrity as u64, 0));
            }
        }
    }

    /// Everything a reader can observe of a device on `lbas`: each
    /// block's image and seal, the scrub report, both end-state checks.
    type View = (Vec<(BlockImage, Option<u32>)>, (u64, Vec<u64>), bool, bool);

    fn view(s: &Ssd, lbas: u64) -> View {
        let blocks = (0..lbas).map(|lba| (s.durable_read(lba), s.media.seal(lba)));
        let verified = (s.payload_verified(), s.media_verified());
        (blocks.collect(), s.scrub(), verified.0, verified.1)
    }

    /// The lockstep check behind carrying generated blocks as seeds: a
    /// device handed `Payload(seed)` and one handed the bytes that seed
    /// spells run the same seeded write / flush / discard / crash /
    /// rot script, and after every step every read (compared by
    /// content), seal, scrub report, end-state check and tear agrees.
    #[test]
    fn payload_images_match_a_byte_carrying_device_under_seeded_scripts() {
        const SPAN: u64 = 12;
        let (mut writes, mut tears, mut rots) = (0, 0, 0);
        // Seeded writes that are one run, and how many of them (and of
        // the bytes device's writes) waited packed.
        let (mut runs, mut packed, mut packed_bytes) = (0, 0, 0);
        for (profile, script) in [SsdProfile::optane905p(), SsdProfile::pm981()]
            .iter()
            .flat_map(|p| (0..200u64).map(move |script| (p, script)))
        {
            let mut rng = SimRng::seed_from_u64(script);
            let mut devices = [0, 1].map(|_| Ssd::new(profile.clone(), script));
            devices.iter_mut().for_each(|s| s.set_integrity(true));
            let [seeds, bytes] = &mut devices;
            let mut now = SimTime::ZERO;
            for step in 0..24 {
                let at = format!("script {script} step {step}");
                let lba = rng.below(SPAN - 3);
                let (a, b) = match rng.below(12) {
                    0..=5 => {
                        // A list of one to three blocks, or one image
                        // repeated over a run.
                        let list: Vec<u64> = (0..rng.between(1, 3))
                            .map(|_| rng.below(u64::MAX))
                            .collect();
                        let fua = rng.chance(0.2);
                        let (seeded, byte): (Images, Images) = if rng.chance(0.25) {
                            let n = list.len() as u32;
                            let bytes = BlockImage::Bytes(block_for(list[0]));
                            (
                                Images::Run(BlockImage::Payload(list[0]), n),
                                Images::Run(bytes, n),
                            )
                        } else {
                            let bytes = list.iter().map(|&s| BlockImage::Bytes(block_for(s)));
                            let seeded = list.iter().copied().map(BlockImage::Payload);
                            (
                                seeded.collect::<Vec<_>>().into(),
                                bytes.collect::<Vec<_>>().into(),
                            )
                        };
                        writes += 1;
                        runs += matches!(seeded, Images::Run(..)) as u64;
                        let (a, b) = (
                            seeds.submit_write(now, lba, seeded, fua),
                            bytes.submit_write(now, lba, byte, fua),
                        );
                        packed += waits_packed(seeds, a.0) as u64;
                        packed_bytes += waits_packed(bytes, b.0) as u64;
                        (a, b)
                    }
                    6 => (seeds.submit_flush(now), bytes.submit_flush(now)),
                    7 => {
                        let count = rng.between(1, 3) as u32;
                        (
                            seeds.submit_discard(now, lba, count),
                            bytes.submit_discard(now, lba, count),
                        )
                    }
                    8 => {
                        seeds.advance(now);
                        bytes.advance(now);
                        ((0, now), (0, now))
                    }
                    9 => {
                        let torn = seeds.crash(now);
                        tears += torn;
                        ((torn, now), (bytes.crash(now), now))
                    }
                    10 => {
                        let flips = rng.between(1, 3) as u32;
                        let rotted = seeds.rot_at_rest(flips);
                        rots += rotted;
                        ((rotted, now), (bytes.rot_at_rest(flips), now))
                    }
                    _ => ((0, now), (0, now)),
                };
                assert_eq!(a, b, "{at}: op id, completion, tears or rot");
                assert!(
                    view(seeds, SPAN) == view(bytes, SPAN),
                    "{at}: the views part"
                );
                now += SimDuration::from_nanos(rng.between(1_000, 12_000));
            }
        }
        // The scripts are not vacuous: both kinds of fault fired often.
        assert!(
            writes > 4_000 && tears > 300 && rots > 500,
            "{writes} {tears} {rots}"
        );
        // Every seeded run took the packed path, and only seeds pack.
        assert!(runs > 2_000, "{runs}");
        assert_eq!((packed, packed_bytes), (runs, 0));
    }

    /// Whether write `id`, just accepted, waits packed: in the in-flight
    /// queue on the durable path, else at the back of the cache.
    fn waits_packed(s: &Ssd, id: u64) -> bool {
        let in_flight = s.pending.iter().find(|p| p.due.1 == id).map(|p| &p.op);
        let write = match in_flight {
            Some(PendingOp::DurableWrite(write)) => write,
            _ => &s.cache.back().expect("a cached write").write,
        };
        matches!(write, Landing::Packed(_))
    }

    /// A real-data write of one block, and the submitter's own copy of
    /// its bytes, kept while the command is in flight.
    fn held_write(seed: u64) -> (Vec<BlockImage>, BlockImage) {
        let img = BlockImage::Bytes(block_for(seed));
        (vec![img.clone()], img)
    }

    #[test]
    fn faults_never_reach_the_logical_view_through_the_shared_buffer() {
        for profile in [SsdProfile::optane905p(), SsdProfile::pm981()] {
            let (mut s, now) = payload_ssd(profile);
            let intended: Vec<BlockImage> = (0..16)
                .map(|lba| BlockImage::Bytes(block_for(lba)))
                .collect();
            // Reads taken before the rot stand in for the submitters'
            // buffers.
            let held: Vec<BlockImage> = (0..16).map(|lba| s.durable_read(lba)).collect();
            assert_eq!(s.rot_at_rest(16), 16);
            for lba in 0..16 {
                assert_ne!(s.durable_read(lba), intended[lba as usize], "rotted");
                assert_eq!(held[lba as usize], intended[lba as usize], "untouched");
            }
            // The submitter's buffer keeps the intended bytes after
            // the media copy of the command it rode in on tears.
            let (images, mine) = held_write(20);
            let (_, done) = s.submit_write(now, 20, images, false);
            let mid = SimTime::from_nanos(now.as_nanos() / 2 + done.as_nanos() / 2);
            assert_eq!(s.crash(mid), 1);
            assert_eq!(mine, BlockImage::Bytes(block_for(20)));
            assert_ne!(s.durable_read(20), mine, "torn on media");
        }
    }

    #[test]
    fn crash_and_later_overwrites_keep_the_two_views_apart() {
        let (mut s, now) = payload_ssd(SsdProfile::pm981());
        s.crash(now);
        // Exactly what was flushed survived.
        for lba in 0..16 {
            assert_eq!(s.durable_read(lba), BlockImage::Bytes(block_for(lba)));
            assert!(s.is_durable(lba));
        }
        // An unflushed overwrite shows in the submitter's buffer only;
        // media keeps the old image, whole.
        let old = s.durable_read(3);
        let (images, fresh) = held_write(99);
        let (_, done) = s.submit_write(now, 3, images, false);
        assert_eq!(fresh, BlockImage::Bytes(block_for(99)));
        assert_eq!(s.durable_read(3), old);
        assert_eq!(old, BlockImage::Bytes(block_for(3)));
        assert!(s.payload_verified() && s.media_verified());
        // A FLUSH lands the submitted bytes.
        let (_, flushed) = s.submit_flush(done);
        s.advance(flushed);
        assert_eq!(s.durable_read(3), fresh);
    }

    /// One submit / flush / advance / discard / crash / rot script;
    /// with `probe`, every step is followed by reads of media and a
    /// scrub. Returns everything observable at the end.
    fn observed_script(
        profile: SsdProfile,
        probe: bool,
    ) -> (Vec<BlockImage>, (u64, Vec<u64>), u64) {
        const SPAN: u64 = 64;
        let mut s = ssd(profile);
        s.set_integrity(true);
        let mut now = SimTime::ZERO;
        let mut torn = 0;
        for i in 0..60u64 {
            let lba = (i * 5) % (SPAN - 8);
            let done = match i % 3 {
                0 => s.submit_write(now, lba, Images::Run(BlockImage::Tag(i), 4), false),
                1 => {
                    let list: Vec<_> = (0..3)
                        .map(|j| BlockImage::Bytes(block_for(i * 8 + j)))
                        .collect();
                    s.submit_write(now, lba, list, i % 2 == 0)
                }
                _ => s.submit_write(now, lba, vec![BlockImage::Bytes(block_for(i))], false),
            }
            .1;
            if i % 7 == 6 {
                now = s.submit_flush(now).1;
            }
            if i % 5 == 4 {
                s.advance(now);
            }
            if i % 11 == 10 {
                // Cuts through cached runs as well as settled blocks.
                s.submit_discard(now, lba + 1, 2);
            }
            if i == 33 {
                torn += s.crash(SimTime::from_nanos(
                    now.as_nanos() / 2 + done.as_nanos() / 2,
                ));
            }
            if i == 50 {
                s.advance(now);
                s.rot_at_rest(3);
            }
            if probe {
                let at = (i * 13) % SPAN;
                let _ = (s.durable_read(at), s.is_durable(at));
                let _ = (s.scrub(), s.media_verified(), s.payload_verified());
            }
            now += SimDuration::from_nanos(3_000);
        }
        torn += s.crash(now);
        s.rot_at_rest(3);
        (
            (0..SPAN).map(|lba| s.durable_read(lba)).collect(),
            s.scrub(),
            torn,
        )
    }

    #[test]
    fn observation_never_changes_state() {
        for profile in [SsdProfile::optane905p(), SsdProfile::pm981()] {
            let quiet = observed_script(profile.clone(), false);
            let probed = observed_script(profile, true);
            assert_eq!(quiet, probed);
            let (media, (scanned, corrupt), torn) = quiet;
            // The script is not vacuous: data landed, tore and rotted.
            assert!(media.iter().filter(|img| **img != BlockImage::Zero).count() > 8);
            assert!(
                scanned > 8 && corrupt.len() >= 3 && torn >= 1,
                "{scanned} {corrupt:?} {torn}"
            );
        }
    }

    /// A power failure settles what was due and drops the rest; it
    /// looks at nothing that already landed. So the media journal may
    /// go through a crash unread, and reading it first changes nothing.
    #[test]
    fn a_crash_neither_reads_nor_copies_what_survived() {
        const SPAN: u64 = 96;
        let script = |profile: SsdProfile, integrity: bool, probe: bool| {
            let mut s = ssd(profile);
            s.set_integrity(integrity);
            let mut now = SimTime::ZERO;
            for i in 0..40u64 {
                let lba = (i * 7) % (SPAN - 4);
                let done = s
                    .submit_write(now, lba, Images::Run(BlockImage::Tag(i), 3), false)
                    .1;
                now = if i % 9 == 8 {
                    s.submit_flush(done).1
                } else {
                    done
                };
            }
            // Two commands still in flight when the power goes.
            s.submit_write(now, 1, Images::Run(BlockImage::Tag(98), 2), false);
            let (_, done) = s.submit_write(now, 95, vec![BlockImage::Bytes(block_for(7))], false);
            if probe {
                let _: Vec<_> = (0..SPAN).map(|lba| s.durable_read(lba)).collect();
                let _ = s.scrub();
            }
            let torn = s.crash(SimTime::from_nanos(
                now.as_nanos() / 2 + done.as_nanos() / 2,
            ));
            let media: Vec<_> = (0..SPAN).map(|lba| s.durable_read(lba)).collect();
            (media, s.scrub(), torn)
        };
        for profile in [SsdProfile::optane905p(), SsdProfile::pm981()] {
            for integrity in [false, true] {
                let unread = script(profile.clone(), integrity, false);
                assert_eq!(unread, script(profile.clone(), integrity, true));
                let (media, (scanned, _), torn) = unread;
                assert!(media.iter().filter(|img| **img != BlockImage::Zero).count() > 30);
                assert_ne!(
                    media[95],
                    BlockImage::Bytes(block_for(7)),
                    "in flight, so lost"
                );
                assert_eq!((scanned > 30, torn), (integrity, integrity as u64));
            }
        }
    }

    #[test]
    fn discard_cutting_through_a_cached_run_zeroes_only_its_overlap() {
        let mut s = ssd(SsdProfile::pm981());
        let (_, done) =
            s.submit_write(SimTime::ZERO, 10, Images::Run(BlockImage::Tag(7), 4), false);
        // Still in the volatile cache: the discard edits the entry.
        s.submit_discard(done, 11, 2);
        let (_, flushed) = s.submit_flush(done);
        s.crash(flushed);
        let landed: Vec<_> = (10..14).map(|lba| s.durable_read(lba)).collect();
        let (tag, zero) = (BlockImage::Tag(7), BlockImage::Zero);
        assert_eq!(landed, [tag.clone(), zero.clone(), zero, tag]);
    }

    /// The seal goes with the data it vouched for: a discarded block
    /// that later lands from the cache as zeroes is not a corruption.
    #[test]
    fn discard_of_a_cached_sealed_write_drops_its_seal() {
        let mut s = ssd(SsdProfile::pm981());
        s.set_integrity(true);
        let images = vec![BlockImage::Bytes(block_for(5))];
        let (_, done) = s.submit_write(SimTime::ZERO, 5, images, false);
        s.advance(done);
        s.submit_discard(done, 5, 1);
        let (_, flushed) = s.submit_flush(done);
        s.advance(flushed);
        assert_eq!(s.scrub(), (0, Vec::new()), "nobody injected a corruption");
    }

    /// The same with a payload run, which waits in the cache packed: the
    /// discard unpacks it, and the seal goes with the discarded block.
    #[test]
    fn discard_of_a_cached_payload_run_drops_its_seal() {
        let mut s = ssd(SsdProfile::pm981());
        s.set_integrity(true);
        let images = Images::Run(BlockImage::Payload(5), 3);
        let (_, done) = s.submit_write(SimTime::ZERO, 5, images, false);
        s.advance(done);
        assert!(matches!(s.cache[0].write, Landing::Packed(_)));
        s.submit_discard(done, 6, 1);
        let (_, flushed) = s.submit_flush(done);
        s.advance(flushed);
        assert_eq!(s.scrub(), (2, Vec::new()), "nobody injected a corruption");
        assert_eq!(
            (s.media.seal(5), s.media.seal(6)),
            (Some(seal_for(5)), None)
        );
        assert_eq!(s.durable_read(6), BlockImage::Zero);
    }

    #[test]
    fn a_write_larger_than_the_carry_cap_still_drains() {
        // 300 blocks is 1.2 MB, above the drain's 1 MB allowance.
        let mut p = SsdProfile::optane905p();
        p.max_transfer_blocks = 512;
        let mut s = ssd(p);
        let (_, done) = s.submit_write(
            SimTime::ZERO,
            0,
            Images::Run(BlockImage::Tag(1), 300),
            false,
        );
        assert_eq!(s.dirty_bytes(), 300 * BLOCK_SIZE);
        s.advance(done + SimDuration::from_secs(1));
        assert_eq!(s.dirty_bytes(), 0, "the cache head drained");
    }

    #[test]
    fn a_landing_is_three_words() {
        // A packed run, a list's vector or a PLP entry's block count:
        // the size of every cache entry and in-flight write hangs on it.
        assert_eq!(std::mem::size_of::<Landing>(), 24);
        assert_eq!(
            std::mem::size_of::<Pending>(),
            40,
            "a due key and a landing"
        );
    }

    #[test]
    fn a_cache_entry_is_five_words() {
        // One per cached write (a PLP drive's included): the landing and
        // two instants; the bytes it occupies follow from its blocks.
        assert_eq!(std::mem::size_of::<CacheEntry>(), 40);
    }

    #[test]
    fn pmr_survives_crash() {
        let mut s = ssd(SsdProfile::pm981());
        s.pmr_mut().mmio_write(0, &[1, 2, 3, 4]);
        s.crash(t(10));
        assert_eq!(s.pmr().mmio_read(0, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, w) = s.submit_write(SimTime::ZERO, 0, one_block(1), false);
        let (_, f) = s.submit_flush(w);
        s.advance(f + SimDuration::from_nanos(100_000));
        assert_eq!(s.stats().writes, 1);
        assert_eq!(s.stats().flushes, 1);
        assert_eq!(s.stats().blocks_written, 1);
    }

    #[test]
    fn iops_cap_enforced_by_cmd_units() {
        let p = SsdProfile::optane905p();
        let cap = p.iops_cap();
        let mut s = ssd(p);
        let n: u64 = 20_000;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let (_, done) = s.submit_write(SimTime::ZERO, i, one_block(i), false);
            last = last.max(done);
        }
        let achieved = n as f64 / last.as_secs_f64();
        assert!(
            achieved < cap * 1.1,
            "IOPS {achieved:.0} exceeds cap {cap:.0}"
        );
    }

    #[test]
    fn advance_never_rewinds_the_drain_clock() {
        // A small cache keeps the drain busy; the writes complete long
        // after the last submission, so `advance` steps back through
        // completion instants the drain clock has passed.
        let mut p = SsdProfile::optane905p();
        p.cache_bytes = 1024 * 1024;
        let mut s = ssd(p);
        let mut now = SimTime::ZERO;
        for i in 0..2_000u64 {
            now = t(i);
            s.submit_write(now, i * 4 % 4096, Images::Run(BlockImage::Tag(i), 4), false);
        }
        let dirty = s.dirty_bytes();
        assert!(dirty > 1024 * 1024, "the drain is behind: {dirty}");
        s.advance(now);
        assert_eq!(s.dirty_bytes(), dirty, "no interval is drained twice");
    }

    /// A write's first block and tags, or `None` for a FLUSH.
    type ModelOp = Option<(u64, Vec<u64>)>;

    /// What a PLP drive's media must hold: the writes settled so far,
    /// landed in `(completion, op id)` order — the last one to a block
    /// wins — with discards erasing what had landed before them.
    #[derive(Default)]
    struct LandingModel {
        /// Accepted and not yet settled, by `(completion, op id)`.
        pending: BTreeMap<(SimTime, u64), ModelOp>,
        /// Block → (version, tag).
        media: BTreeMap<u64, (u64, u64)>,
        version: u64,
        flushes: u64,
    }

    impl LandingModel {
        fn settle(&mut self, now: SimTime) {
            while let Some(next) = self.pending.first_entry() {
                if next.key().0 > now {
                    break;
                }
                match next.remove() {
                    Some((lba, tags)) => {
                        for (lba, tag) in (lba..).zip(tags) {
                            self.version += 1;
                            self.media.insert(lba, (self.version, tag));
                        }
                    }
                    None => self.flushes += 1,
                }
            }
        }
    }

    /// One seeded script of overlapping writes (runs and lists, some
    /// FUA), flushes, discards, advances and crashes, with submissions
    /// often at the same instant, each followed by a `retire` at its
    /// instant. After every submission a PLP drive must hold nothing
    /// due in `pending` and show the model's media and FLUSH count; a
    /// volatile drive must land nothing. Returns how many submissions
    /// left an operation pending past its completion.
    fn settlement_script(profile: SsdProfile, script: u64) -> u64 {
        const SPAN: u64 = 16;
        let plp = profile.plp;
        let mut rng = SimRng::seed_from_u64(script);
        let mut s = Ssd::new(profile, script);
        let mut model = LandingModel::default();
        let mut now = SimTime::ZERO;
        let mut overdue = 0;
        for step in 0..48 {
            let at = format!("script {script} step {step}");
            let before = s.pending.len();
            let lba = rng.below(SPAN - 3);
            let queued = match rng.below(16) {
                0..=8 => {
                    let blocks = rng.between(1, 3) as usize;
                    let (tags, images) = if rng.chance(0.5) {
                        let tag = rng.below(1 << 20);
                        let run = Images::Run(BlockImage::Tag(tag), blocks as u32);
                        (vec![tag; blocks], run)
                    } else {
                        let tags: Vec<u64> = (0..blocks).map(|_| rng.below(1 << 20)).collect();
                        let list: Vec<_> = tags.iter().map(|&t| BlockImage::Tag(t)).collect();
                        (tags, list.into())
                    };
                    let fua = rng.chance(0.2);
                    let (id, done) = s.submit_write(now, lba, images, fua);
                    model.pending.insert((done, id), Some((lba, tags)));
                    plp || fua
                }
                9..=11 => {
                    let (id, done) = s.submit_flush(now);
                    model.pending.insert((done, id), None);
                    true
                }
                12 => {
                    let count = rng.between(1, 4);
                    s.submit_discard(now, lba, count as u32);
                    for lba in lba..lba + count {
                        model.media.remove(&lba);
                    }
                    false
                }
                13 => {
                    s.advance(now);
                    model.settle(now);
                    continue;
                }
                14 => {
                    s.crash(now);
                    model.settle(now);
                    model.pending.clear();
                    continue;
                }
                _ => {
                    now += SimDuration::from_nanos(rng.between(1_000, 20_000));
                    continue;
                }
            };
            s.retire(now);
            model.settle(now);
            overdue += s.pending.iter().any(|p| p.due.0 <= now) as u64;
            if plp {
                assert!(
                    s.pending.iter().all(|p| p.due.0 > now),
                    "{at}: due op pending"
                );
                let mut keys: Vec<_> = s.pending.iter().map(|p| p.due).collect();
                keys.sort_unstable();
                assert!(keys.iter().eq(model.pending.keys()), "{at}: in flight");
                for lba in 0..SPAN {
                    let (version, image) = model
                        .media
                        .get(&lba)
                        .map_or((0, BlockImage::Zero), |&(v, tag)| (v, BlockImage::Tag(tag)));
                    assert_eq!(s.durable_read(lba), image, "{at}: image of {lba}");
                    assert_eq!(s.media.version(lba), version, "{at}: version of {lba}");
                }
                assert_eq!(s.stats().flushes, model.flushes, "{at}: flushes");
            } else {
                let grown = s.pending.len() - before;
                assert_eq!(grown, queued as usize, "{at}: nothing retired");
            }
            // Bursts at one instant as often as spread-out arrivals.
            if rng.chance(0.5) {
                now += SimDuration::from_nanos(rng.between(0, 6_000));
            }
        }
        overdue
    }

    #[test]
    fn a_plp_device_settles_each_write_as_it_completes() {
        let plp: u64 = (0..200)
            .map(|script| settlement_script(SsdProfile::optane905p(), script))
            .sum();
        assert_eq!(plp, 0);
        // The volatile path is unchanged: FLUSHes and FUA writes wait
        // for `advance`, well past their completion.
        let volatile: u64 = (0..200)
            .map(|script| settlement_script(SsdProfile::pm981(), script))
            .sum();
        assert!(volatile > 500, "{volatile}");
    }

    /// A later submission does not move the floor: a write completing
    /// between the clock and that submission is still in flight for a
    /// crash at the clock.
    #[test]
    fn retire_lands_nothing_past_its_floor() {
        let mut s = ssd(SsdProfile::optane905p());
        let (_, done) = s.submit_write(SimTime::ZERO, 5, one_block(9), false);
        // A core submits far ahead of the clock, which reads 1 µs.
        s.submit_write(t(50), 6, one_block(1), false);
        assert!(done < t(50));
        s.retire(t(1));
        assert_eq!(s.pending.len(), 2);
        s.crash(t(5));
        assert!(!s.is_durable(5), "in flight at the crash");
    }

    /// `retire` lands only what the drain clock has passed. Past it,
    /// `advance` still owes the drain one step per completion: a single
    /// step would hold the drain to its 1 MB allowance.
    #[test]
    fn retire_leaves_the_drain_steps_to_advance() {
        let mut p = SsdProfile::optane905p();
        p.cache_bytes = 1024 * 1024;
        let [mut lazy, mut eager] = [0, 1].map(|_| ssd(p.clone()));
        let mut last = SimTime::ZERO;
        for i in 0..600u64 {
            let images = Images::Run(BlockImage::Tag(i), 4);
            lazy.submit_write(SimTime::from_nanos(i), i * 4, images.clone(), false);
            last = eager
                .submit_write(SimTime::from_nanos(i), i * 4, images, false)
                .1;
        }
        eager.retire(last);
        lazy.advance(last);
        eager.advance(last);
        assert_eq!(lazy.dirty_bytes(), eager.dirty_bytes());
        assert!(lazy.dirty_bytes() < 1024 * 1024, "the drain kept up");
    }

    /// Why [`Ssd::retire`] is exact under its promise: two PLP devices
    /// run one seeded script and only one retires, at the clock, after
    /// every step. Submissions land ahead of a monotone clock and out
    /// of order with each other, as target cores make them; advances,
    /// quiesces (each followed by a discard, as in a recovery) and
    /// crashes come at the clock; a small cache keeps the drain and
    /// overflow delay busy. Every returned instant, tear and dirty-byte
    /// count agrees, and whenever the lazy device settles, so do both
    /// media and FLUSH counts.
    #[test]
    fn retiring_at_the_clock_changes_nothing_advance_sees() {
        const SPAN: u64 = 16;
        let mut small = SsdProfile::optane905p();
        small.cache_bytes = 64 * 1024;
        let (mut retired, mut tears) = (0, 0);
        for (profile, script) in [SsdProfile::optane905p(), small]
            .iter()
            .flat_map(|p| (0..100u64).map(move |script| (p, script)))
        {
            let mut rng = SimRng::seed_from_u64(script);
            let [mut lazy, mut eager] = [0, 1].map(|_| Ssd::new(profile.clone(), script));
            lazy.set_integrity(true);
            eager.set_integrity(true);
            let mut clock = SimTime::ZERO;
            for step in 0..64 {
                let at = format!("{} script {script} step {step}", profile.cache_bytes);
                let ahead = clock + SimDuration::from_nanos(rng.below(30_000));
                let lba = rng.below(SPAN - 3);
                let settled = match rng.below(12) {
                    0..=6 => {
                        let seed = BlockImage::Payload(rng.below(u64::MAX));
                        let images = Images::Run(seed, rng.between(1, 3) as u32);
                        let fua = rng.chance(0.2);
                        let a = lazy.submit_write(ahead, lba, images.clone(), fua);
                        assert_eq!(a, eager.submit_write(ahead, lba, images, fua), "{at}");
                        false
                    }
                    7 => {
                        assert_eq!(lazy.submit_flush(ahead), eager.submit_flush(ahead), "{at}");
                        false
                    }
                    8 => {
                        lazy.advance(clock);
                        eager.advance(clock);
                        true
                    }
                    9 => {
                        assert_eq!(lazy.quiesce(clock), eager.quiesce(clock), "{at}");
                        let count = rng.between(1, 4) as u32;
                        let a = lazy.submit_discard(clock, lba, count);
                        assert_eq!(a, eager.submit_discard(clock, lba, count), "{at}");
                        true
                    }
                    10 => {
                        let torn = lazy.crash(clock);
                        assert_eq!(torn, eager.crash(clock), "{at}: tears");
                        tears += torn;
                        true
                    }
                    _ => false,
                };
                assert_eq!(lazy.dirty_bytes(), eager.dirty_bytes(), "{at}: drain");
                if settled {
                    let versions = |s: &Ssd| {
                        (0..SPAN)
                            .map(|lba| s.media.version(lba))
                            .collect::<Vec<_>>()
                    };
                    assert!(view(&lazy, SPAN) == view(&eager, SPAN), "{at}: media");
                    assert_eq!(versions(&lazy), versions(&eager), "{at}: versions");
                    assert_eq!(lazy.stats().flushes, eager.stats().flushes, "{at}");
                }
                clock += SimDuration::from_nanos(rng.below(6_000));
                let before = eager.pending.len();
                eager.retire(clock);
                retired += before - eager.pending.len();
            }
        }
        // Not vacuous: operations retired early, and crashes tore.
        assert!(retired > 1_000 && tears > 300, "{retired} {tears}");
    }
}
