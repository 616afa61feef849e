//! Block-level workload generators for the paper's microbenchmarks.
//!
//! Each thread owns a private area of the logical volume (the paper's
//! "private SSD area", §3.1) and emits a deterministic script of
//! *ordered groups*; consecutive groups are ordered. RIO orders groups
//! of writes that may reorder among themselves (§4.6), but every
//! pattern here emits groups of one write, so a cluster group is one
//! range and every engine submits it as one write.

use std::collections::VecDeque;

use rio_order::attr::BlockRange;
use rio_sim::SimRng;

/// Journaling stage of a group within an fsync operation (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncStage {
    /// User data blocks.
    Data,
    /// Journal description + journaled metadata.
    Meta,
    /// Journal commit record.
    Commit,
}

/// One ordered group emitted by a thread: one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpec {
    /// Logical range the group writes on the volume.
    pub range: BlockRange,
    /// Whether the write carries a FLUSH (fsync-style commit).
    pub flush: bool,
    /// The thread blocks after this group until all its in-flight
    /// groups complete (the `rio_wait` / fsync return point).
    pub sync_after: bool,
    /// Journaling stage, when this group belongs to an fsync op.
    pub stage: Option<FsyncStage>,
    /// Application CPU burned before submitting this group (RocksDB's
    /// in-memory indexing, §6.4).
    pub app_cpu_ns: u64,
}

impl GroupSpec {
    /// A plain single-write group.
    pub fn plain(range: BlockRange) -> Self {
        GroupSpec {
            range,
            flush: false,
            sync_after: false,
            stage: None,
            app_cpu_ns: 0,
        }
    }
}

/// Access pattern of the per-thread group script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Each group is one random write of `blocks` (Fig. 10/11 random).
    RandomWrite {
        /// Blocks per write.
        blocks: u32,
    },
    /// Each group is one sequential write of `blocks` (Fig. 3/11/12).
    SeqWrite {
        /// Blocks per write.
        blocks: u32,
    },
    /// The §3.1 journal pattern: a 2-block group (description +
    /// metadata) followed by a 1-block group (commit record),
    /// sequentially laid out.
    JournalTriplet,
    /// File-system fsync operations (Figs. 13–15): each op is three
    /// ordered groups — D (user data), JM (journal metadata), JC
    /// (commit, FLUSH) — followed by a blocking wait.
    FsyncJournal {
        /// Data blocks per op, chosen uniformly in this range (0 allows
        /// metadata-only ops like `creat`+fsync).
        data_blocks: (u32, u32),
        /// Journaled metadata blocks per op.
        meta_blocks: u32,
        /// Per-mille of ops that are metadata-only (Varmail's
        /// create/unlink mix).
        meta_only_permille: u32,
        /// Application CPU per op in nanoseconds (RocksDB-style).
        app_cpu_ns: u64,
    },
}

/// A block-level workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Concurrent submitter threads (each with its own stream).
    pub threads: usize,
    /// Ordered groups each thread issues.
    pub groups_per_thread: u64,
    /// Access pattern.
    pub pattern: Pattern,
    /// Groups accumulated per plug/ORDER-queue flush (the batch size
    /// axis of Figs. 3 and 12; 1 disables batching effects).
    pub batch: usize,
}

impl Workload {
    /// A Fig. 10-style workload: 4 KB random ordered writes.
    pub fn random_4k(threads: usize, groups_per_thread: u64) -> Self {
        Workload {
            threads,
            groups_per_thread,
            pattern: Pattern::RandomWrite { blocks: 1 },
            batch: 1,
        }
    }

    /// The §3.1 motivation workload (journal triplets).
    pub fn journal_triplet(threads: usize, triplets_per_thread: u64) -> Self {
        Workload {
            threads,
            groups_per_thread: triplets_per_thread * 2,
            pattern: Pattern::JournalTriplet,
            batch: 2,
        }
    }

    /// Sequential writes with a batch size (Figs. 3 and 12).
    pub fn seq_batched(threads: usize, groups_per_thread: u64, batch: usize, blocks: u32) -> Self {
        Workload {
            threads,
            groups_per_thread,
            pattern: Pattern::SeqWrite { blocks },
            batch,
        }
    }

    /// A Fig. 13-style file-system workload: 4 KB append + fsync.
    pub fn fsync_append(threads: usize, ops_per_thread: u64) -> Self {
        Workload {
            threads,
            groups_per_thread: ops_per_thread,
            pattern: Pattern::FsyncJournal {
                data_blocks: (1, 1),
                meta_blocks: 2,
                meta_only_permille: 0,
                app_cpu_ns: 0,
            },
            batch: 3,
        }
    }

    /// The groups [`Workload::op_into`] generates, as a fresh list.
    #[cfg(test)]
    pub fn op(
        &self,
        idx: u64,
        area_start: u64,
        area_blocks: u64,
        rng: &mut SimRng,
    ) -> Vec<GroupSpec> {
        let mut out = VecDeque::new();
        self.op_into(idx, area_start, area_blocks, rng, &mut out);
        out.into()
    }

    /// Appends to `out` the ordered groups of script unit `idx` for a
    /// thread owning `[area_start, area_start + area_blocks)`.
    ///
    /// Plain patterns yield one group per unit; [`Pattern::FsyncJournal`]
    /// yields the D/JM/JC stages of one fsync operation. Sequential
    /// patterns wrap within the private area; random patterns draw from
    /// `rng`.
    pub fn op_into(
        &self,
        idx: u64,
        area_start: u64,
        area_blocks: u64,
        rng: &mut SimRng,
        out: &mut VecDeque<GroupSpec>,
    ) {
        let mut plain = |lba, blocks| out.push_back(GroupSpec::plain(BlockRange::new(lba, blocks)));
        match self.pattern {
            Pattern::RandomWrite { blocks } => {
                let slots = (area_blocks / blocks as u64).max(1);
                let slot = rng.below(slots);
                plain(area_start + slot * blocks as u64, blocks);
            }
            Pattern::SeqWrite { blocks } => {
                let slots = (area_blocks / blocks as u64).max(1);
                let slot = idx % slots;
                plain(area_start + slot * blocks as u64, blocks);
            }
            Pattern::JournalTriplet => {
                // Triplet t occupies 3 consecutive blocks; units 2t
                // (2 blocks) and 2t+1 (1 block).
                let triplet = idx / 2;
                let slots = (area_blocks / 3).max(1);
                let base = area_start + (triplet % slots) * 3;
                if idx.is_multiple_of(2) {
                    plain(base, 2);
                } else {
                    plain(base + 2, 1);
                }
            }
            Pattern::FsyncJournal {
                data_blocks,
                meta_blocks,
                meta_only_permille,
                app_cpu_ns,
            } => {
                // Private area: first half file data, second half the
                // per-core journal (iJournaling, §4.7).
                let data_cap = (area_blocks / 2).max(1);
                let journal_start = area_start + data_cap;
                let journal_cap = (area_blocks - data_cap).max(1);
                let meta_only =
                    meta_only_permille > 0 && rng.below(1000) < meta_only_permille as u64;
                let d_blocks = if meta_only {
                    0
                } else {
                    rng.between(data_blocks.0 as u64, data_blocks.1 as u64) as u32
                };
                let tx_blocks = (meta_blocks + 1) as u64;
                let journal_slots = (journal_cap / tx_blocks).max(1);
                let jm_lba = journal_start + (idx % journal_slots) * tx_blocks;
                if d_blocks > 0 {
                    let data_slots = (data_cap / d_blocks as u64).max(1);
                    let d_lba = area_start + (idx % data_slots) * d_blocks as u64;
                    out.push_back(GroupSpec {
                        range: BlockRange::new(d_lba, d_blocks),
                        flush: false,
                        sync_after: false,
                        stage: Some(FsyncStage::Data),
                        app_cpu_ns,
                    });
                }
                out.push_back(GroupSpec {
                    range: BlockRange::new(jm_lba, meta_blocks),
                    flush: false,
                    sync_after: false,
                    stage: Some(FsyncStage::Meta),
                    app_cpu_ns: if d_blocks == 0 { app_cpu_ns } else { 0 },
                });
                out.push_back(GroupSpec {
                    range: BlockRange::new(jm_lba + meta_blocks as u64, 1),
                    flush: true,
                    sync_after: true,
                    stage: Some(FsyncStage::Commit),
                    app_cpu_ns: 0,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_stays_in_private_area() {
        let w = Workload::random_4k(2, 100);
        let mut rng = SimRng::seed_from_u64(1);
        for idx in 0..100 {
            let gs = w.op(idx, 1000, 500, &mut rng);
            assert_eq!(gs.len(), 1);
            let r = gs[0].range;
            assert!(
                r.lba >= 1000 && r.end() <= 1500,
                "escaped private area: {r:?}"
            );
        }
    }

    #[test]
    fn seq_wraps_in_area() {
        let w = Workload::seq_batched(1, 10, 4, 2);
        let mut rng = SimRng::seed_from_u64(1);
        let g0 = w.op(0, 0, 8, &mut rng);
        let g1 = w.op(1, 0, 8, &mut rng);
        assert_eq!(g0[0].range, BlockRange::new(0, 2));
        assert_eq!(g1[0].range, BlockRange::new(2, 2));
        // 4 slots of 2 blocks wrap at idx 4.
        let g4 = w.op(4, 0, 8, &mut rng);
        assert_eq!(g4[0].range, BlockRange::new(0, 2));
    }

    #[test]
    fn journal_triplet_layout() {
        let w = Workload::journal_triplet(1, 5);
        assert_eq!(w.groups_per_thread, 10);
        let mut rng = SimRng::seed_from_u64(1);
        let body = w.op(0, 100, 300, &mut rng);
        let commit = w.op(1, 100, 300, &mut rng);
        assert_eq!(body[0].range, BlockRange::new(100, 2));
        assert_eq!(commit[0].range, BlockRange::new(102, 1));
        // The pair is LBA-consecutive: the merge candidate of §4.1.
        assert!(body[0].range.abuts(&commit[0].range));
        // Next triplet moves on.
        let body2 = w.op(2, 100, 300, &mut rng);
        assert_eq!(body2[0].range, BlockRange::new(103, 2));
    }

    #[test]
    fn fsync_journal_op_shape() {
        let w = Workload::fsync_append(1, 10);
        let mut rng = SimRng::seed_from_u64(1);
        let groups = w.op(0, 0, 1000, &mut rng);
        assert_eq!(groups.len(), 3, "D, JM, JC");
        assert_eq!(groups[0].stage, Some(FsyncStage::Data));
        assert_eq!(groups[1].stage, Some(FsyncStage::Meta));
        assert_eq!(groups[2].stage, Some(FsyncStage::Commit));
        assert!(groups[2].flush, "commit carries the FLUSH");
        assert!(groups[2].sync_after, "fsync blocks after the commit");
        assert_eq!(groups[1].range.blocks, 2);
        // JM and JC are consecutive in the journal area.
        assert!(groups[1].range.abuts(&groups[2].range));
    }

    #[test]
    fn fsync_meta_only_ops_skip_data() {
        let w = Workload {
            threads: 1,
            groups_per_thread: 10,
            pattern: Pattern::FsyncJournal {
                data_blocks: (1, 4),
                meta_blocks: 2,
                meta_only_permille: 1000,
                app_cpu_ns: 0,
            },
            batch: 3,
        };
        let mut rng = SimRng::seed_from_u64(1);
        let groups = w.op(0, 0, 1000, &mut rng);
        assert_eq!(groups.len(), 2, "metadata-only op has no D stage");
        assert_eq!(groups[0].stage, Some(FsyncStage::Meta));
    }

    #[test]
    fn op_into_appends_what_op_returns() {
        let workloads = [
            Workload::random_4k(1, 10),
            Workload::seq_batched(1, 10, 4, 2),
            Workload::journal_triplet(1, 5),
            Workload::fsync_append(1, 10),
        ];
        for w in workloads {
            let (mut a, mut b) = (SimRng::seed_from_u64(7), SimRng::seed_from_u64(7));
            let mut queue = VecDeque::from([GroupSpec::plain(BlockRange::new(0, 1))]);
            let mut listed = vec![queue[0]];
            for idx in 0..10 {
                w.op_into(idx, 64, 4096, &mut a, &mut queue);
                listed.extend(w.op(idx, 64, 4096, &mut b));
            }
            assert_eq!(Vec::from(queue), listed, "{:?}", w.pattern);
        }
    }

    #[test]
    fn totals() {
        // Script units across all threads: a triplet is two units, an
        // fsync op one.
        let total = |w: Workload| w.threads as u64 * w.groups_per_thread;
        assert_eq!(total(Workload::random_4k(12, 1000)), 12_000);
        assert_eq!(total(Workload::journal_triplet(3, 5)), 30);
        assert_eq!(total(Workload::fsync_append(4, 25)), 100);
    }
}
