//! Plug-based batching (`blk_start_plug` / `blk_finish_plug`).
//!
//! The motivation experiment of Fig. 3 controls "the number of 4 KB
//! data blocks that can be potentially merged" exactly through this
//! mechanism: bios accumulate in a per-thread plug and adjacent ones
//! merge when the plug is flushed. This module implements the
//! *orderless* merge (plain LBA adjacency); ordered merging with its
//! stricter whole-group rules lives in `rio_order::scheduler`.

use rio_order::attr::BlockRange;

use crate::bio::Bio;

/// A merged run of bios dispatched as one request.
#[derive(Debug, Clone)]
pub struct MergedRun {
    /// Covering range.
    pub range: BlockRange,
    /// The constituent bios in submission order.
    pub bios: Vec<Bio>,
}

/// A per-thread plug list. A merged run is a stretch of *consecutive*
/// plugged bios, so a flushed plug lends slices of its own list; kept
/// and cleared by its owner, it allocates nothing per batch.
#[derive(Debug, Default)]
pub struct Plug {
    bios: Vec<Bio>,
    /// Per run of the last flush, in order: its covering range and how
    /// many of `bios` it holds.
    spans: Vec<(BlockRange, usize)>,
}

impl Plug {
    /// Starts an empty plug.
    pub fn new() -> Self {
        Plug::default()
    }

    /// Number of plugged bios.
    pub fn len(&self) -> usize {
        self.bios.len()
    }

    /// Whether the plug is empty.
    pub fn is_empty(&self) -> bool {
        self.bios.is_empty()
    }

    /// Adds a bio to the plug.
    pub fn add(&mut self, bio: Bio) {
        self.bios.push(bio);
    }

    /// Unplugs everything, keeping the buffers for the next batch.
    pub fn clear(&mut self) {
        self.bios.clear();
    }

    /// Flushes the plug, merging adjacent orderless writes up to
    /// `max_blocks` per merged request (`blk_finish_plug`), and lends
    /// each run as its covering range and constituent bios, in
    /// submission order. The bios stay plugged until [`Self::clear`].
    ///
    /// Ordered bios and reads pass through unmerged — they take the
    /// ORDER-queue path instead.
    pub fn merged_runs(&mut self, max_blocks: u32) -> impl Iterator<Item = (BlockRange, &[Bio])> {
        self.spans.clear();
        // Whether the previous bio left its run open to growth.
        let mut open = false;
        for bio in &self.bios {
            let mergeable = bio.flags.write && !bio.is_ordered() && !bio.flags.flush;
            match self.spans.last_mut() {
                Some((range, len))
                    if open
                        && mergeable
                        && range.abuts(&bio.range)
                        && range.blocks + bio.range.blocks <= max_blocks =>
                {
                    *range = range.join(&bio.range);
                    *len += 1;
                }
                _ => self.spans.push((bio.range, 1)),
            }
            open = mergeable;
        }
        let mut rest = self.bios.as_slice();
        self.spans.iter().map(move |&(range, len)| {
            let (bios, tail) = rest.split_at(len);
            rest = tail;
            (range, bios)
        })
    }

    /// [`Self::merged_runs`] with every run's bios copied out, leaving
    /// the plug empty.
    pub fn finish(&mut self, max_blocks: u32) -> Vec<MergedRun> {
        let runs = self
            .merged_runs(max_blocks)
            .map(|(range, bios)| MergedRun {
                range,
                bios: bios.to_vec(),
            })
            .collect();
        self.clear();
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rio_order::attr::{OrderingAttr, Seq, StreamId};
    use rio_sim::SimRng;

    fn w(id: u64, lba: u64, blocks: u32) -> Bio {
        Bio::write(id, BlockRange::new(lba, blocks), id)
    }

    /// `finish` as it stood before spans: every run owns a vector of
    /// its bios. Kept as the oracle [`Plug::merged_runs`] is checked
    /// against.
    fn oracle_finish(bios: &[Bio], max_blocks: u32) -> Vec<MergedRun> {
        let mergeable = |b: &Bio| b.flags.write && !b.is_ordered() && !b.flags.flush;
        let mut out: Vec<MergedRun> = Vec::new();
        for bio in bios {
            if let Some(last) = out.last_mut().filter(|_| mergeable(bio)) {
                if last.bios.last().is_some_and(mergeable)
                    && last.range.abuts(&bio.range)
                    && last.range.blocks + bio.range.blocks <= max_blocks
                {
                    last.range = last.range.join(&bio.range);
                    last.bios.push(bio.clone());
                    continue;
                }
            }
            out.push(MergedRun {
                range: bio.range,
                bios: vec![bio.clone()],
            });
        }
        out
    }

    /// 200 seeded plugs — abutting and non-abutting writes of 1–3
    /// blocks, FLUSH bios, ordered bios and reads in between, caps 1, 4
    /// and 32 — through one reused plug: the lent runs, and the copying
    /// `finish`, equal the oracle run for run.
    #[test]
    fn merged_runs_match_the_oracle_on_seeded_plugs() {
        let shape = |range: BlockRange, bios: &[Bio]| (range, bios.iter().map(|b| b.id.0).collect::<Vec<_>>());
        let mut plug = Plug::new();
        let mut merged = 0;
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let max_blocks = [1, 4, 32][(seed % 3) as usize];
            let mut lba = 0u64;
            for id in 0..rng.between(1, 24) {
                if rng.chance(0.25) {
                    lba += rng.between(1, 5);
                }
                let range = BlockRange::new(lba, rng.between(1, 3) as u32);
                lba = range.end();
                let mut bio = if rng.chance(0.1) {
                    Bio::ordered_write(id, OrderingAttr::single(StreamId(0), Seq(1), range), id)
                } else {
                    w(id, range.lba, range.blocks)
                };
                bio.flags.flush |= rng.chance(0.12);
                bio.flags.write &= rng.chance(0.92);
                plug.add(bio);
            }
            let want: Vec<_> = oracle_finish(&plug.bios, max_blocks)
                .iter()
                .map(|r| shape(r.range, &r.bios))
                .collect();
            let got: Vec<_> = plug.merged_runs(max_blocks).map(|(r, b)| shape(r, b)).collect();
            assert_eq!(got, want, "seed {seed}");
            let copied: Vec<_> = plug.finish(max_blocks).iter().map(|r| shape(r.range, &r.bios)).collect();
            assert_eq!(copied, want, "seed {seed}: the copying wrapper");
            assert!(plug.is_empty(), "seed {seed}");
            merged += want.iter().filter(|r| r.1.len() > 1).count();
        }
        assert!(merged > 200, "the plugs must exercise merging: {merged}");
    }

    #[test]
    fn adjacent_writes_merge() {
        let mut p = Plug::new();
        for i in 0..4 {
            p.add(w(i, i * 2, 2));
        }
        let runs = p.finish(32);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].range, BlockRange::new(0, 8));
        assert_eq!(runs[0].bios.len(), 4);
    }

    #[test]
    fn gap_breaks_merge() {
        let mut p = Plug::new();
        p.add(w(0, 0, 2));
        p.add(w(1, 10, 2));
        let runs = p.finish(32);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn cap_breaks_merge() {
        let mut p = Plug::new();
        for i in 0..4 {
            p.add(w(i, i * 2, 2));
        }
        let runs = p.finish(4);
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.range.blocks == 4));
    }

    #[test]
    fn ordered_bios_pass_through() {
        let mut p = Plug::new();
        p.add(w(0, 0, 2));
        let attr = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(2, 2));
        p.add(Bio::ordered_write(1, attr, 0));
        p.add(w(2, 4, 2));
        let runs = p.finish(32);
        assert_eq!(runs.len(), 3, "ordered bio must not merge here");
    }

    #[test]
    fn flush_bios_pass_through() {
        let mut p = Plug::new();
        p.add(w(0, 0, 2));
        let mut f = w(1, 2, 2);
        f.flags.flush = true;
        p.add(f);
        p.add(w(2, 4, 2));
        let runs = p.finish(32);
        assert_eq!(runs.len(), 3, "a FLUSH barrier never merges");
    }

    #[test]
    fn finish_empties_plug() {
        let mut p = Plug::new();
        p.add(w(0, 0, 1));
        assert_eq!(p.len(), 1);
        let _ = p.finish(32);
        assert!(p.is_empty());
    }

    proptest! {
        /// Merging preserves the exact multiset of bios and covers the
        /// same blocks.
        #[test]
        fn prop_merge_preserves_bios(
            starts in proptest::collection::vec(0u64..100, 1..30),
        ) {
            let mut p = Plug::new();
            let mut ids = Vec::new();
            for (i, &s) in starts.iter().enumerate() {
                p.add(w(i as u64, s * 64, 2)); // Disjoint 2-block writes.
                ids.push(i as u64);
            }
            let runs = p.finish(32);
            let mut got: Vec<u64> = runs.iter().flat_map(|r| r.bios.iter().map(|b| b.id.0)).collect();
            got.sort_unstable();
            let mut want = ids;
            want.sort_unstable();
            prop_assert_eq!(got, want);
            for r in &runs {
                let sum: u32 = r.bios.iter().map(|b| b.range.blocks).sum();
                prop_assert_eq!(sum, r.range.blocks);
            }
        }
    }
}
