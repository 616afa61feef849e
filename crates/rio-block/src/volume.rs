//! Striped logical volumes over remote SSDs.
//!
//! The paper's multi-device experiments organize SSDs "as a single
//! logical volume and ... distribute 4 KB data blocks to individual
//! physical SSDs in a round-robin fashion" (§6.2.1). With a stripe unit
//! of `stripe` blocks, logical block `L` maps to:
//!
//! ```text
//! chunk  = L / stripe
//! device = chunk % n_devices
//! plba   = (chunk / n_devices) * stripe + L % stripe
//! ```
//!
//! [`StripedVolume::map`] turns a logical range into per-device
//! physically-contiguous extents — the split points Rio tags with
//! `split_idx` (Fig. 8b).

use rio_order::attr::{BlockRange, ServerId};

/// A physically contiguous piece of a logical range on one device.
///
/// With fine-grained striping the logical blocks inside one extent may
/// interleave with other legs' blocks — the transport gathers them with
/// a scatter list, exactly as dm-stripe + NVMe PRP lists do. What makes
/// an extent one I/O is *physical* contiguity on its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Target server owning the device.
    pub server: ServerId,
    /// Device index within the server.
    pub ssd: usize,
    /// Physical range on that device.
    pub range: BlockRange,
    /// Offset of this extent's first block within the logical request
    /// (fragment payload slicing).
    pub logical_offset: u64,
}

/// A round-robin striped volume.
#[derive(Debug, Clone)]
pub struct StripedVolume {
    /// (server, ssd) per stripe leg, in round-robin order.
    legs: Vec<(ServerId, usize)>,
    stripe: u64,
    capacity_blocks: u64,
}

impl StripedVolume {
    /// Creates a volume striping over `legs` in chunks of `stripe`
    /// blocks; each leg contributes `per_leg_blocks` of capacity.
    ///
    /// # Panics
    ///
    /// Panics on empty legs or a zero stripe size.
    pub fn new(legs: Vec<(ServerId, usize)>, stripe: u32, per_leg_blocks: u64) -> Self {
        assert!(!legs.is_empty(), "volume needs at least one device");
        assert!(stripe > 0, "stripe unit must be positive");
        let capacity_blocks = per_leg_blocks * legs.len() as u64;
        StripedVolume {
            legs,
            stripe: stripe as u64,
            capacity_blocks,
        }
    }

    /// A single-device "volume" (the 1-SSD configurations).
    #[cfg(test)]
    pub fn single(server: ServerId, ssd: usize, capacity_blocks: u64) -> Self {
        StripedVolume::new(vec![(server, ssd)], 1, capacity_blocks)
    }

    /// Total capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// The legs (server, ssd) in round-robin order.
    pub fn legs(&self) -> &[(ServerId, usize)] {
        &self.legs
    }

    /// Maps one logical block.
    pub fn map_block(&self, lba: u64) -> (ServerId, usize, u64) {
        let chunk = lba / self.stripe;
        let leg = (chunk % self.legs.len() as u64) as usize;
        let plba = (chunk / self.legs.len() as u64) * self.stripe + lba % self.stripe;
        let (server, ssd) = self.legs[leg];
        (server, ssd, plba)
    }

    /// Inverse of [`Self::map_block`]: the logical block that stripe
    /// leg `leg` stores at physical address `plba`. Recovery scrubbing
    /// uses this to attribute a corrupt media block back to the
    /// workload group that wrote it.
    ///
    /// # Panics
    ///
    /// Panics if `leg` is out of range.
    pub fn logical_of(&self, leg: usize, plba: u64) -> u64 {
        assert!(leg < self.legs.len(), "leg out of range");
        let chunk_in_leg = plba / self.stripe;
        let chunk = chunk_in_leg * self.legs.len() as u64 + leg as u64;
        chunk * self.stripe + plba % self.stripe
    }

    /// Maps a logical range into per-device physically contiguous
    /// extents, ordered by first logical block.
    ///
    /// Blocks of one extent may interleave logically with other legs'
    /// blocks (fine-grained striping): each extent is a maximal
    /// physically contiguous run on one device, dispatched as a single
    /// scatter-gather I/O.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the volume capacity.
    pub fn map(&self, range: BlockRange) -> Vec<Extent> {
        let mut extents = Vec::new();
        self.map_into(range, &mut extents);
        extents
    }

    /// Allocation-free form of [`Self::map`]: appends the extents to
    /// `extents` (which is *not* cleared), a stripe chunk at a time.
    /// Chunks `n_legs` apart sit back to back on their device, so each
    /// leg a range touches carries exactly one extent, opened by the
    /// range's first chunk on it; a one-leg volume is the identity.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the volume capacity.
    pub fn map_into(&self, range: BlockRange, extents: &mut Vec<Extent>) {
        assert!(
            range.end() <= self.capacity_blocks,
            "range beyond volume capacity"
        );
        let (n, end) = (self.legs.len(), range.end());
        let base = extents.len();
        let mut lba = range.lba;
        // A one-leg volume has nothing to interleave with: the whole
        // range is one chunk (and `plba == lba`).
        let mut chunk_end = if n == 1 {
            end
        } else {
            lba - lba % self.stripe + self.stripe
        };
        // The extent (past `base`) the next chunk lands in.
        let mut slot = 0;
        while lba < end {
            let take = (chunk_end.min(end) - lba) as u32;
            if extents.len() - base < n {
                let (server, ssd, plba) = self.map_block(lba);
                extents.push(Extent {
                    server,
                    ssd,
                    range: BlockRange::new(plba, take),
                    logical_offset: lba - range.lba,
                });
            } else {
                extents[base + slot].range.blocks += take;
            }
            slot = if slot + 1 == n { 0 } else { slot + 1 };
            lba = chunk_end;
            chunk_end += self.stripe;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn volume4() -> StripedVolume {
        // Two servers with two SSDs each, 4 KB round-robin (§6.2.1).
        StripedVolume::new(
            vec![
                (ServerId(0), 0),
                (ServerId(0), 1),
                (ServerId(1), 0),
                (ServerId(1), 1),
            ],
            1,
            1 << 20,
        )
    }

    /// `map` as it stood before chunk arithmetic: one `map_block` per
    /// logical block, gathered into the leg's open extent when the
    /// physical addresses abut. Kept as the oracle `map_into` is
    /// checked against.
    fn oracle_map(v: &StripedVolume, range: BlockRange) -> Vec<Extent> {
        let mut extents: Vec<Extent> = Vec::new();
        let mut open = vec![usize::MAX; v.legs.len()];
        for i in 0..range.blocks as u64 {
            let leg = ((range.lba + i) / v.stripe % v.legs.len() as u64) as usize;
            let (server, ssd, plba) = v.map_block(range.lba + i);
            match extents.get_mut(open[leg]) {
                Some(e) if e.range.end() == plba => e.range.blocks += 1,
                _ => {
                    open[leg] = extents.len();
                    extents.push(Extent {
                        server,
                        ssd,
                        range: BlockRange::new(plba, 1),
                        logical_offset: i,
                    });
                }
            }
        }
        extents
    }

    #[test]
    fn single_volume_is_identity() {
        let v = StripedVolume::single(ServerId(0), 0, 100);
        let e = v.map(BlockRange::new(10, 5));
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].range, BlockRange::new(10, 5));
        assert_eq!(e[0].logical_offset, 0);
    }

    #[test]
    fn round_robin_4k_mapping() {
        let v = volume4();
        // Blocks 0,1,2,3 land on legs 0,1,2,3 at physical 0.
        for lba in 0..4 {
            let (server, ssd, plba) = v.map_block(lba);
            assert_eq!(plba, 0);
            let leg = (lba % 4) as usize;
            assert_eq!((server, ssd), v.legs()[leg]);
        }
        // Blocks 4..8 land at physical 1.
        assert_eq!(v.map_block(4).2, 1);
    }

    #[test]
    fn sequential_run_gathers_per_leg() {
        let v = volume4();
        // 16 sequential logical blocks = 4 per leg, physically 0..4:
        // one gathered extent per leg (the dm-stripe scatter-gather).
        let e = v.map(BlockRange::new(0, 16));
        assert_eq!(e.len(), 4, "one extent per leg");
        for (leg, x) in e.iter().enumerate() {
            let (srv, ssd) = v.legs()[leg];
            assert_eq!((x.server, x.ssd), (srv, ssd));
            assert_eq!(x.range, BlockRange::new(0, 4));
            assert_eq!(x.logical_offset, leg as u64);
        }
    }

    #[test]
    fn gap_on_a_leg_starts_new_extent() {
        // Two disjoint logical runs hitting the same leg produce two
        // extents when the physical addresses do not abut.
        let v = StripedVolume::new(vec![(ServerId(0), 0), (ServerId(1), 0)], 1, 1 << 20);
        let e = v.map(BlockRange::new(0, 2));
        assert_eq!(e.len(), 2);
        let e2 = v.map(BlockRange::new(6, 2));
        assert_eq!(e2[0].range.lba, 3, "physical address advances");
    }

    #[test]
    fn large_stripe_keeps_extents_whole() {
        let v = StripedVolume::new(vec![(ServerId(0), 0), (ServerId(1), 0)], 8, 1 << 20);
        let e = v.map(BlockRange::new(0, 20));
        // Leg 0 gets blocks 0-7 (p0-7) and 16-19 (p8-11): physically
        // contiguous, so they gather into one 12-block extent; leg 1
        // gets blocks 8-15 (p0-7).
        assert_eq!(e.len(), 2);
        assert_eq!(
            e[0],
            Extent {
                server: ServerId(0),
                ssd: 0,
                range: BlockRange::new(0, 12),
                logical_offset: 0
            }
        );
        assert_eq!(
            e[1],
            Extent {
                server: ServerId(1),
                ssd: 0,
                range: BlockRange::new(0, 8),
                logical_offset: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "beyond volume capacity")]
    fn oversized_range_rejected() {
        let v = StripedVolume::single(ServerId(0), 0, 10);
        let _ = v.map(BlockRange::new(8, 4));
    }

    proptest! {
        /// `logical_of` inverts `map_block` for every logical block.
        #[test]
        fn prop_logical_of_inverts_map_block(
            lba in 0u64..100_000,
            legs in 1usize..6,
            stripe in 1u32..16,
        ) {
            let legs_v: Vec<(ServerId, usize)> = (0..legs).map(|i| (ServerId(i as u16), 0)).collect();
            let v = StripedVolume::new(legs_v, stripe, 1 << 20);
            let (srv, _, plba) = v.map_block(lba);
            prop_assert_eq!(v.logical_of(srv.0 as usize, plba), lba);
        }

        /// Mapping covers every logical block exactly once: the extent
        /// block counts tile the request and every (device, physical
        /// block) of the request appears in exactly one extent.
        #[test]
        fn prop_mapping_is_a_tiling(
            lba in 0u64..10_000,
            blocks in 1u32..200,
            legs in 1usize..6,
            stripe in 1u32..16,
        ) {
            let legs_v: Vec<(ServerId, usize)> = (0..legs).map(|i| (ServerId(i as u16), 0)).collect();
            let v = StripedVolume::new(legs_v, stripe, 1 << 20);
            let e = v.map(BlockRange::new(lba, blocks));
            // Extent for extent what the block-by-block walk gathers,
            // one-leg and wide-stripe volumes included.
            prop_assert_eq!(&e, &oracle_map(&v, BlockRange::new(lba, blocks)));
            if legs == 1 {
                prop_assert_eq!(e.len(), 1, "a one-leg volume is the identity");
                prop_assert_eq!((e[0].range, e[0].logical_offset), (BlockRange::new(lba, blocks), 0));
            }
            let total: u64 = e.iter().map(|x| x.range.blocks as u64).sum();
            prop_assert_eq!(total, blocks as u64);
            // Collect the expected physical blocks per device.
            let mut expect = std::collections::BTreeSet::new();
            for i in 0..blocks as u64 {
                let (srv, ssd, plba) = v.map_block(lba + i);
                expect.insert((srv.0, ssd, plba));
            }
            let mut got = std::collections::BTreeSet::new();
            for x in &e {
                for j in 0..x.range.blocks as u64 {
                    prop_assert!(
                        got.insert((x.server.0, x.ssd, x.range.lba + j)),
                        "physical block covered twice"
                    );
                }
            }
            prop_assert_eq!(got, expect);
            // Extents are maximal: no two extents on the same leg abut.
            for (i, a) in e.iter().enumerate() {
                for b in e.iter().skip(i + 1) {
                    if (a.server, a.ssd) == (b.server, b.ssd) {
                        prop_assert!(
                            a.range.end() != b.range.lba && b.range.end() != a.range.lba,
                            "extents on one leg should have been gathered"
                        );
                    }
                }
            }
        }
    }
}
