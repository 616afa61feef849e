//! The ordering attribute: an ordered write request's logical identity.
//!
//! The attribute (paper Fig. 5) records which *group* a request belongs
//! to (`seq`, `num`), which group precedes it on its target server
//! (`prev`), whether its data blocks are durable (`persist`), where its
//! blocks live (`range`), and how it was split or merged. It is embedded
//! in the block-layer request, carried over the network inside reserved
//! NVMe-oF command fields ([`rio_proto::RioExt`]), and persisted to the
//! PMR log ([`rio_proto::PmrRecord`]) — so the scattered pieces of the
//! original storage order can be reassembled at any time.

use rio_proto::pmr_record::RecordFlags;
use rio_proto::{PmrRecord, RioExt, RioFlags, RioOpcode};

/// Identifies an independent ordered stream (§4.5). Streams have no
/// ordering constraints between each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u16);

/// A per-stream global sequence number. `Seq::HEAD` (zero) is the
/// reserved list head of Fig. 5 and never names a real group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seq(pub u32);

impl Seq {
    /// The reserved head entry (seq 0 in Fig. 5).
    pub const HEAD: Seq = Seq(0);

    /// The next sequence number.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the 32-bit sequence space.
    pub fn next(self) -> Seq {
        Seq(self.0.checked_add(1).expect("sequence space exhausted"))
    }

    /// Returns true for the reserved head.
    pub fn is_head(self) -> bool {
        self.0 == 0
    }
}

/// Identifies a target server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(pub u16);

/// A contiguous run of logical blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRange {
    /// First logical block address.
    pub lba: u64,
    /// Number of blocks (zero is forbidden).
    pub blocks: u32,
}

impl BlockRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn new(lba: u64, blocks: u32) -> Self {
        assert!(blocks > 0, "empty block range");
        BlockRange { lba, blocks }
    }

    /// The LBA one past the end of this range.
    pub fn end(&self) -> u64 {
        self.lba + self.blocks as u64
    }

    /// Whether `self` immediately precedes `next` with no gap or overlap.
    pub fn abuts(&self, next: &BlockRange) -> bool {
        self.end() == next.lba
    }

    /// Whether the two ranges share any block.
    #[cfg(test)]
    pub fn overlaps(&self, other: &BlockRange) -> bool {
        self.lba < other.end() && other.lba < self.end()
    }

    /// The union of two abutting ranges.
    ///
    /// # Panics
    ///
    /// Panics if the ranges do not abut.
    pub fn join(&self, next: &BlockRange) -> BlockRange {
        assert!(self.abuts(next), "joining non-adjacent ranges");
        BlockRange {
            lba: self.lba,
            blocks: self.blocks + next.blocks,
        }
    }
}

/// Position of a fragment within a split request (§4.5, Fig. 8b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitInfo {
    /// Fragment ordinal, starting at zero.
    pub idx: u8,
    /// Whether this is the final fragment.
    pub last: bool,
}

/// The ordering attribute of one physical ordered write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingAttr {
    /// Owning stream.
    pub stream: StreamId,
    /// First group sequence number this request covers.
    pub seq_start: Seq,
    /// Last group sequence number covered (differs from `seq_start` only
    /// after merging across groups, Fig. 8a).
    pub seq_end: Seq,
    /// Number of requests in the group; meaningful on `boundary`
    /// requests (and on merged requests, where it is the total across
    /// all covered groups).
    pub num: u16,
    /// Ordinal of this request within its group (0-based). Lets
    /// recovery tell two split members of the same group apart.
    pub member_idx: u8,
    /// Sequence number of the preceding group dispatched to the same
    /// target server (`Seq::HEAD` when none).
    pub prev: Seq,
    /// Whether this request ends its group (the "final request").
    pub boundary: bool,
    /// Whether the data blocks are known durable.
    pub persist: bool,
    /// The blocks this request covers.
    pub range: BlockRange,
    /// Split bookkeeping; `None` for unsplit requests.
    pub split: Option<SplitInfo>,
    /// In-place update: recovery must not roll this request back.
    pub ipu: bool,
    /// Carries a FLUSH: its completion persists all preceding writes on
    /// a non-PLP drive.
    pub flush: bool,
    /// Target server this request was dispatched to.
    pub server: ServerId,
    /// Device index within the target server.
    pub ssd: u8,
    /// Per-(stream, server) dispatch ordinal, stamped by the initiator
    /// driver. The target's in-order submission gate releases requests
    /// in this order (implementation refinement of §4.3.1; the paper
    /// relies on per-QP in-order delivery for the common case).
    pub dispatch_idx: u64,
}

impl OrderingAttr {
    /// Creates an attribute for an unsplit, unmerged request of group
    /// `seq`.
    pub fn single(stream: StreamId, seq: Seq, range: BlockRange) -> Self {
        OrderingAttr {
            stream,
            seq_start: seq,
            seq_end: seq,
            num: 0,
            member_idx: 0,
            prev: Seq::HEAD,
            boundary: false,
            persist: false,
            range,
            split: None,
            ipu: false,
            flush: false,
            server: ServerId(0),
            ssd: 0,
            dispatch_idx: 0,
        }
    }

    /// Whether this attribute covers group `seq`.
    #[cfg(test)]
    pub fn covers(&self, seq: Seq) -> bool {
        self.seq_start <= seq && seq <= self.seq_end
    }

    /// Whether this request was merged across multiple groups.
    pub fn is_merged_span(&self) -> bool {
        self.seq_start != self.seq_end
    }

    /// Encodes the wire-visible part into the NVMe-oF reserved fields
    /// (paper Table 1 plus the implementation-extension dwords).
    pub fn to_wire(&self) -> RioExt {
        RioExt {
            op: RioOpcode::Submit,
            seq_start: self.seq_start.0,
            seq_end: self.seq_end.0,
            prev: self.prev.0,
            num: self.num,
            stream: self.stream.0,
            flags: RioFlags {
                boundary: self.boundary,
                split: self.split.is_some(),
                ipu: self.ipu,
            },
            member_idx: self.member_idx,
            split_idx: self.split.map(|s| s.idx).unwrap_or(0),
            last_split: self.split.map(|s| s.last).unwrap_or(false),
            dispatch_idx: self.dispatch_idx as u32,
        }
    }

    /// Reconstructs the attribute from the wire extension plus the
    /// request geometry the command itself carries.
    #[cfg(test)]
    pub fn from_wire(ext: &RioExt, range: BlockRange, server: ServerId) -> Self {
        OrderingAttr {
            stream: StreamId(ext.stream),
            seq_start: Seq(ext.seq_start),
            seq_end: Seq(ext.seq_end),
            num: ext.num,
            member_idx: ext.member_idx,
            prev: Seq(ext.prev),
            boundary: ext.flags.boundary,
            persist: false,
            range,
            split: if ext.flags.split {
                Some(SplitInfo {
                    idx: ext.split_idx,
                    last: ext.last_split,
                })
            } else {
                None
            },
            ipu: ext.flags.ipu,
            flush: false,
            server,
            ssd: 0,
            dispatch_idx: ext.dispatch_idx as u64,
        }
    }

    /// Encodes into a PMR log record (§4.3.2).
    ///
    /// # Panics
    ///
    /// Panics if the block count exceeds the record's 8-bit field (the
    /// splitter bounds physical requests well below 255 blocks).
    pub fn to_pmr_record(&self, generation: u8) -> PmrRecord {
        assert!(
            self.range.blocks <= u8::MAX as u32,
            "range too large for PMR record"
        );
        PmrRecord {
            generation,
            flags: RecordFlags {
                boundary: self.boundary,
                split: self.split.is_some(),
                ipu: self.ipu,
                flush: self.flush,
                last_split: self.split.map(|s| s.last).unwrap_or(false),
            },
            member_idx: self.member_idx,
            num: self.num,
            stream: self.stream.0,
            seq_start: self.seq_start.0,
            seq_end: self.seq_end.0,
            prev: self.prev.0,
            lba: self.range.lba,
            len: self.range.blocks as u8,
            split_idx: self.split.map(|s| s.idx).unwrap_or(0),
            persist: self.persist,
            ssd: self.ssd,
        }
    }

    /// Reconstructs an attribute from a scanned PMR record. The `server`
    /// is supplied by the scanner (records live on the server that wrote
    /// them); `dispatch_idx` is not persisted and reads back as zero.
    #[cfg(test)]
    pub fn from_pmr_record(rec: &PmrRecord, server: ServerId) -> Self {
        OrderingAttr {
            stream: StreamId(rec.stream),
            seq_start: Seq(rec.seq_start),
            seq_end: Seq(rec.seq_end),
            num: rec.num,
            member_idx: rec.member_idx,
            prev: Seq(rec.prev),
            boundary: rec.flags.boundary,
            persist: rec.persist,
            range: BlockRange::new(rec.lba, rec.len.max(1) as u32),
            split: if rec.flags.split {
                Some(SplitInfo {
                    idx: rec.split_idx,
                    last: rec.flags.last_split,
                })
            } else {
                None
            },
            ipu: rec.flags.ipu,
            flush: rec.flags.flush,
            server,
            ssd: rec.ssd,
            dispatch_idx: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seq_head_and_next() {
        assert!(Seq::HEAD.is_head());
        assert_eq!(Seq::HEAD.next(), Seq(1));
        assert!(!Seq(1).is_head());
    }

    #[test]
    #[should_panic(expected = "sequence space exhausted")]
    fn seq_overflow_panics() {
        let _ = Seq(u32::MAX).next();
    }

    #[test]
    fn block_range_geometry() {
        let a = BlockRange::new(10, 4);
        let b = BlockRange::new(14, 2);
        let c = BlockRange::new(17, 1);
        assert_eq!(a.end(), 14);
        assert!(a.abuts(&b));
        assert!(!a.abuts(&c));
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&BlockRange::new(13, 5)));
        assert_eq!(a.join(&b), BlockRange::new(10, 6));
    }

    #[test]
    #[should_panic(expected = "empty block range")]
    fn empty_range_rejected() {
        let _ = BlockRange::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn join_rejects_gap() {
        let _ = BlockRange::new(0, 1).join(&BlockRange::new(5, 1));
    }

    fn sample_attr() -> OrderingAttr {
        OrderingAttr {
            stream: StreamId(3),
            seq_start: Seq(10),
            seq_end: Seq(12),
            num: 5,
            member_idx: 2,
            prev: Seq(9),
            boundary: true,
            persist: false,
            range: BlockRange::new(4096, 24),
            split: None,
            ipu: false,
            flush: true,
            server: ServerId(1),
            ssd: 1,
            dispatch_idx: 77,
        }
    }

    #[test]
    fn wire_round_trip_preserves_ordering_fields() {
        let attr = sample_attr();
        let ext = attr.to_wire();
        let back = OrderingAttr::from_wire(&ext, attr.range, attr.server);
        assert_eq!(back.stream, attr.stream);
        assert_eq!(back.seq_start, attr.seq_start);
        assert_eq!(back.seq_end, attr.seq_end);
        assert_eq!(back.prev, attr.prev);
        assert_eq!(back.num, attr.num);
        assert_eq!(back.member_idx, attr.member_idx);
        assert_eq!(back.boundary, attr.boundary);
        assert_eq!(back.ipu, attr.ipu);
        assert_eq!(back.dispatch_idx, attr.dispatch_idx);
        assert_eq!(back.split, attr.split);
    }

    #[test]
    fn wire_round_trip_split_info() {
        let mut attr = sample_attr();
        attr.split = Some(SplitInfo { idx: 3, last: true });
        let back = OrderingAttr::from_wire(&attr.to_wire(), attr.range, attr.server);
        assert_eq!(back.split, Some(SplitInfo { idx: 3, last: true }));
    }

    #[test]
    fn pmr_round_trip() {
        let mut attr = sample_attr();
        attr.range = BlockRange::new(4096, 24);
        attr.split = Some(SplitInfo { idx: 2, last: true });
        let rec = attr.to_pmr_record(7);
        assert_eq!(rec.generation, 7);
        let back = OrderingAttr::from_pmr_record(&rec, ServerId(1));
        assert_eq!(back.stream, attr.stream);
        assert_eq!(back.seq_start, attr.seq_start);
        assert_eq!(back.seq_end, attr.seq_end);
        assert_eq!(back.num, attr.num);
        assert_eq!(back.member_idx, attr.member_idx);
        assert_eq!(back.prev, attr.prev);
        assert_eq!(back.range, attr.range);
        assert_eq!(back.split, attr.split);
        assert_eq!(back.flush, attr.flush);
        assert_eq!(back.server, ServerId(1));
    }

    #[test]
    #[should_panic(expected = "range too large")]
    fn oversized_pmr_range_rejected() {
        let mut attr = sample_attr();
        attr.range = BlockRange::new(0, 1000);
        let _ = attr.to_pmr_record(0);
    }

    #[test]
    fn covers_range() {
        let attr = sample_attr();
        assert!(attr.covers(Seq(10)));
        assert!(attr.covers(Seq(12)));
        assert!(!attr.covers(Seq(9)));
        assert!(!attr.covers(Seq(13)));
        assert!(attr.is_merged_span());
        assert!(!OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 1)).is_merged_span());
    }

    proptest! {
        #[test]
        fn prop_pmr_round_trip(
            stream in any::<u16>(),
            seq in 1u32..u32::MAX - 1000,
            span in 0u32..100,
            num in any::<u16>(),
            member_idx in any::<u8>(),
            prev in any::<u32>(),
            lba in 0u64..(1 << 40),
            blocks in 1u32..=255,
            boundary in any::<bool>(),
            ipu in any::<bool>(),
            flush in any::<bool>(),
            ssd in any::<u8>(),
            split in proptest::option::of((any::<u8>(), any::<bool>())),
        ) {
            let attr = OrderingAttr {
                stream: StreamId(stream),
                seq_start: Seq(seq),
                seq_end: Seq(seq + span),
                num,
                member_idx,
                prev: Seq(prev),
                boundary,
                persist: false,
                range: BlockRange::new(lba, blocks),
                split: split.map(|(idx, last)| SplitInfo { idx, last }),
                ipu,
                flush,
                server: ServerId(4),
                ssd,
                dispatch_idx: 0,
            };
            let rec = attr.to_pmr_record(1);
            let back = OrderingAttr::from_pmr_record(&rec, ServerId(4));
            prop_assert_eq!(back, attr);
        }

        #[test]
        fn prop_overlap_symmetric(a_lba in 0u64..1000, a_len in 1u32..50, b_lba in 0u64..1000, b_len in 1u32..50) {
            let a = BlockRange::new(a_lba, a_len);
            let b = BlockRange::new(b_lba, b_len);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            // Overlap is consistent with interval arithmetic.
            let expect = a_lba.max(b_lba) < (a_lba + a_len as u64).min(b_lba + b_len as u64);
            prop_assert_eq!(a.overlaps(&b), expect);
        }
    }
}
