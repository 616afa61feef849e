//! The circular log of persistent ordering attributes (§4.3.2).
//!
//! Each target server keeps one log in the 2 MB Persistent Memory
//! Region of its SSD. The target driver appends a 32-byte record per
//! arriving ordered request *before* submitting it to the SSD (step ⑤),
//! toggles the record's persist byte when the data becomes durable
//! (step ⑦), and recycles slots once the initiator reports that the
//! completion was delivered to the application.
//!
//! The log itself is a *pure state machine over offsets*: every
//! mutation is expressed as a [`PmrWrite`] (offset + bytes) that the
//! caller applies to the actual PMR region — in the simulator that is
//! an MMIO write with its ~0.6 µs cost; on real hardware it would be a
//! posted PCIe write. This keeps the log logic independent of any
//! device model and directly testable.
//!
//! Region layout:
//!
//! ```text
//! [ superblock | slot 0 | slot 1 | ... | slot N-1 ]
//! superblock = magic(4) version(1) pad(1) n_streams(2)
//!              head_seq[u32; n_streams]            (padded to 32 B)
//! ```
//!
//! `head_seq[s]` is the sequence up to which stream `s` has *delivered*
//! completions: post-crash scanning ignores older records, which makes
//! stale slots from previous laps harmless without erasing them.

use rio_proto::PmrRecord;

use crate::attr::{Seq, StreamId};

/// Magic identifying a formatted log region.
const MAGIC: [u8; 4] = *b"RIOP";
/// Format version.
const VERSION: u8 = 1;

/// The bytes of one MMIO write, held inline: no write is longer than a
/// record, so none needs the heap. Derefs to the byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmrBytes {
    len: u8,
    buf: [u8; PmrRecord::SIZE],
}

impl PmrBytes {
    /// Copies `bytes` in.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than a record.
    fn new(bytes: &[u8]) -> Self {
        let mut buf = [0; PmrRecord::SIZE];
        buf[..bytes.len()].copy_from_slice(bytes);
        PmrBytes {
            len: bytes.len() as u8,
            buf,
        }
    }
}

impl std::ops::Deref for PmrBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

/// One MMIO write the caller must apply to the PMR region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmrWrite {
    /// Byte offset within the region.
    pub offset: usize,
    /// Bytes to store (at most one record's worth).
    pub bytes: PmrBytes,
}

/// A reference to an appended record (an absolute slot number that
/// never repeats, even across laps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef(u64);

/// The log is out of space: the caller must stall submission until
/// completions recycle slots (§4.3.2 backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFull;

/// Result of scanning a region after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Delivered-through sequence per stream, from the superblock.
    pub head_seqs: Vec<(StreamId, Seq)>,
    /// Every decodable record (recovery filters stale ones by
    /// `head_seqs`).
    pub records: Vec<PmrRecord>,
}

/// In-memory management of one PMR circular log.
#[derive(Debug, Clone)]
pub struct PmrLog {
    n_streams: usize,
    capacity: usize,
    /// Absolute index of the oldest live slot.
    head: u64,
    /// Absolute index of the next free slot.
    tail: u64,
    /// One bit per physical slot, set once a live slot is freed ahead
    /// of the head and cleared as the head passes it.
    freed: Vec<u64>,
}

impl PmrLog {
    /// Size of the superblock in bytes for `n_streams` streams.
    pub fn superblock_size(n_streams: usize) -> usize {
        let raw = 8 + 4 * n_streams;
        raw.div_ceil(PmrRecord::SIZE) * PmrRecord::SIZE
    }

    /// Creates a log over a region of `region_len` bytes and returns the
    /// formatting writes (the superblock image, a record-sized piece per
    /// write).
    ///
    /// # Panics
    ///
    /// Panics if the region cannot hold the superblock plus one slot,
    /// or `n_streams` is zero.
    pub fn format(region_len: usize, n_streams: usize) -> (PmrLog, Vec<PmrWrite>) {
        assert!(n_streams > 0, "need at least one stream");
        let sb = Self::superblock_size(n_streams);
        assert!(
            region_len >= sb + PmrRecord::SIZE,
            "PMR region too small: {region_len} bytes"
        );
        let capacity = (region_len - sb) / PmrRecord::SIZE;
        let log = PmrLog {
            n_streams,
            capacity,
            head: 0,
            tail: 0,
            freed: vec![0; capacity.div_ceil(64)],
        };
        let mut sb_bytes = vec![0u8; sb];
        sb_bytes[0..4].copy_from_slice(&MAGIC);
        sb_bytes[4] = VERSION;
        sb_bytes[6..8].copy_from_slice(&(n_streams as u16).to_le_bytes());
        let writes = sb_bytes
            .chunks(PmrRecord::SIZE)
            .enumerate()
            .map(|(i, piece)| PmrWrite {
                offset: i * PmrRecord::SIZE,
                bytes: PmrBytes::new(piece),
            })
            .collect();
        (log, writes)
    }

    /// Slot capacity of the log.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live (un-recycled) slots.
    pub fn live(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Whether an append would fail.
    pub fn is_full(&self) -> bool {
        self.live() == self.capacity
    }

    fn slot_offset(&self, abs: u64) -> usize {
        Self::superblock_size(self.n_streams)
            + (abs % self.capacity as u64) as usize * PmrRecord::SIZE
    }

    /// The word of `freed` holding slot `abs`'s flag, and its bit.
    fn freed_bit(&self, abs: u64) -> (usize, u64) {
        let idx = (abs % self.capacity as u64) as usize;
        (idx / 64, 1 << (idx % 64))
    }

    /// Appends a record (step ⑤); the record's generation is stamped
    /// with the current lap. Returns the slot plus the 32-byte write.
    pub fn append(&mut self, rec: &PmrRecord) -> Result<(SlotRef, PmrWrite), LogFull> {
        if self.is_full() {
            return Err(LogFull);
        }
        let abs = self.tail;
        self.tail += 1;
        let mut stamped = *rec;
        stamped.generation = (abs / self.capacity as u64) as u8;
        Ok((
            SlotRef(abs),
            PmrWrite {
                offset: self.slot_offset(abs),
                bytes: PmrBytes::new(&stamped.encode()),
            },
        ))
    }

    /// The single-byte persist toggle for `slot` (step ⑦).
    pub fn mark_persist(&self, slot: SlotRef) -> PmrWrite {
        PmrWrite {
            offset: self.slot_offset(slot.0) + PmrRecord::PERSIST_OFFSET,
            bytes: PmrBytes::new(&[1]),
        }
    }

    /// Marks `slot` recyclable (its request's completion reached the
    /// application); the head advances over contiguous freed slots.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn free(&mut self, slot: SlotRef) {
        assert!(
            slot.0 >= self.head && slot.0 < self.tail,
            "freeing a slot that is not live"
        );
        let (word, bit) = self.freed_bit(slot.0);
        assert!(self.freed[word] & bit == 0, "double free of log slot");
        self.freed[word] |= bit;
        while self.head < self.tail {
            let (word, bit) = self.freed_bit(self.head);
            if self.freed[word] & bit == 0 {
                break;
            }
            self.freed[word] &= !bit;
            self.head += 1;
        }
    }

    /// Records that stream `stream` has delivered completions through
    /// `seq`; returns the superblock field write. Must be applied
    /// *before* the freed slots of those groups are overwritten, which
    /// the FIFO slot order guarantees naturally.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range stream.
    pub fn set_head_seq(&self, stream: StreamId, seq: Seq) -> PmrWrite {
        assert!((stream.0 as usize) < self.n_streams, "unknown stream");
        PmrWrite {
            offset: 8 + 4 * stream.0 as usize,
            bytes: PmrBytes::new(&seq.0.to_le_bytes()),
        }
    }

    /// Parses a PMR region after a crash: superblock head pointers plus
    /// every slot that still holds a decodable record.
    ///
    /// Returns `None` when the region was never formatted, and when a
    /// head pointer is `u32::MAX`: no sequencer delivers that group
    /// (closing it would exhaust the sequence space), so only a torn
    /// superblock holds it, and recovery would step past it.
    pub fn scan(region: &[u8]) -> Option<ScanOutcome> {
        Self::scan_pages(region.len(), [(0, region)])
    }

    /// [`PmrLog::scan`] over a region of `len` bytes held as pages:
    /// each its byte offset and contents, in address order, with the
    /// bytes no page holds reading as zero (`rio_ssd::Pmr::written`).
    /// Every page but the last must start and end on a record boundary,
    /// so no slot straddles two pages; a missing page 0 is a region
    /// never formatted. Zeroed slots hold no record, so a page left out
    /// changes nothing but the work.
    pub fn scan_pages<'a>(
        len: usize,
        pages: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) -> Option<ScanOutcome> {
        let mut pages = pages.into_iter().peekable();
        let &(0, first) = pages.peek()? else {
            return None;
        };
        if first.len() < 8 || first[0..4] != MAGIC || first[4] != VERSION {
            return None;
        }
        let n_streams = u16::from_le_bytes([first[6], first[7]]) as usize;
        let sb = Self::superblock_size(n_streams);
        if len < sb {
            return None;
        }
        // Head marks are 4-byte fields from byte 8 on; a superblock of
        // more than 16 382 streams runs past the first page.
        let marks = 8..8 + 4 * n_streams;
        let mut head_seqs: Vec<(StreamId, Seq)> = (0..n_streams)
            .map(|s| (StreamId(s as u16), Seq::HEAD))
            .collect();
        let mut records = Vec::new();
        for (at, page) in pages {
            let end = at + page.len();
            for off in (at.max(marks.start)..end.min(marks.end)).step_by(4) {
                let b = &page[off - at..];
                head_seqs[(off - 8) / 4].1 = Seq(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
            let slots = page.get(sb.saturating_sub(at)..).unwrap_or_default();
            let (slots, _) = slots.as_chunks::<{ PmrRecord::SIZE }>();
            records.extend(slots.iter().filter_map(PmrRecord::decode));
        }
        if head_seqs.iter().any(|&(_, seq)| seq == Seq(u32::MAX)) {
            return None;
        }
        Some(ScanOutcome { head_seqs, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_proto::pmr_record::RecordFlags;

    fn rec(stream: u16, seq: u32) -> PmrRecord {
        PmrRecord {
            generation: 0,
            flags: RecordFlags {
                boundary: true,
                ..Default::default()
            },
            member_idx: 0,
            num: 1,
            stream,
            seq_start: seq,
            seq_end: seq,
            prev: seq.saturating_sub(1),
            lba: seq as u64 * 8,
            len: 8,
            split_idx: 0,
            persist: false,
            ssd: 0,
        }
    }

    /// Applies writes to an in-memory region, as the target driver does
    /// to the real PMR.
    fn apply(region: &mut [u8], w: &PmrWrite) {
        region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
    }

    #[test]
    fn format_and_scan_empty() {
        // 24 streams need a superblock of four record-sized writes.
        for n_streams in [4, 24] {
            let mut region = vec![0u8; 4096];
            let (log, writes) = PmrLog::format(region.len(), n_streams);
            assert_eq!(
                writes.iter().map(|w| w.bytes.len()).sum::<usize>(),
                PmrLog::superblock_size(n_streams)
            );
            for w in &writes {
                apply(&mut region, w);
            }
            assert!(log.capacity() > 0);
            let scan = PmrLog::scan(&region).expect("formatted");
            assert_eq!(scan.head_seqs.len(), n_streams);
            assert!(scan.records.is_empty());
        }
    }

    #[test]
    fn unformatted_region_scans_to_none() {
        let region = vec![0u8; 4096];
        assert!(PmrLog::scan(&region).is_none());
    }

    #[test]
    fn append_persist_scan_round_trip() {
        let mut region = vec![0u8; 4096];
        let (mut log, writes) = PmrLog::format(region.len(), 1);
        for w in &writes {
            apply(&mut region, w);
        }
        let (slot, w) = log.append(&rec(0, 1)).expect("space");
        apply(&mut region, &w);
        let scan = PmrLog::scan(&region).expect("formatted");
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.records[0].persist);

        apply(&mut region, &log.mark_persist(slot));
        let scan = PmrLog::scan(&region).expect("formatted");
        assert!(scan.records[0].persist, "persist toggle visible to scan");
        assert_eq!(scan.records[0].seq_start, 1);
    }

    #[test]
    fn scan_refuses_valid_checksum_slots_no_encoder_wrote() {
        let mut region = vec![0u8; 4096];
        let (mut log, writes) = PmrLog::format(region.len(), 1);
        for w in &writes {
            apply(&mut region, w);
        }
        let (_, w) = log.append(&rec(0, 5)).expect("space");
        apply(&mut region, &w);
        // Two more slots as a CRC-16 collision on a torn write could
        // leave them: the checksum holds over a body with no blocks,
        // and over one whose sequence range runs backwards.
        let reseal = |mut image: [u8; PmrRecord::SIZE]| {
            let ck = rio_proto::crc16(&image[0..28]);
            image[28..30].copy_from_slice(&ck.to_le_bytes());
            image
        };
        let (mut empty, mut inverted) = (rec(0, 6).encode(), rec(0, 7).encode());
        empty[26] = 0;
        inverted[12..16].copy_from_slice(&6u32.to_le_bytes());
        let at = w.offset + PmrRecord::SIZE;
        region[at..at + PmrRecord::SIZE].copy_from_slice(&reseal(empty));
        region[at + PmrRecord::SIZE..at + 2 * PmrRecord::SIZE].copy_from_slice(&reseal(inverted));
        let scan = PmrLog::scan(&region).expect("formatted");
        assert_eq!(scan.records, vec![rec(0, 5)], "neither hand-built slot is a record");
        // Resealed unpatched, the same slots are records: the refusal
        // is the body's, not the fixture's.
        region[at..at + PmrRecord::SIZE].copy_from_slice(&reseal(rec(0, 6).encode()));
        assert_eq!(PmrLog::scan(&region).expect("formatted").records.len(), 2);
    }

    #[test]
    fn head_seq_round_trips() {
        let mut region = vec![0u8; 4096];
        let (log, writes) = PmrLog::format(region.len(), 3);
        for w in &writes {
            apply(&mut region, w);
        }
        apply(&mut region, &log.set_head_seq(StreamId(1), Seq(42)));
        let scan = PmrLog::scan(&region).expect("formatted");
        assert_eq!(scan.head_seqs[1], (StreamId(1), Seq(42)));
        assert_eq!(scan.head_seqs[0], (StreamId(0), Seq(0)));
    }

    #[test]
    fn fills_then_rejects() {
        let region_len = PmrLog::superblock_size(1) + 4 * PmrRecord::SIZE;
        let (mut log, _) = PmrLog::format(region_len, 1);
        assert_eq!(log.capacity(), 4);
        let mut slots = Vec::new();
        for i in 0..4 {
            let (s, _) = log.append(&rec(0, i + 1)).expect("space");
            slots.push(s);
        }
        assert!(log.is_full());
        assert_eq!(log.append(&rec(0, 9)), Err(LogFull));
        // Freeing the head slot makes room again.
        log.free(slots[0]);
        assert!(!log.is_full());
        assert!(log.append(&rec(0, 9)).is_ok());
    }

    #[test]
    fn out_of_order_free_advances_head_lazily() {
        let region_len = PmrLog::superblock_size(1) + 4 * PmrRecord::SIZE;
        let (mut log, _) = PmrLog::format(region_len, 1);
        let s: Vec<SlotRef> = (0..4)
            .map(|i| log.append(&rec(0, i + 1)).unwrap().0)
            .collect();
        log.free(s[1]);
        log.free(s[2]);
        assert_eq!(log.live(), 4, "head blocked by slot 0");
        log.free(s[0]);
        assert_eq!(log.live(), 1, "head jumps over contiguous freed run");
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_free_of_reclaimed_slot_rejected() {
        let region_len = PmrLog::superblock_size(1) + 4 * PmrRecord::SIZE;
        let (mut log, _) = PmrLog::format(region_len, 1);
        let (s, _) = log.append(&rec(0, 1)).unwrap();
        log.free(s);
        // The head already advanced past the slot; a second free is a
        // stale reference.
        log.free(s);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_behind_blocked_head_rejected() {
        let region_len = PmrLog::superblock_size(1) + 4 * PmrRecord::SIZE;
        let (mut log, _) = PmrLog::format(region_len, 1);
        let (_s0, _) = log.append(&rec(0, 1)).unwrap();
        let (s1, _) = log.append(&rec(0, 2)).unwrap();
        // Slot 0 is still live, so the head cannot advance past slot 1.
        log.free(s1);
        log.free(s1);
    }

    #[test]
    fn wrap_stamps_generation() {
        let region_len = PmrLog::superblock_size(1) + 2 * PmrRecord::SIZE;
        let (mut log, _) = PmrLog::format(region_len, 1);
        let (s0, w0) = log.append(&rec(0, 1)).unwrap();
        let (_s1, _w1) = log.append(&rec(0, 2)).unwrap();
        log.free(s0);
        let (_s2, w2) = log.append(&rec(0, 3)).unwrap();
        // Slot 2 reuses physical slot 0, one lap later.
        assert_eq!(w2.offset, w0.offset);
        let rec2 = PmrRecord::decode(&w2.bytes[..].try_into().unwrap()).unwrap();
        assert_eq!(rec2.generation, 1);
    }

    #[test]
    fn stale_records_remain_visible_to_scan() {
        // After a wrap, un-overwritten old records still decode; the
        // head_seq filter (applied by recovery) is what hides them.
        let mut region = vec![0u8; PmrLog::superblock_size(1) + 3 * PmrRecord::SIZE];
        let (mut log, writes) = PmrLog::format(region.len(), 1);
        for w in &writes {
            apply(&mut region, w);
        }
        for i in 0..3 {
            let (_, w) = log.append(&rec(0, i + 1)).unwrap();
            apply(&mut region, &w);
        }
        apply(&mut region, &log.set_head_seq(StreamId(0), Seq(3)));
        let scan = PmrLog::scan(&region).expect("formatted");
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.head_seqs[0].1, Seq(3), "recovery will drop all three");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_region_rejected() {
        let _ = PmrLog::format(16, 1);
    }

    #[test]
    fn paper_capacity_2mb() {
        // The paper's 2 MB PMR holds ~64 Ki records.
        let (log, _) = PmrLog::format(2 * 1024 * 1024, 24);
        assert!(log.capacity() > 65_000);
    }
}
