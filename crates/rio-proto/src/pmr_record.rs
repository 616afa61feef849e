//! The 32-byte persistent ordering-attribute record (PMR log entry).
//!
//! Rio appends one record per physical ordered write request to a
//! circular log in the SSD's Persistent Memory Region (§4.3.2). The
//! record must support:
//!
//! * torn-write detection on post-crash scan (checksum over the body),
//! * wrap detection for the circular log (a generation byte),
//! * an in-place `persist` toggle that is a single-byte — and therefore
//!   atomic — MMIO write, kept *outside* the checksum so the toggle does
//!   not have to rewrite the record,
//! * unambiguous reassembly: `member_idx` names the request within its
//!   group and `split_idx` names the fragment within a split request, so
//!   recovery can rejoin fragments even when several members of one
//!   group were split across servers (a case Fig. 8(b) implies but the
//!   paper does not spell out).
//!
//! Layout (32 bytes, little-endian):
//!
//! | offset | field        | notes                                    |
//! |--------|--------------|------------------------------------------|
//! | 0      | magic (0xA7) |                                          |
//! | 1      | generation   | circular-log lap marker                  |
//! | 2      | flags        | boundary/split/ipu/flush/last-split      |
//! | 3      | member index | request ordinal within its group         |
//! | 4..6   | num          | requests in group (boundary records);    |
//! |        |              | total members for merged spans           |
//! | 6..8   | stream       |                                          |
//! | 8..12  | seq_start    |                                          |
//! | 12..16 | seq_end      | > seq_start only for merged spans        |
//! | 16..20 | prev         | preceding group on this server           |
//! | 20..26 | lba          | 48-bit starting logical block address    |
//! | 26     | len          | blocks covered (1..=255)                 |
//! | 27     | split index  | fragment ordinal within a split request  |
//! | 28..30 | checksum     | CRC-16/CCITT over bytes 0..28            |
//! | 30     | persist      | 0/1, toggled in place, not checksummed   |
//! | 31     | ssd index    | device within the target server*         |
//!
//! \* written together with the record body in one MMIO burst; a torn
//! record is caught by the checksum over the body, and the ssd byte is
//! never rewritten afterwards.

/// Flag bits in byte 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecordFlags {
    /// Final request of its ordered group.
    pub boundary: bool,
    /// Fragment of a split request.
    pub split: bool,
    /// In-place update (excluded from rollback).
    pub ipu: bool,
    /// Carries a FLUSH (its completion persists all predecessors on
    /// non-PLP drives).
    pub flush: bool,
    /// Last fragment of a split request.
    pub last_split: bool,
}

impl RecordFlags {
    fn to_byte(self) -> u8 {
        (self.boundary as u8)
            | (self.split as u8) << 1
            | (self.ipu as u8) << 2
            | (self.flush as u8) << 3
            | (self.last_split as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        RecordFlags {
            boundary: b & 1 != 0,
            split: b & 2 != 0,
            ipu: b & 4 != 0,
            flush: b & 8 != 0,
            last_split: b & 16 != 0,
        }
    }
}

/// A decoded PMR log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmrRecord {
    /// Circular-log generation (lap) this record was written in.
    pub generation: u8,
    /// Flags.
    pub flags: RecordFlags,
    /// Ordinal of this request within its group (0-based).
    pub member_idx: u8,
    /// Number of requests in the group (meaningful on boundary records;
    /// the member total across all covered groups for merged spans).
    pub num: u16,
    /// Stream identifier.
    pub stream: u16,
    /// First sequence number covered.
    pub seq_start: u32,
    /// Last sequence number covered (merged spans only exceed
    /// `seq_start`).
    pub seq_end: u32,
    /// Preceding group's sequence number on the same server.
    pub prev: u32,
    /// Starting logical block address (48-bit).
    pub lba: u64,
    /// Number of blocks covered (1..=255).
    pub len: u8,
    /// Fragment ordinal within a split request (0 when not split).
    pub split_idx: u8,
    /// Whether the data blocks are known durable.
    pub persist: bool,
    /// Device index within the target server this record describes.
    pub ssd: u8,
}

use crate::crc::crc16;

impl PmrRecord {
    /// Size of an encoded record in bytes.
    pub const SIZE: usize = 32;

    /// Magic byte identifying a record.
    pub const MAGIC: u8 = 0xA7;

    /// Byte offset of the persist flag within the record (the target
    /// driver toggles exactly this byte, §4.3.2 step 7).
    pub const PERSIST_OFFSET: usize = 30;

    /// Maximum LBA representable (48 bits).
    pub const MAX_LBA: u64 = (1 << 48) - 1;

    /// Serializes to the 32-byte image.
    ///
    /// # Panics
    ///
    /// Panics if `lba` exceeds 48 bits, `len` is zero, or
    /// `seq_end < seq_start`.
    pub fn encode(&self) -> [u8; Self::SIZE] {
        assert!(self.lba <= Self::MAX_LBA, "lba exceeds 48 bits");
        assert!(self.len > 0, "empty record range");
        assert!(self.seq_end >= self.seq_start, "inverted sequence range");
        let mut out = [0u8; Self::SIZE];
        out[0] = Self::MAGIC;
        out[1] = self.generation;
        out[2] = self.flags.to_byte();
        out[3] = self.member_idx;
        out[4..6].copy_from_slice(&self.num.to_le_bytes());
        out[6..8].copy_from_slice(&self.stream.to_le_bytes());
        out[8..12].copy_from_slice(&self.seq_start.to_le_bytes());
        out[12..16].copy_from_slice(&self.seq_end.to_le_bytes());
        out[16..20].copy_from_slice(&self.prev.to_le_bytes());
        out[20..26].copy_from_slice(&self.lba.to_le_bytes()[0..6]);
        out[26] = self.len;
        out[27] = self.split_idx;
        let ck = crc16(&out[0..28]);
        out[28..30].copy_from_slice(&ck.to_le_bytes());
        out[30] = self.persist as u8;
        out[31] = self.ssd;
        out
    }

    /// Parses a 32-byte image; `None` on bad magic or checksum (a torn or
    /// never-written slot), and on an empty block range or an inverted
    /// sequence range — nothing [`PmrRecord::encode`] writes, so a
    /// CRC-16 collision on a torn slot, not a record.
    pub fn decode(bytes: &[u8; Self::SIZE]) -> Option<Self> {
        if bytes[0] != Self::MAGIC {
            return None;
        }
        let ck = u16::from_le_bytes([bytes[28], bytes[29]]);
        if ck != crc16(&bytes[0..28]) {
            return None;
        }
        let mut lba_bytes = [0u8; 8];
        lba_bytes[0..6].copy_from_slice(&bytes[20..26]);
        let rec = PmrRecord {
            generation: bytes[1],
            flags: RecordFlags::from_byte(bytes[2]),
            member_idx: bytes[3],
            num: u16::from_le_bytes([bytes[4], bytes[5]]),
            stream: u16::from_le_bytes([bytes[6], bytes[7]]),
            seq_start: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            seq_end: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
            prev: u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]),
            lba: u64::from_le_bytes(lba_bytes),
            len: bytes[26],
            split_idx: bytes[27],
            persist: bytes[30] != 0,
            ssd: bytes[31],
        };
        (rec.len > 0 && rec.seq_end >= rec.seq_start).then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> PmrRecord {
        PmrRecord {
            generation: 3,
            flags: RecordFlags {
                boundary: true,
                split: false,
                ipu: false,
                flush: true,
                last_split: false,
            },
            member_idx: 1,
            num: 2,
            stream: 7,
            seq_start: 100,
            seq_end: 100,
            prev: 99,
            lba: 0x0000_1234_5678,
            len: 8,
            split_idx: 0,
            persist: false,
            ssd: 1,
        }
    }

    #[test]
    fn round_trip() {
        let r = sample();
        assert_eq!(PmrRecord::decode(&r.encode()), Some(r));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample().encode();
        b[0] = 0x00;
        assert_eq!(PmrRecord::decode(&b), None);
    }

    #[test]
    fn torn_body_rejected_by_checksum() {
        let mut b = sample().encode();
        b[9] ^= 0xff; // Corrupt a seq byte (0x00 -> 0xFF, the Fletcher blind spot).
        assert_eq!(PmrRecord::decode(&b), None);
    }

    #[test]
    fn persist_toggle_is_single_byte_and_checksum_free() {
        let r = sample();
        let mut b = r.encode();
        // Toggling persist is exactly one byte...
        b[PmrRecord::PERSIST_OFFSET] = 1;
        // ...and the record still decodes (checksum excludes it).
        let decoded = PmrRecord::decode(&b).expect("persist toggle must not invalidate");
        assert!(decoded.persist);
        assert_eq!(PmrRecord { persist: true, ..r }, decoded);
    }

    #[test]
    fn zeroed_slot_is_invalid() {
        let b = [0u8; PmrRecord::SIZE];
        assert_eq!(PmrRecord::decode(&b), None);
    }

    #[test]
    #[should_panic(expected = "lba exceeds 48 bits")]
    fn oversized_lba_rejected() {
        let r = PmrRecord {
            lba: 1 << 48,
            ..sample()
        };
        let _ = r.encode();
    }

    #[test]
    #[should_panic(expected = "empty record range")]
    fn empty_record_rejected() {
        let r = PmrRecord { len: 0, ..sample() };
        let _ = r.encode();
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            generation in any::<u8>(),
            member_idx in any::<u8>(),
            split_idx in any::<u8>(),
            num in any::<u16>(),
            stream in any::<u16>(),
            seq_start in any::<u32>(),
            extra in 0u32..100,
            prev in any::<u32>(),
            lba in 0u64..(1 << 48),
            len in 1u8..=255,
            persist in any::<bool>(),
            ssd in any::<u8>(),
            fb in 0u8..32,
        ) {
            let r = PmrRecord {
                generation,
                flags: RecordFlags::from_byte(fb),
                member_idx,
                num,
                stream,
                seq_start,
                seq_end: seq_start.saturating_add(extra),
                prev,
                lba,
                len,
                split_idx,
                persist,
                ssd,
            };
            prop_assert_eq!(PmrRecord::decode(&r.encode()), Some(r));
        }

        /// Any single-bit corruption of the checksummed body is caught.
        #[test]
        fn prop_single_bit_flip_detected(bit in 0usize..(28 * 8)) {
            let mut b = sample().encode();
            b[bit / 8] ^= 1 << (bit % 8);
            let decoded = PmrRecord::decode(&b);
            prop_assert_eq!(decoded, None);
        }
    }
}
