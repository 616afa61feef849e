//! Rio's NVMe-oF command extension (paper Table 1).
//!
//! Rio passes ordering attributes across the network inside fields of the
//! NVMe-oF write command that the 1.4 specification leaves reserved:
//!
//! | Dword:bits | NVMe-oF 1.4   | Rio NVMe-oF                         |
//! |------------|---------------|-------------------------------------|
//! | 00:10-13   | reserved      | Rio op code (e.g. submit)           |
//! | 02:00-31   | reserved      | start sequence (`seq`)              |
//! | 03:00-31   | reserved      | end sequence (`seq`)                |
//! | 04:00-31   | metadata*     | previous group (`prev`)             |
//! | 05:00-15   | metadata*     | number of requests (`num`)          |
//! | 05:16-31   | metadata*     | stream ID                           |
//! | 12:16-19   | reserved      | special flags (e.g. boundary)       |
//!
//! \* the metadata pointer field of NVMe-oF is reserved, so Rio reuses it.
//!
//! In addition to Table 1, this implementation uses two more reserved
//! dwords — the paper relies on per-QP in-order delivery and does not
//! spell out how fragments and gate ordinals travel:
//!
//! | Dword:bits | Rio NVMe-oF (implementation extension)              |
//! |------------|-----------------------------------------------------|
//! | 13:00-07   | member index within the group                       |
//! | 13:08-15   | split fragment index                                |
//! | 13:16      | last-split flag                                     |
//! | 14:00-31   | per-(stream, server) dispatch ordinal (gate order)  |

use crate::opcode::RioOpcode;
use crate::sqe::Sqe;

/// Special flags carried in dword 12 bits 16:19.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RioFlags {
    /// This request ends its ordered group (the paper's "boundary"/final
    /// request; `num` is only meaningful on boundary requests).
    pub boundary: bool,
    /// This request is a fragment of a split request.
    pub split: bool,
    /// This request is an in-place update (recovery must not roll it
    /// back; the upper layer customises handling, §4.4.2).
    pub ipu: bool,
}

impl RioFlags {
    const BOUNDARY: u32 = 1 << 16;
    const SPLIT: u32 = 1 << 17;
    const IPU: u32 = 1 << 18;
    const MASK: u32 = 0xf << 16;

    fn to_bits(self) -> u32 {
        let mut v = 0;
        if self.boundary {
            v |= Self::BOUNDARY;
        }
        if self.split {
            v |= Self::SPLIT;
        }
        if self.ipu {
            v |= Self::IPU;
        }
        v
    }

    fn from_bits(dw12: u32) -> Self {
        RioFlags {
            boundary: dw12 & Self::BOUNDARY != 0,
            split: dw12 & Self::SPLIT != 0,
            ipu: dw12 & Self::IPU != 0,
        }
    }
}

/// The decoded Rio extension of an NVMe-oF command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RioExt {
    /// Rio sub-opcode.
    pub op: RioOpcode,
    /// First global sequence number covered by this command.
    pub seq_start: u32,
    /// Last global sequence number covered (equals `seq_start` unless the
    /// command is a merge of several consecutive groups).
    pub seq_end: u32,
    /// Sequence number of the preceding group on the same target server.
    pub prev: u32,
    /// Number of requests in the group (meaningful on boundary requests).
    pub num: u16,
    /// Stream identifier.
    pub stream: u16,
    /// Special flags.
    pub flags: RioFlags,
    /// Ordinal of this request within its group (implementation
    /// extension, dword 13 bits 0:7).
    pub member_idx: u8,
    /// Fragment ordinal within a split request (dword 13 bits 8:15).
    pub split_idx: u8,
    /// Last fragment of a split request (dword 13 bit 16).
    pub last_split: bool,
    /// Per-(stream, server) dispatch ordinal used by the target's
    /// in-order submission gate (dword 14).
    pub dispatch_idx: u32,
}

impl RioExt {
    /// Embeds the extension into a command's reserved fields.
    ///
    /// # Panics
    ///
    /// Panics if `seq_end < seq_start`.
    pub fn embed(&self, sqe: &mut Sqe) {
        assert!(self.seq_end >= self.seq_start, "inverted sequence range");
        sqe.dw[0] = (sqe.dw[0] & !(0xf << 10)) | ((self.op.as_bits() as u32) << 10);
        sqe.dw[2] = self.seq_start;
        sqe.dw[3] = self.seq_end;
        sqe.dw[4] = self.prev;
        sqe.dw[5] = (self.num as u32) | ((self.stream as u32) << 16);
        sqe.dw[12] = (sqe.dw[12] & !RioFlags::MASK) | self.flags.to_bits();
        sqe.dw[13] = (self.member_idx as u32)
            | ((self.split_idx as u32) << 8)
            | ((self.last_split as u32) << 16);
        sqe.dw[14] = self.dispatch_idx;
    }

    /// Extracts the extension from a command; `None` when the Rio opcode
    /// field is zero (a plain orderless NVMe-oF command) or the sequence
    /// range is inverted (nothing [`RioExt::embed`] writes; corrupt bytes).
    pub fn extract(sqe: &Sqe) -> Option<RioExt> {
        let op = RioOpcode::from_bits(((sqe.dw[0] >> 10) & 0xf) as u8)?;
        (sqe.dw[3] >= sqe.dw[2]).then_some(RioExt {
            op,
            seq_start: sqe.dw[2],
            seq_end: sqe.dw[3],
            prev: sqe.dw[4],
            num: (sqe.dw[5] & 0xffff) as u16,
            stream: (sqe.dw[5] >> 16) as u16,
            flags: RioFlags::from_bits(sqe.dw[12]),
            member_idx: (sqe.dw[13] & 0xff) as u8,
            split_idx: ((sqe.dw[13] >> 8) & 0xff) as u8,
            last_split: sqe.dw[13] & (1 << 16) != 0,
            dispatch_idx: sqe.dw[14],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::NvmOpcode;
    use proptest::prelude::*;

    fn sample_ext() -> RioExt {
        RioExt {
            op: RioOpcode::Submit,
            seq_start: 17,
            seq_end: 19,
            prev: 12,
            num: 3,
            stream: 5,
            flags: RioFlags {
                boundary: true,
                split: false,
                ipu: false,
            },
            member_idx: 2,
            split_idx: 0,
            last_split: false,
            dispatch_idx: 41,
        }
    }

    #[test]
    fn embed_extract_round_trip() {
        let mut sqe = Sqe::write(9, 1000, 8);
        sample_ext().embed(&mut sqe);
        assert_eq!(RioExt::extract(&sqe), Some(sample_ext()));
    }

    #[test]
    fn plain_command_has_no_ext() {
        let sqe = Sqe::write(1, 0, 1);
        assert_eq!(RioExt::extract(&sqe), None);
    }

    #[test]
    fn embed_preserves_standard_fields() {
        let mut sqe = Sqe::write(0x1234, 0xDEAD_BEEF, 16);
        sqe.set_fua(true);
        sample_ext().embed(&mut sqe);
        assert_eq!(sqe.opcode(), Some(NvmOpcode::Write));
        assert_eq!(sqe.cid(), 0x1234);
        assert_eq!(sqe.slba(), 0xDEAD_BEEF);
        assert_eq!(sqe.nlb(), 16);
        assert!(sqe.fua(), "FUA (dw12 bit 30) must survive flag embedding");
    }

    #[test]
    fn table1_field_positions_are_exact() {
        let mut sqe = Sqe::new(NvmOpcode::Write);
        RioExt {
            op: RioOpcode::Submit,
            seq_start: 0xAAAA_AAAA,
            seq_end: 0xBBBB_BBBB,
            prev: 0xCCCC_CCCC,
            num: 0x1122,
            stream: 0x3344,
            flags: RioFlags {
                boundary: true,
                split: true,
                ipu: true,
            },
            member_idx: 0xAB,
            split_idx: 0xCD,
            last_split: true,
            dispatch_idx: 0xDEAD_BEEF,
        }
        .embed(&mut sqe);
        // Dword 00 bits 10:13 = opcode 0x1.
        assert_eq!((sqe.dw[0] >> 10) & 0xf, 0x1);
        // Dwords 2..5 carry seq/prev/num/stream exactly as Table 1 states.
        assert_eq!(sqe.dw[2], 0xAAAA_AAAA);
        assert_eq!(sqe.dw[3], 0xBBBB_BBBB);
        assert_eq!(sqe.dw[4], 0xCCCC_CCCC);
        assert_eq!(sqe.dw[5] & 0xffff, 0x1122);
        assert_eq!(sqe.dw[5] >> 16, 0x3344);
        // Dword 12 bits 16:19 carry the three flags.
        assert_eq!((sqe.dw[12] >> 16) & 0xf, 0b111);
        // Implementation-extension dwords.
        assert_eq!(sqe.dw[13] & 0xff, 0xAB);
        assert_eq!((sqe.dw[13] >> 8) & 0xff, 0xCD);
        assert_eq!(sqe.dw[13] >> 16 & 1, 1);
        assert_eq!(sqe.dw[14], 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "inverted sequence range")]
    fn inverted_range_rejected() {
        let mut sqe = Sqe::new(NvmOpcode::Write);
        RioExt {
            seq_start: 5,
            seq_end: 4,
            ..sample_ext()
        }
        .embed(&mut sqe);
    }

    proptest! {
        #[test]
        fn prop_ext_round_trip(
            seq_start in any::<u32>(),
            extra in 0u32..1000,
            prev in any::<u32>(),
            num in any::<u16>(),
            stream in any::<u16>(),
            boundary in any::<bool>(),
            split in any::<bool>(),
            ipu in any::<bool>(),
            member_idx in any::<u8>(),
            split_idx in any::<u8>(),
            last_split in any::<bool>(),
            dispatch_idx in any::<u32>(),
        ) {
            let ext = RioExt {
                op: RioOpcode::Submit,
                seq_start,
                seq_end: seq_start.saturating_add(extra),
                prev,
                num,
                stream,
                flags: RioFlags { boundary, split, ipu },
                member_idx,
                split_idx,
                last_split,
                dispatch_idx,
            };
            let mut sqe = Sqe::write(3, 77, 4);
            ext.embed(&mut sqe);
            // Round-trips through the byte-level wire image too.
            let decoded = Sqe::decode(&sqe.encode());
            prop_assert_eq!(RioExt::extract(&decoded), Some(ext));
        }
    }
}
