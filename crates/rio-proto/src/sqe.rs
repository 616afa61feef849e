//! The 64-byte NVMe submission queue entry.
//!
//! Only the fields the simulator and the Rio extension touch are given
//! accessors; the rest of the entry is preserved verbatim so that
//! encoding is loss-free.

use crate::opcode::NvmOpcode;

/// A 64-byte submission queue entry as 16 little-endian dwords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sqe {
    /// The 16 command dwords (CDW0..CDW15).
    pub dw: [u32; 16],
}

impl Sqe {
    /// Size of an encoded entry in bytes.
    pub const SIZE: usize = 64;

    /// Creates a zeroed entry with the given opcode.
    pub fn new(op: NvmOpcode) -> Self {
        let mut sqe = Sqe::default();
        sqe.set_opcode(op);
        sqe
    }

    /// Builds a write command for `nlb` logical blocks starting at `slba`.
    ///
    /// `nlb` is stored 0-based per the NVMe spec (`0` means one block).
    ///
    /// # Panics
    ///
    /// Panics if `nlb == 0`.
    pub fn write(cid: u16, slba: u64, nlb: u32) -> Self {
        assert!(nlb > 0, "a write must cover at least one block");
        let mut sqe = Sqe::new(NvmOpcode::Write);
        sqe.set_cid(cid);
        sqe.set_slba(slba);
        sqe.set_nlb(nlb);
        sqe
    }

    /// Builds a flush command.
    pub fn flush(cid: u16) -> Self {
        let mut sqe = Sqe::new(NvmOpcode::Flush);
        sqe.set_cid(cid);
        sqe
    }

    /// Opcode byte (CDW0 bits 0:7).
    pub fn opcode(&self) -> Option<NvmOpcode> {
        NvmOpcode::from_u8((self.dw[0] & 0xff) as u8)
    }

    /// Sets the opcode byte.
    pub fn set_opcode(&mut self, op: NvmOpcode) {
        self.dw[0] = (self.dw[0] & !0xff) | op.as_u8() as u32;
    }

    /// Command identifier (CDW0 bits 16:31).
    pub fn cid(&self) -> u16 {
        (self.dw[0] >> 16) as u16
    }

    /// Sets the command identifier.
    pub fn set_cid(&mut self, cid: u16) {
        self.dw[0] = (self.dw[0] & 0x0000_ffff) | ((cid as u32) << 16);
    }

    /// Starting LBA (CDW10 low, CDW11 high).
    pub fn slba(&self) -> u64 {
        (self.dw[10] as u64) | ((self.dw[11] as u64) << 32)
    }

    /// Sets the starting LBA.
    pub fn set_slba(&mut self, slba: u64) {
        self.dw[10] = slba as u32;
        self.dw[11] = (slba >> 32) as u32;
    }

    /// Number of logical blocks, 1-based (decoded from the 0-based field
    /// in CDW12 bits 0:15).
    pub fn nlb(&self) -> u32 {
        (self.dw[12] & 0xffff) + 1
    }

    /// Sets the block count (1-based; stored 0-based).
    ///
    /// # Panics
    ///
    /// Panics if `nlb` is zero or exceeds 65 536.
    pub fn set_nlb(&mut self, nlb: u32) {
        assert!((1..=0x1_0000).contains(&nlb), "nlb out of range: {nlb}");
        self.dw[12] = (self.dw[12] & !0xffff) | (nlb - 1);
    }

    /// Force Unit Access bit (CDW12 bit 30).
    pub fn fua(&self) -> bool {
        self.dw[12] & (1 << 30) != 0
    }

    /// Sets the Force Unit Access bit.
    #[cfg(test)]
    pub fn set_fua(&mut self, fua: bool) {
        if fua {
            self.dw[12] |= 1 << 30;
        } else {
            self.dw[12] &= !(1 << 30);
        }
    }

    /// Serializes to the 64-byte little-endian wire image.
    pub fn encode(&self) -> [u8; Self::SIZE] {
        let mut out = [0u8; Self::SIZE];
        for (i, dw) in self.dw.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&dw.to_le_bytes());
        }
        out
    }

    /// Parses a 64-byte little-endian wire image.
    pub fn decode(bytes: &[u8; Self::SIZE]) -> Self {
        let mut dw = [0u32; 16];
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            dw[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Sqe { dw }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_command_fields() {
        let sqe = Sqe::write(42, 0x1234_5678_9abc, 8);
        assert_eq!(sqe.opcode(), Some(NvmOpcode::Write));
        assert_eq!(sqe.cid(), 42);
        assert_eq!(sqe.slba(), 0x1234_5678_9abc);
        assert_eq!(sqe.nlb(), 8);
        assert!(!sqe.fua());
    }

    #[test]
    fn flush_command() {
        let sqe = Sqe::flush(7);
        assert_eq!(sqe.opcode(), Some(NvmOpcode::Flush));
        assert_eq!(sqe.cid(), 7);
    }

    #[test]
    fn nlb_is_zero_based_on_wire() {
        let sqe = Sqe::write(0, 0, 1);
        assert_eq!(sqe.dw[12] & 0xffff, 0, "one block encodes as 0");
        assert_eq!(sqe.nlb(), 1);
    }

    #[test]
    fn fua_toggles_only_bit_30() {
        let mut sqe = Sqe::write(0, 0, 16);
        sqe.set_fua(true);
        assert!(sqe.fua());
        assert_eq!(sqe.nlb(), 16, "FUA must not clobber NLB");
        sqe.set_fua(false);
        assert!(!sqe.fua());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_block_write_rejected() {
        let _ = Sqe::write(0, 0, 0);
    }

    #[test]
    fn encode_is_64_bytes_le() {
        let mut sqe = Sqe::write(0xBEEF, 0x0102_0304_0506_0708, 4);
        sqe.dw[15] = 0xAABB_CCDD;
        let bytes = sqe.encode();
        assert_eq!(bytes.len(), 64);
        assert_eq!(bytes[0], 0x01, "opcode byte first");
        assert_eq!(&bytes[60..64], &[0xDD, 0xCC, 0xBB, 0xAA]);
        assert_eq!(Sqe::decode(&bytes), sqe);
    }

    proptest! {
        #[test]
        fn prop_encode_decode_round_trip(dw in proptest::array::uniform16(any::<u32>())) {
            let sqe = Sqe { dw };
            prop_assert_eq!(Sqe::decode(&sqe.encode()), sqe);
        }

        #[test]
        fn prop_field_accessors_preserve_others(
            cid in any::<u16>(),
            slba in any::<u64>(),
            nlb in 1u32..=0x1_0000,
            fua in any::<bool>(),
        ) {
            let mut sqe = Sqe::new(NvmOpcode::Write);
            sqe.set_cid(cid);
            sqe.set_slba(slba);
            sqe.set_nlb(nlb);
            sqe.set_fua(fua);
            prop_assert_eq!(sqe.cid(), cid);
            prop_assert_eq!(sqe.slba(), slba);
            prop_assert_eq!(sqe.nlb(), nlb);
            prop_assert_eq!(sqe.fua(), fua);
            prop_assert_eq!(sqe.opcode(), Some(NvmOpcode::Write));
        }
    }
}
