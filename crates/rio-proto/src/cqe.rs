//! The 16-byte NVMe completion queue entry.

/// Completion status codes used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Status {
    /// Successful completion.
    Success = 0x0,
    /// Generic internal error.
    InternalError = 0x6,
    /// Command aborted (e.g. the target crashed mid-flight).
    Aborted = 0x7,
}

impl Status {
    /// Decodes a status field value.
    pub fn from_u16(v: u16) -> Option<Status> {
        match v {
            0x0 => Some(Status::Success),
            0x6 => Some(Status::InternalError),
            0x7 => Some(Status::Aborted),
            _ => None,
        }
    }
}

/// A 16-byte completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// rio-lint: allow(S6) ROADMAP 6(a): the completion leg carries it once the wire carries codec bytes
pub struct Cqe {
    /// Command-specific result (DW0).
    pub result: u32,
    /// Submission-queue head pointer at completion time.
    pub sq_head: u16,
    /// Submission-queue identifier.
    pub sq_id: u16,
    /// Command identifier being completed.
    pub cid: u16,
    /// Phase tag (toggles per queue wrap).
    pub phase: bool,
    /// Completion status.
    pub status: Status,
}

impl Cqe {
    /// Size of an encoded entry in bytes.
    pub const SIZE: usize = 16;

    /// Builds a successful completion for `cid`.
    pub fn success(cid: u16) -> Self {
        Cqe {
            result: 0,
            sq_head: 0,
            sq_id: 0,
            cid,
            phase: false,
            status: Status::Success,
        }
    }

    /// Builds an aborted completion for `cid`.
    pub fn aborted(cid: u16) -> Self {
        Cqe {
            status: Status::Aborted,
            ..Cqe::success(cid)
        }
    }

    /// Serializes to the 16-byte little-endian wire image.
    pub fn encode(&self) -> [u8; Self::SIZE] {
        let mut out = [0u8; Self::SIZE];
        out[0..4].copy_from_slice(&self.result.to_le_bytes());
        // DW1 is reserved.
        out[8..10].copy_from_slice(&self.sq_head.to_le_bytes());
        out[10..12].copy_from_slice(&self.sq_id.to_le_bytes());
        out[12..14].copy_from_slice(&self.cid.to_le_bytes());
        let sf: u16 = ((self.status as u16) << 1) | self.phase as u16;
        out[14..16].copy_from_slice(&sf.to_le_bytes());
        out
    }

    /// Parses a 16-byte little-endian wire image.
    ///
    /// Returns `None` when the status field holds an unknown code.
    pub fn decode(bytes: &[u8; Self::SIZE]) -> Option<Self> {
        let result = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let sq_head = u16::from_le_bytes([bytes[8], bytes[9]]);
        let sq_id = u16::from_le_bytes([bytes[10], bytes[11]]);
        let cid = u16::from_le_bytes([bytes[12], bytes[13]]);
        let sf = u16::from_le_bytes([bytes[14], bytes[15]]);
        Some(Cqe {
            result,
            sq_head,
            sq_id,
            cid,
            phase: sf & 1 != 0,
            status: Status::from_u16(sf >> 1)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn success_constructor() {
        let cqe = Cqe::success(99);
        assert_eq!(cqe.cid, 99);
        assert_eq!(cqe.status, Status::Success);
    }

    #[test]
    fn aborted_constructor() {
        let cqe = Cqe::aborted(5);
        assert_eq!(cqe.status, Status::Aborted);
    }

    #[test]
    fn encode_layout() {
        let cqe = Cqe {
            result: 0x0102_0304,
            sq_head: 0x1111,
            sq_id: 0x2222,
            cid: 0x3333,
            phase: true,
            status: Status::Success,
        };
        let b = cqe.encode();
        assert_eq!(&b[0..4], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&b[4..8], &[0, 0, 0, 0], "DW1 reserved");
        assert_eq!(u16::from_le_bytes([b[14], b[15]]) & 1, 1, "phase bit");
    }

    #[test]
    fn unknown_status_decodes_to_none() {
        let mut b = Cqe::success(1).encode();
        b[14] = 0xfe; // Status bits become garbage.
        b[15] = 0x7f;
        assert_eq!(Cqe::decode(&b), None);
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            result in any::<u32>(),
            sq_head in any::<u16>(),
            sq_id in any::<u16>(),
            cid in any::<u16>(),
            phase in any::<bool>(),
            status_pick in 0usize..3,
        ) {
            let status = [Status::Success, Status::InternalError, Status::Aborted][status_pick];
            let cqe = Cqe { result, sq_head, sq_id, cid, phase, status };
            prop_assert_eq!(Cqe::decode(&cqe.encode()), Some(cqe));
        }
    }
}
