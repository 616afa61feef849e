//! NVMe / NVMe-over-Fabrics wire formats, including Rio's extension.
//!
//! Rio transfers ordering attributes inside the *reserved* fields of the
//! standard NVMe-oF I/O command (paper Table 1, atop the NVMe 1.4
//! specification). This crate provides bit-exact encode/decode of:
//!
//! * the 64-byte submission queue entry ([`Sqe`]),
//! * the 16-byte completion queue entry ([`Cqe`]),
//! * the Rio ordering extension carried in the reserved dwords
//!   ([`RioExt`]),
//! * the 32-byte persistent-ordering-attribute record written to the PMR
//!   log ([`pmr_record::PmrRecord`]),
//! * the shared checksum suite and per-command payload digest
//!   ([`crc`]), and the deterministic payload-block generator behind
//!   end-to-end data-integrity checks ([`payload`]).
//!
//! Everything here is pure data manipulation: no I/O, no simulation
//! dependencies, fully round-trip tested.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cqe;
pub mod crc;
pub mod opcode;
pub mod payload;
pub mod pmr_record;
pub mod rio_ext;
pub mod sqe;

pub use cqe::{Cqe, Status};
pub use crc::{crc16, crc32c, crc32c_update, PayloadDigest};
pub use opcode::{NvmOpcode, RioOpcode};
pub use pmr_record::PmrRecord;
pub use rio_ext::{RioExt, RioFlags};
pub use sqe::Sqe;
