//! Shared checksum implementations and the per-command payload digest.
//!
//! One audited home for every cyclic-redundancy check the stack uses:
//!
//! * [`crc16`] — CRC-16/CCITT-FALSE, the 32-byte PMR record body
//!   checksum (torn-write detection on the persistent ordering log,
//!   §4.3.2). Chosen over Fletcher-16, whose mod-255 arithmetic cannot
//!   distinguish 0x00 from 0xFF bytes — exactly the corruption a torn
//!   write of a zero-filled slot produces. Slicing-by-4 over four
//!   256-entry tables: the compiler already lowers the textbook
//!   shift-and-branch loop to a one-table byte loop, and an explicit
//!   one-table loop measured no faster (85–88 ns → 96–110 ns per
//!   record encode + decode), so only the sliced form earns its
//!   tables (29–30 ns).
//! * [`crc32c`] — CRC-32C (Castagnoli), the payload checksum used for
//!   per-command digests on the wire and per-block seals on media.
//!   Castagnoli is what NVMe end-to-end protection and iSCSI use.
//!   [`crc32c_update`] is four stages, chosen by the input's length
//!   alone:
//!   1. *Page loop.* Every whole 4 096-byte page — a block held as
//!      bytes: real data, or a torn or rotted payload block — runs as
//!      two 2 048-byte lanes in one loop: two registers that do not
//!      depend on each other, each advanced by the slicing-by-16 step,
//!      so one lane's table lookups fill the load slots the other's
//!      dependent update leaves idle. (A payload block held as its seed
//!      never comes here: [`crate::payload::seal_for`] looks its CRC up.)
//!   2. *Lane join.* The register update is linear over GF(2), so
//!      `crc(A‖B) = shift_|B|(crc(A)) ⊕ crc₀(B)`: the first lane goes
//!      through a `const` "advance by 2 048 zero bytes" operator and is
//!      xor-ed with the second, which started from zero.
//!   3. *Sliced remainder.* What is shorter than a page takes one
//!      register through the same step (sixteen input bytes, each
//!      looked up in its own table), then at most one eight-byte half
//!      step — so the 8-byte seeds of [`PayloadDigest::over_seeds`]
//!      never fall to the byte loop. The half step is a `const fn`, the
//!      one the payload module's seal tables are built with.
//!   4. *Bytewise tail* for the last `< 8` bytes — also the oracle the
//!      tests compare every other stage against.
//!
//!   Every input keeps the value the bytewise loop gives it. Two lanes
//!   is the measured choice: one lane runs a warm 4 KB block in
//!   2.2 µs, two in 1.2 µs. Four are faster still in isolation
//!   (0.95–1.0 µs) but an integrity run end to end was no faster with
//!   them (EXPERIMENTS.md, "Integrity data path II") — only two ship.
//!   Slicing-by-8 was measured beside slicing-by-16 on one lane
//!   (1.34–1.41 against 1.79–1.84 GB/s); only the wider step ships.
//!
//! Every table here and in [`crate::payload`] is `const`-built — nothing
//! is initialised or allocated at run time, which CI checks by grep —
//! and all of it is safe Rust without intrinsics.
//!
//! [`PayloadDigest`] wraps a CRC-32C over a command's payload and is
//! stamped at submission when the cluster runs with integrity checking
//! enabled; the zero value doubles as the "integrity off" sentinel so
//! untouched commands carry no digest state.

/// CRC-16/CCITT-FALSE slicing tables: `[k][b]` is the register after
/// shifting byte `b`, then `k` zero bytes, through an all-zero
/// register. `[0]` is the classic one-entry-per-byte table.
const CRC16_TABLES: [[u16; 256]; 4] = build_crc16_tables();

const fn build_crc16_tables() -> [[u16; 256]; 4] {
    let mut tables = [[0u16; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-16/CCITT-FALSE over `data` (init `0xFFFF`, poly `0x1021`, no
/// reflection, no final xor); the check value of `"123456789"` is
/// `0x29B1`.
///
/// Slicing-by-4: four input bytes per step, one independent table
/// lookup each (the 28-byte PMR record body is exactly seven steps),
/// then a byte-at-a-time tail. The register lives in a `u32` — 16-bit
/// arithmetic costs x86 a partial-register merge per byte.
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut crc: u32 = 0xFFFF;
    let mut steps = data.chunks_exact(4);
    for c in &mut steps {
        let word = (crc << 16) ^ u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        crc = (t[3][(word >> 24) as usize]
            ^ t[2][((word >> 16) & 0xFF) as usize]
            ^ t[1][((word >> 8) & 0xFF) as usize]
            ^ t[0][(word & 0xFF) as usize]) as u32;
    }
    for &byte in steps.remainder() {
        let top = (crc >> 8) ^ byte as u32;
        crc = ((crc << 8) & 0xFFFF) ^ t[0][(top & 0xFF) as usize] as u32;
    }
    crc as u16
}

/// Bytes the CRC-32C kernel folds per step.
const SLICES: usize = 16;

/// Reflected CRC-32C (Castagnoli) slicing tables. `[0]` is the classic
/// one-entry-per-byte table; `[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so one step can look up all [`SLICES`]
/// input bytes independently and xor the results.
const CRC32C_TABLES: [[u32; 256]; SLICES] = build_crc32c_tables();

const fn build_crc32c_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One table lookup per byte — the tail handler of the sliced kernel
/// (and the oracle its tests compare against).
fn crc32c_bytewise(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Looks up the four bytes of little-endian `word` when `after` more
/// bytes of the same step follow it: a byte with `k` bytes behind it
/// in the step reads table `k`.
#[inline(always)]
const fn slice4(word: u32, after: usize) -> u32 {
    let t = &CRC32C_TABLES;
    t[after + 3][(word & 0xFF) as usize]
        ^ t[after + 2][((word >> 8) & 0xFF) as usize]
        ^ t[after + 1][((word >> 16) & 0xFF) as usize]
        ^ t[after][(word >> 24) as usize]
}

/// The little-endian word in the first eight bytes of `bytes`.
pub(crate) fn le64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// One slicing-by-16 step: folds the sixteen bytes `lo ‖ hi` (each
/// little-endian) into `crc`, one independent table lookup per byte.
#[inline(always)]
fn step16(crc: u32, lo: u64, hi: u64) -> u32 {
    slice4(lo as u32 ^ crc, 12)
        ^ slice4((lo >> 32) as u32, 8)
        ^ slice4(hi as u32, 4)
        ^ slice4((hi >> 32) as u32, 0)
}

/// Half a step: folds the eight bytes of little-endian `word` into
/// `crc`. `const`, so [`crate::payload`] builds its seal tables with it.
#[inline(always)]
pub(crate) const fn step8(crc: u32, word: u64) -> u32 {
    slice4(word as u32 ^ crc, 4) ^ slice4((word >> 32) as u32, 0)
}

/// Bytes per lane of the page loop.
const LANE_BYTES: usize = 2048;

/// The page loop walks whole blocks of this many bytes as two lanes.
const PAGE_BYTES: usize = 2 * LANE_BYTES;

/// "Advance the register by [`LANE_BYTES`] zero bytes" as four byte
/// tables: the operator is linear over GF(2), so the image of a
/// register is the xor of the images of its four bytes.
const LANE_SHIFT: [[u32; 256]; 4] = build_lane_shift();

/// Applies a GF(2) operator given by the images of the 32 unit
/// registers.
const fn gf2_apply(op: &[u32; 32], mut x: u32) -> u32 {
    let mut out = 0;
    let mut bit = 0;
    while x != 0 {
        if x & 1 != 0 {
            out ^= op[bit];
        }
        x >>= 1;
        bit += 1;
    }
    out
}

const fn build_lane_shift() -> [[u32; 256]; 4] {
    // The one-zero-byte operator, squared eleven times: 2^11 = 2 048.
    let mut op = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let x = 1u32 << bit;
        op[bit] = (x >> 8) ^ CRC32C_TABLES[0][(x & 0xFF) as usize];
        bit += 1;
    }
    let mut bytes = 1;
    while bytes < LANE_BYTES {
        let mut squared = [0u32; 32];
        let mut bit = 0;
        while bit < 32 {
            squared[bit] = gf2_apply(&op, op[bit]);
            bit += 1;
        }
        op = squared;
        bytes *= 2;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = gf2_apply(&op, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Joins two lanes: the register after `first`'s bytes followed by the
/// [`LANE_BYTES`] bytes that took a zero register to `second`.
#[inline(always)]
fn join_lanes(first: u32, second: u32) -> u32 {
    let t = &LANE_SHIFT;
    t[0][(first & 0xFF) as usize]
        ^ t[1][((first >> 8) & 0xFF) as usize]
        ^ t[2][((first >> 16) & 0xFF) as usize]
        ^ t[3][(first >> 24) as usize]
        ^ second
}

/// Folds `data` into a running CRC-32C state (use [`crc32c`] for the
/// one-shot form). The state is the raw shift-register value: start
/// from `!0` and invert the final state yourself, or let the wrappers
/// do it.
///
/// Whole 4 096-byte pages run as two lanes, the rest through one
/// register and the bytewise tail (see the module documentation);
/// which stages run depends on `data.len()` only, and every input
/// keeps the value the bytewise loop gives it.
pub fn crc32c_update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut pages = data.chunks_exact(PAGE_BYTES);
    for page in &mut pages {
        let (first, second) = page.split_at(LANE_BYTES);
        let mut lane = 0;
        for (a, b) in first.chunks_exact(SLICES).zip(second.chunks_exact(SLICES)) {
            crc = step16(crc, le64(a), le64(&a[8..]));
            lane = step16(lane, le64(b), le64(&b[8..]));
        }
        crc = join_lanes(crc, lane);
    }
    let mut steps = pages.remainder().chunks_exact(SLICES);
    for c in &mut steps {
        crc = step16(crc, le64(c), le64(&c[8..]));
    }
    let mut rest = steps.remainder();
    if rest.len() >= 8 {
        crc = step8(crc, le64(rest));
        rest = &rest[8..];
    }
    crc32c_bytewise(crc, rest)
}

/// CRC-32C (Castagnoli) over `data` — reflected, init `!0`, final xor
/// `!0`; the check value of `"123456789"` is `0xE3069283`.
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_update(!0, data)
}

/// A CRC-32C digest over one command's payload bytes, stamped at
/// submission and carried with the command so the receiver can verify
/// what the fabric delivered.
///
/// The zero digest is the "no digest" sentinel commands carry when the
/// cluster runs without integrity checking — stamping and verification
/// are both skipped, so the integrity machinery is free when off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PayloadDigest(pub u32);

impl PayloadDigest {
    /// The sentinel carried by commands of integrity-off runs.
    pub const NONE: PayloadDigest = PayloadDigest(0);

    /// Digest over a sequence of per-block payload seeds (the compact
    /// wire form: each 4 KB block is generated from its 8-byte seed,
    /// so the command digest covers the seeds in order).
    pub fn over_seeds<I: IntoIterator<Item = u64>>(seeds: I) -> Self {
        let mut state = !0u32;
        for seed in seeds {
            state = crc32c_update(state, &seed.to_le_bytes());
        }
        PayloadDigest(!state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{block_for, BLOCK_BYTES};
    use rio_sim::SimRng;

    /// The shift-and-branch definition of CRC-16/CCITT-FALSE the table
    /// is checked against.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= (byte as u16) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    #[test]
    fn crc16_check_value() {
        // CRC-16/CCITT-FALSE standard check input.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn crc16_table_matches_bitwise_form() {
        for seed in 0..64u64 {
            let block = block_for(seed);
            // Every length up to past the 28-byte PMR record body, at a
            // seed-dependent offset, plus one long input.
            for len in 0..=40 {
                let at = (seed as usize * 61) % (BLOCK_BYTES - 40);
                let data = &block[at..at + len];
                assert_eq!(crc16(data), crc16_bitwise(data), "seed {seed} len {len}");
            }
            assert_eq!(crc16(&block), crc16_bitwise(&block));
        }
    }

    #[test]
    fn crc32c_check_value() {
        // CRC-32C (Castagnoli) standard check input.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 §B.4.
        assert_eq!(crc32c(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..32).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    /// `len` payload-stream bytes (any deterministic noise will do).
    fn noise(len: usize) -> Vec<u8> {
        (0..len.div_ceil(BLOCK_BYTES) as u64)
            .flat_map(|seed| block_for(seed ^ 0xC0FFEE).into_vec())
            .take(len)
            .collect()
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_every_length_and_offset() {
        // Short inputs, then lengths either side of a lane, of one, two
        // and three pages — every stage of the kernel and every
        // hand-over between them.
        let lens = (0..=64)
            .chain(2047..=2049)
            .chain(4095..=4097)
            .chain(8191..=8193)
            .chain([12_293]);
        let buf = noise(12_293 + 16);
        for len in lens {
            for start in 0..16 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32c_update(!0, data),
                    crc32c_bytewise(!0, data),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn lane_join_advances_by_a_lane_of_zero_bytes() {
        let mut rng = SimRng::seed_from_u64(0x1A9E);
        for _ in 0..1000 {
            let x = rng.below(1 << 32) as u32;
            assert_eq!(
                join_lanes(x, 0),
                crc32c_bytewise(x, &[0; LANE_BYTES]),
                "{x:#x}"
            );
        }
        assert_eq!(join_lanes(0, 0xDEAD_BEEF), 0xDEAD_BEEF);
    }

    #[test]
    fn sliced_kernel_matches_bytewise_on_random_blocks() {
        for seed in 0..1000u64 {
            let block = block_for(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let state = seed as u32;
            assert_eq!(
                crc32c_update(state, &block),
                crc32c_bytewise(state, &block),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn crc32c_update_composes() {
        let msg = &block_for(7)[..100];
        // Streaming across page boundaries: 100 cuts of a buffer of two
        // pages and a tail, spread out and bunched around both edges.
        let long = noise(9000);
        let cuts = (0..50).map(|k| k * 180).chain(4084..4109).chain(8180..8205);
        let cuts: Vec<usize> = cuts.collect();
        assert_eq!(cuts.len(), 100);
        for state in [!0u32, 0, 0x1234_5678] {
            let whole = crc32c_update(state, msg);
            for split in 0..=msg.len() {
                let (a, b) = msg.split_at(split);
                assert_eq!(
                    crc32c_update(crc32c_update(state, a), b),
                    whole,
                    "split {split}"
                );
            }
            let whole = crc32c_update(state, &long);
            assert_eq!(whole, crc32c_bytewise(state, &long));
            for &cut in &cuts {
                let (a, b) = long.split_at(cut);
                assert_eq!(
                    crc32c_update(crc32c_update(state, a), b),
                    whole,
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let mut block = vec![0u8; 4096];
        block[17] = 0xA5;
        let good = crc32c(&block);
        for bit in [0usize, 8 * 17 + 3, 8 * 4095 + 7] {
            let mut bad = block.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&bad), good, "bit {bit} undetected");
        }
    }

    #[test]
    fn crc16_position_sensitive() {
        assert_ne!(crc16(&[1, 2, 3]), crc16(&[3, 2, 1]));
        assert_ne!(crc16(&[0x00, 1]), crc16(&[0xff, 1]));
    }

    #[test]
    fn digest_sentinel_and_seed_form() {
        assert_eq!(PayloadDigest::NONE, PayloadDigest::default());
        let d1 = PayloadDigest::over_seeds([1u64, 2, 3]);
        let d2 = PayloadDigest::over_seeds([1u64, 2, 3]);
        let d3 = PayloadDigest::over_seeds([1u64, 3, 2]);
        assert_eq!(d1, d2);
        assert_ne!(d1, d3, "seed order matters");
        assert_ne!(d1, PayloadDigest::NONE);
        // The seed form is the CRC over the concatenated LE bytes.
        let mut bytes = Vec::new();
        for s in [1u64, 2, 3] {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        assert_eq!(d1, PayloadDigest(crc32c(&bytes)));
    }
}
