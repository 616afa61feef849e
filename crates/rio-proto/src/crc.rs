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
//!   [`crc32c_update`] folds eight little-endian bytes per step
//!   (slicing-by-8, one table lookup per byte) and hands the last
//!   `< 8` bytes to the bytewise loop, the oracle its tests compare
//!   against. The step is a `const fn`: the payload module builds its
//!   seal tables with it and [`PayloadDigest::over_seeds`] folds each
//!   seed through it. A payload block held as its seed never comes here
//!   ([`crate::payload::seal_for`] looks its CRC up), so the only
//!   whole-block inputs are the two torn blocks an integrity run reads
//!   as bytes; a wider kernel (slicing-by-16, two lanes per page) had no
//!   traffic to speed up (EXPERIMENTS.md, "CRC-32C: one step").
//!
//! Every table here and in [`crate::payload`] is `const`-built — nothing
//! is initialised or allocated at run time, which rio-lint's G6 checks —
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
const SLICES: usize = 8;

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

/// One step: folds the eight bytes of little-endian `word` into `crc`.
/// `const`, so [`crate::payload`] builds its seal tables with it.
#[inline(always)]
pub(crate) const fn step8(crc: u32, word: u64) -> u32 {
    slice4(word as u32 ^ crc, 4) ^ slice4((word >> 32) as u32, 0)
}

/// Folds `data` into a running CRC-32C state (use [`crc32c`] for the
/// one-shot form). The state is the raw shift-register value: start
/// from `!0` and invert the final state yourself, or let the wrappers
/// do it. Every input keeps the value the bytewise loop gives it.
pub fn crc32c_update(state: u32, data: &[u8]) -> u32 {
    let mut steps = data.chunks_exact(SLICES);
    let crc = (&mut steps).fold(state, |crc, c| step8(crc, le64(c)));
    crc32c_bytewise(crc, steps.remainder())
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
        PayloadDigest(!seeds.into_iter().fold(!0, step8))
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
        // Every short length (each tail after each count of whole
        // steps), then lengths around 2, 4 and 8 KiB and one past
        // 12 KiB — long runs of steps ending in every tail.
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
        // Streaming through a long input: 100 cuts of a 9 000-byte
        // buffer, spread out and bunched around 4 KiB and 8 KiB, so the
        // cuts fall at every offset within a step.
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
        // So is every seeded list, the empty one included.
        let mut rng = SimRng::seed_from_u64(0x5EED);
        for len in 0..=64 {
            let seeds: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let bytes: Vec<u8> = seeds.iter().flat_map(|s| s.to_le_bytes()).collect();
            assert_eq!(
                PayloadDigest::over_seeds(seeds.iter().copied()),
                PayloadDigest(crc32c(&bytes)),
                "{len} seeds"
            );
        }
    }

    #[test]
    fn crc32c_tables_are_eight_kib() {
        assert_eq!(std::mem::size_of_val(&CRC32C_TABLES), 8192);
    }
}
