//! Deterministic 4 KB payload blocks for end-to-end data-integrity
//! checks.
//!
//! The simulated stack does not ship application bytes through every
//! queue, nor keep them on media — it ships and stores a compact 8-byte
//! *seed* per block and materialises the full 4 KB image only where
//! bytes are read: a torn write or bit rot that damages the block, and
//! tests that read media back. A block's bytes are a pure function of
//! its seed: little-endian word 0 is the seed itself, and word `i ≥ 1`
//! is the `i`-th output of the textbook SplitMix64 stream seeded with
//! it, `mix64(seed + i·γ)` — a counter advanced by the golden-ratio
//! increment, then the two-multiply finaliser. No word depends on
//! another, so any part of a block can be generated or checked on its
//! own and the multiplies of neighbouring words overlap in the
//! pipeline. "The recovered bytes equal the submitted bytes" is
//! checkable from the block alone: re-derive the stream from the
//! embedded seed and compare.
//!
//! Any in-flight or at-rest corruption breaks one of two checks:
//!
//! * the CRC-32C seal over the stored bytes (torn writes, bit rot),
//! * the regenerate-and-compare against the embedded seed (which also
//!   catches a hypothetical coherent overwrite with a valid seal).
//!
//! The device seals a block from its seed alone: [`seal_for`] generates
//! the two halves of the block side by side and feeds each word to its
//! CRC lane straight from the register it was computed in, storing
//! nothing.

use crate::crc::{join_lanes, le64, step16, LANE_BYTES};

/// Payload block size in bytes (one logical block everywhere in the
/// repository).
pub const BLOCK_BYTES: usize = 4096;

// `seal_for` feeds a block to the CRC as one two-lane page.
const _: () = assert!(BLOCK_BYTES == 2 * LANE_BYTES);

/// SplitMix64's counter increment (2⁶⁴ / φ, odd).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finaliser.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Little-endian word `i` of the payload image of `seed`.
#[inline(always)]
fn word(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        mix64(seed.wrapping_add((i as u64).wrapping_mul(GAMMA)))
    }
}

/// Derives the payload seed of one block from its command identity:
/// the ordered stream, the command tag (group sequence for ordered
/// commands, unit id for plain ones) and the physical block address.
pub fn seed_for(stream: u16, tag: u64, lba: u64) -> u64 {
    mix64((((stream as u64) << 48) ^ tag.rotate_left(16) ^ lba).wrapping_add(GAMMA))
}

/// Fills `out` with the words of `seed`'s payload image from word
/// `first` on.
fn fill_words(seed: u64, first: usize, out: &mut [u8]) {
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&word(seed, first + i).to_le_bytes());
    }
}

/// Fills `out` (`BLOCK_BYTES` long) with the payload image of `seed`:
/// the seed itself little-endian in bytes `0..8`, then the SplitMix64
/// stream of the seed.
///
/// # Panics
///
/// Panics if `out` is not exactly [`BLOCK_BYTES`] long.
pub fn fill_block(seed: u64, out: &mut [u8]) {
    assert_eq!(out.len(), BLOCK_BYTES, "payload blocks are 4 KB");
    fill_words(seed, 0, out);
}

/// Materialises the payload image of `seed` as an owned block.
pub fn block_for(seed: u64) -> Box<[u8]> {
    let mut v = vec![0u8; BLOCK_BYTES];
    fill_block(seed, &mut v);
    v.into_boxed_slice()
}

/// The CRC-32C of the payload image of `seed` — [`crate::crc32c`] over
/// [`block_for`]'s bytes — without materialising them.
///
/// The two halves are generated side by side, one per lane of the
/// CRC's page loop, and every word is folded into its lane from the
/// register it was computed in.
pub fn seal_for(seed: u64) -> u32 {
    let (mut crc, mut lane) = (!0u32, 0u32);
    for i in (0..LANE_BYTES / 8).step_by(2) {
        let at = LANE_BYTES / 8 + i;
        crc = step16(crc, word(seed, i), word(seed, i + 1));
        lane = step16(lane, word(seed, at), word(seed, at + 1));
    }
    !join_lanes(crc, lane)
}

/// The seed embedded in a payload image (its first 8 bytes).
pub fn embedded_seed(block: &[u8]) -> u64 {
    le64(block)
}

/// Whether `block` is byte-for-byte the payload its embedded seed
/// generates — i.e. exactly what some submission produced, with no
/// corruption anywhere between submission and this read. Compares word
/// by word against the stream; nothing is materialised.
pub fn verify_block(block: &[u8]) -> bool {
    if block.len() != BLOCK_BYTES {
        return false;
    }
    let seed = embedded_seed(block);
    let mut diff = 0;
    for (i, chunk) in block.chunks_exact(8).enumerate() {
        diff |= le64(chunk) ^ word(seed, i);
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32c;

    #[test]
    fn block_round_trips_through_embedded_seed() {
        let seed = seed_for(3, 77, 4096);
        let block = block_for(seed);
        assert_eq!(embedded_seed(&block), seed);
        assert!(verify_block(&block));
    }

    #[test]
    fn distinct_identities_give_distinct_blocks() {
        let a = block_for(seed_for(1, 10, 100));
        let b = block_for(seed_for(1, 10, 101));
        let c = block_for(seed_for(2, 10, 100));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn any_corruption_fails_verification() {
        let mut block = block_for(seed_for(9, 1, 0)).to_vec();
        assert!(verify_block(&block));
        // Flip a bit in the body...
        block[2048] ^= 0x10;
        assert!(!verify_block(&block));
        block[2048] ^= 0x10;
        // ...and in the embedded seed itself.
        block[3] ^= 0x01;
        assert!(!verify_block(&block));
    }

    #[test]
    fn seal_matches_crc_of_materialised_block() {
        // What a clean media landing records is the CRC-32C of the
        // image, so it vouches for every bit of the block, the
        // embedded seed included.
        let mut block = block_for(seed_for(0, 42, 7));
        let seal = crc32c(&block);
        for bit in [0, 63, 64, BLOCK_BYTES * 8 - 1] {
            block[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&block), seal, "bit {bit}");
            block[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&block), seal);
    }

    #[test]
    fn sealed_block_is_the_block_and_its_crc() {
        for n in 0..1000u64 {
            let seed = seed_for(n as u16, n, n * 8);
            assert_eq!(seal_for(seed), crc32c(&block_for(seed)), "seed {seed:#x}");
        }
    }

    #[test]
    fn any_aligned_sub_range_fills_on_its_own() {
        let seed = seed_for(5, 6, 7);
        let whole = block_for(seed);
        let words = BLOCK_BYTES / 8;
        for first in (0..words).step_by(13) {
            for len in [0, 1, 2, 7, 64, words - first] {
                let len = len.min(words - first);
                let mut part = vec![0xEE; len * 8];
                fill_words(seed, first, &mut part);
                assert_eq!(part, whole[first * 8..][..len * 8], "words {first}+{len}");
            }
        }
    }

    #[test]
    fn payload_bytes_are_pinned() {
        // Nothing else pins payload content: no digest, metric or
        // fingerprint depends on it. A change of bytes re-pins this.
        let block = block_for(seed_for(0, 1, 0));
        let words: Vec<u64> = block.chunks_exact(8).take(4).map(le64).collect();
        assert_eq!(
            words,
            [
                0x09AA_B36C_FDA2_D1B3,
                0xB62E_9E3F_4C82_A851,
                0x4DFC_07BE_550D_CBAC,
                0xB9EF_E8CA_539E_A7FB
            ]
        );
        assert_eq!(crc32c(&block), 0x1538_511E);
    }

    #[test]
    fn wrong_length_never_verifies() {
        assert!(!verify_block(&[0u8; 16]));
    }
}
