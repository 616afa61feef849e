//! Deterministic 4 KB payload blocks for end-to-end data-integrity
//! checks.
//!
//! The simulated stack does not ship application bytes through every
//! queue, nor keep them on media — it ships and stores a compact 8-byte
//! *seed* per block and materialises the full 4 KB image only where
//! bytes are read: a torn write or bit rot that damages the block, and
//! tests that read media back. A block's bytes are a pure function of
//! its seed: little-endian word 0 is the seed itself, and word `i ≥ 1`
//! is `xorshift64(seed) ⊕ PAD[i]` — the seed through Marsaglia's
//! three-shift xorshift64, xor-ed with a per-word constant
//! `PAD[i] = mix64(i·γ)`, the `i`-th output of the textbook SplitMix64
//! stream from zero. No word depends on another, so any part of a block
//! can be generated or checked on its own. "The recovered bytes equal
//! the submitted bytes" is checkable from the block alone: re-derive
//! the words from the embedded seed and compare.
//!
//! Any in-flight or at-rest corruption breaks one of two checks:
//!
//! * the CRC-32C seal over the stored bytes (torn writes, bit rot),
//! * the regenerate-and-compare against the embedded seed (which also
//!   catches a hypothetical coherent overwrite with a valid seal).
//!
//! Every word is GF(2)-affine in the seed — xors and shifts of it and a
//! constant, no multiply or add — and the CRC-32C register update is
//! linear over GF(2), so a block's seal is an affine function of the
//! seed's 64 bits. [`seal_for`] is the seal of the zero seed xor-ed
//! with one `const` table entry per seed byte: eight lookups, and no
//! byte of the block is generated.

use crate::crc::{le64, step8};

/// Payload block size in bytes (one logical block everywhere in the
/// repository).
pub const BLOCK_BYTES: usize = 4096;

/// Little-endian words per block.
const WORDS: usize = BLOCK_BYTES / 8;

/// SplitMix64's counter increment (2⁶⁴ / φ, odd).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finaliser.
const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Marsaglia's xorshift64 step: a bijection, and linear over GF(2).
const fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// The per-word constants: `PAD[i]` is SplitMix64's `i`-th output from
/// zero (`PAD[0]` is unused — word 0 is the seed).
const PAD: [u64; WORDS] = {
    let mut pad = [0; WORDS];
    let mut i = 1;
    while i < WORDS {
        pad[i] = mix64((i as u64).wrapping_mul(GAMMA));
        i += 1;
    }
    pad
};

/// Little-endian word `i` of the payload image of `seed`.
#[inline(always)]
const fn word(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        xorshift64(seed) ^ PAD[i]
    }
}

/// CRC-32C of the payload image of `seed`, one word at a time — what
/// the seal tables are built from, at compile time.
const fn image_crc(seed: u64) -> u32 {
    let mut crc = !0;
    let mut i = 0;
    while i < WORDS {
        crc = step8(crc, word(seed, i));
        i += 1;
    }
    !crc
}

/// The seal of the zero seed.
const SEAL0: u32 = image_crc(0);

/// `SEAL_TABLES[k][b]`: what byte `k` of a seed, holding `b`, adds to
/// [`SEAL0`] — the xor of the images of `b`'s set bits, each the seal
/// of its unit seed xor-ed with [`SEAL0`].
const SEAL_TABLES: [[u32; 256]; 8] = {
    let mut unit = [0; 64];
    let mut bit = 0;
    while bit < 64 {
        unit[bit] = image_crc(1 << bit) ^ SEAL0;
        bit += 1;
    }
    let mut tables = [[0; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 1;
        while b < 256 {
            // `b` less its lowest set bit, then that bit's image.
            tables[k][b] = tables[k][b & (b - 1)] ^ unit[8 * k + b.trailing_zeros() as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

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
/// the seed itself little-endian in bytes `0..8`, then its padded
/// xorshift words.
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
/// [`block_for`]'s bytes — without generating them: the seal of the
/// zero seed xor-ed with one `const` table entry per byte of `seed`.
pub fn seal_for(seed: u64) -> u32 {
    seed.to_le_bytes()
        .iter()
        .zip(&SEAL_TABLES)
        .fold(SEAL0, |seal, (&b, table)| seal ^ table[b as usize])
}

/// The seed embedded in a payload image (its first 8 bytes). Panics on
/// a shorter input: callers check the length first.
fn embedded_seed(block: &[u8]) -> u64 {
    le64(block)
}

/// Whether `block` is byte-for-byte the payload its embedded seed
/// generates — i.e. exactly what some submission produced, with no
/// corruption anywhere between submission and this read. Compares word
/// by word against the generator; nothing is materialised.
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
    use proptest::prelude::*;
    use rio_sim::SimRng;

    /// Arbitrary seeds, with the corners an affine map gets wrong first
    /// drawn as often: zero, all ones and the unit seeds.
    fn seeds() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just(0u64),
            Just(u64::MAX),
            (0u32..64).prop_map(|k| 1u64 << k),
        ]
    }

    /// The same corners, each once.
    fn corner_seeds() -> impl Iterator<Item = u64> {
        [0, u64::MAX].into_iter().chain((0..64).map(|k| 1 << k))
    }

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
        let seeds = (0..1000u64).map(|n| seed_for(n as u16, n, n * 8));
        for seed in seeds.chain(corner_seeds()) {
            assert_eq!(seal_for(seed), crc32c(&block_for(seed)), "seed {seed:#x}");
        }
    }

    proptest! {
        #[test]
        fn seal_is_the_crc_of_the_block(seed in seeds()) {
            prop_assert_eq!(seal_for(seed), crc32c(&block_for(seed)), "seed {:#x}", seed);
        }

        #[test]
        fn words_and_seals_are_affine_in_the_seed(a in seeds(), b in seeds()) {
            // f(a ⊕ b) ⊕ f(a) ⊕ f(b) = f(0) for every affine f.
            for i in 0..WORDS {
                let sum = word(a ^ b, i) ^ word(a, i) ^ word(b, i);
                prop_assert_eq!(sum, word(0, i), "word {}", i);
            }
            prop_assert_eq!(seal_for(a ^ b) ^ seal_for(a) ^ seal_for(b), seal_for(0));
        }
    }

    #[test]
    fn unit_seed_seals_span_all_32_dimensions() {
        // Gaussian elimination over GF(2): one basis vector per leading
        // bit. Full rank means every seal value is some seed's.
        let mut basis = [0u32; 32];
        for k in 0..64 {
            let mut v = seal_for(1 << k) ^ seal_for(0);
            while v != 0 {
                let top = 31 - v.leading_zeros() as usize;
                if basis[top] == 0 {
                    basis[top] = v;
                    break;
                }
                v ^= basis[top];
            }
        }
        assert!(basis.iter().all(|&v| v != 0), "{basis:08x?}");
    }

    #[test]
    fn zeroing_the_tail_half_always_changes_the_crc() {
        // A torn write lands half a block under the whole block's seal.
        let mut rng = SimRng::seed_from_u64(0x7A11);
        let mut block = [0u8; BLOCK_BYTES];
        for _ in 0..10_000 {
            let seed = rng.between(0, u64::MAX);
            fill_block(seed, &mut block);
            block[BLOCK_BYTES / 2..].fill(0);
            assert_ne!(crc32c(&block), seal_for(seed), "seed {seed:#x}");
        }
    }

    #[test]
    fn any_aligned_sub_range_fills_on_its_own() {
        let seed = seed_for(5, 6, 7);
        let whole = block_for(seed);
        for first in (0..WORDS).step_by(13) {
            for len in [0, 1, 2, 7, 64, WORDS - first] {
                let len = len.min(WORDS - first);
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
                0xF85A_270F_5C66_557F,
                0x7402_115C_86C2_FD24,
                0x1CBE_D22E_A772_DD9F
            ]
        );
        assert_eq!(crc32c(&block), 0x08CE_8DCD);
    }

    #[test]
    fn wrong_length_never_verifies() {
        assert!(!verify_block(&[0u8; 16]));
    }
}
