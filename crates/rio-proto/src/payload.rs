//! Deterministic 4 KB payload blocks for end-to-end data-integrity
//! checks.
//!
//! The simulated stack does not ship application bytes through every
//! queue — it ships a compact 8-byte *seed* per block and materialises
//! the full 4 KB image only where bytes matter: at the device, where
//! the block lands on media under a CRC-32C seal, and in tests that
//! read media back. A block's bytes are a pure function of its seed
//! (the seed itself occupies the first 8 bytes, followed by a
//! SplitMix64 word stream), so "the recovered bytes equal the
//! submitted bytes" is checkable from the block alone: re-derive the
//! image from the embedded seed and compare.
//!
//! Any in-flight or at-rest corruption breaks one of two checks:
//!
//! * the CRC-32C seal over the stored bytes (torn writes, bit rot),
//! * the regenerate-and-compare against the embedded seed (which also
//!   catches a hypothetical coherent overwrite with a valid seal).

/// Payload block size in bytes (one logical block everywhere in the
/// repository).
pub const BLOCK_BYTES: usize = 4096;

/// SplitMix64 — the cheap deterministic word stream behind payload
/// bodies.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the payload seed of one block from its command identity:
/// the ordered stream, the command tag (group sequence for ordered
/// commands, unit id for plain ones) and the physical block address.
pub fn seed_for(stream: u16, tag: u64, lba: u64) -> u64 {
    splitmix64(((stream as u64) << 48) ^ tag.rotate_left(16) ^ lba)
}

/// Fills `out` (`BLOCK_BYTES` long) with the payload image of `seed`:
/// the seed itself little-endian in bytes `0..8`, then SplitMix64
/// words of the seed stream.
///
/// # Panics
///
/// Panics if `out` is not exactly [`BLOCK_BYTES`] long.
pub fn fill_block(seed: u64, out: &mut [u8]) {
    assert_eq!(out.len(), BLOCK_BYTES, "payload blocks are 4 KB");
    out[..8].copy_from_slice(&seed.to_le_bytes());
    let mut state = seed;
    for chunk in out[8..].chunks_exact_mut(8) {
        state = splitmix64(state);
        chunk.copy_from_slice(&state.to_le_bytes());
    }
}

/// Materialises the payload image of `seed` as an owned block.
pub fn block_for(seed: u64) -> Box<[u8]> {
    let mut v = vec![0u8; BLOCK_BYTES];
    fill_block(seed, &mut v);
    v.into_boxed_slice()
}

/// The seed embedded in a payload image (its first 8 bytes).
pub fn embedded_seed(block: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&block[..8]);
    u64::from_le_bytes(b)
}

/// Whether `block` is byte-for-byte the payload its embedded seed
/// generates — i.e. exactly what some submission produced, with no
/// corruption anywhere between submission and this read.
pub fn verify_block(block: &[u8]) -> bool {
    if block.len() != BLOCK_BYTES {
        return false;
    }
    let mut expect = [0u8; BLOCK_BYTES];
    fill_block(embedded_seed(block), &mut expect);
    block == expect
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
    fn wrong_length_never_verifies() {
        assert!(!verify_block(&[0u8; 16]));
    }
}
