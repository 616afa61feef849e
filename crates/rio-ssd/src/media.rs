//! The persistent block store behind the write cache.
//!
//! Stores a [`BlockImage`] per logical block. File-system tests write
//! real bytes; raw block benchmarks use cheap tags, so a simulated
//! multi-gigabyte run costs megabytes of host memory.
//!
//! With end-to-end integrity on, every block that lands on media is
//! *sealed*: the store records the CRC-32C of the intended image next
//! to whatever bytes actually landed. A torn write (partial image,
//! intended seal) or at-rest bit rot (mutated image, original seal)
//! leaves the two inconsistent, which is exactly what a recovery scrub
//! checks for.
//!
//! Real bytes are held once per write: the device moves a submitted
//! buffer behind a [`SharedBytes`] and its logical and durable stores
//! alias it. Images are immutable once shared — fault injection builds
//! a fresh image for the one store it corrupts — and both the seal and
//! the scrub checksum the bytes where they lie
//! ([`BlockImage::crc32c`]).

use std::ops::Deref;
use std::sync::Arc;

use rio_proto::crc32c_update;
use rio_sim::FxHashMap;

/// An immutable payload buffer several block images can alias.
///
/// The device moves every submitted [`BlockImage::Bytes`] behind one
/// of these, so its logical and durable views (and every read of
/// either) share the submitter's allocation instead of copying it.
/// Only the device creates them; readers borrow the bytes through
/// `Deref`.
#[derive(Debug, Clone)]
pub struct SharedBytes(Arc<Box<[u8]>>);

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Contents of one 4 KB block.
#[derive(Debug, Clone)]
pub enum BlockImage {
    /// Never written (reads back as zeroes).
    Zero,
    /// A benchmark write identified by a token instead of real bytes.
    Tag(u64),
    /// Real data (file-system paths), as a submitter hands it in.
    Bytes(Box<[u8]>),
    /// Real data the device has accepted: the same bytes behind a
    /// shared immutable buffer. Reads of accepted real data return
    /// this variant; it compares equal to a [`BlockImage::Bytes`] of
    /// the same content.
    Shared(SharedBytes),
}

/// Two images are equal when they are the same kind of block with the
/// same content; whether real data is uniquely owned or shared does
/// not matter.
impl PartialEq for BlockImage {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BlockImage::Zero, BlockImage::Zero) => true,
            (BlockImage::Tag(a), BlockImage::Tag(b)) => a == b,
            _ => self.data().is_some() && self.data() == other.data(),
        }
    }
}

impl Eq for BlockImage {}

impl BlockImage {
    /// The real bytes this image holds (`None` for `Zero` and `Tag`).
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            BlockImage::Zero | BlockImage::Tag(_) => None,
            BlockImage::Bytes(b) => Some(b),
            BlockImage::Shared(s) => Some(s),
        }
    }

    /// Moves uniquely owned real data behind a shared buffer, in place
    /// and without copying it, so clones of this image alias one
    /// allocation. `Zero` and `Tag` stay inline.
    pub(crate) fn share(&mut self) {
        if let BlockImage::Bytes(b) = self {
            *self = BlockImage::Shared(SharedBytes(Arc::new(std::mem::take(b))));
        }
    }

    /// Runs `f` over the bytes the image spells out, cut to
    /// `block_size`; the rest of the block is implicit zeroes.
    fn with_prefix<R>(&self, block_size: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let tag;
        let prefix: &[u8] = match self {
            BlockImage::Zero => &[],
            BlockImage::Tag(t) => {
                tag = t.to_le_bytes();
                &tag
            }
            BlockImage::Bytes(b) => b,
            BlockImage::Shared(s) => s,
        };
        f(&prefix[..prefix.len().min(block_size)])
    }

    /// Materialises the block as bytes of length `block_size`.
    pub fn to_bytes(&self, block_size: usize) -> Vec<u8> {
        self.with_prefix(block_size, |prefix| {
            let mut v = vec![0; block_size];
            v[..prefix.len()].copy_from_slice(prefix);
            v
        })
    }

    /// CRC-32C of the block as [`BlockImage::to_bytes`] would
    /// materialise it, without materialising it: the bytes the image
    /// holds are checksummed where they lie, the implicit rest as zero
    /// padding.
    pub fn crc32c(&self, block_size: usize) -> u32 {
        static ZEROS: [u8; 4096] = [0; 4096];
        self.with_prefix(block_size, |prefix| {
            let mut state = crc32c_update(!0, prefix);
            let mut pad = block_size - prefix.len();
            while pad > 0 {
                let n = pad.min(ZEROS.len());
                state = crc32c_update(state, &ZEROS[..n]);
                pad -= n;
            }
            !state
        })
    }
}

/// A sparse persistent store of block images with write versioning.
///
/// Lives on the per-write hot path (every accepted block lands here
/// once in the logical image and once on media), so the map uses the
/// simulator's fast deterministic hasher.
#[derive(Debug, Default, Clone)]
pub struct BlockStore {
    blocks: FxHashMap<u64, (u64, BlockImage)>,
    /// Intended-content CRC-32C per sealed block (integrity runs only;
    /// empty — and cost-free — otherwise).
    seals: FxHashMap<u64, u32>,
    next_version: u64,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// Writes one block, returning its new version number. An unsealed
    /// write drops any stale seal: the recorded checksum always belongs
    /// to the last write.
    pub fn write(&mut self, lba: u64, image: BlockImage) -> u64 {
        self.next_version += 1;
        let v = self.next_version;
        self.blocks.insert(lba, (v, image));
        if !self.seals.is_empty() {
            self.seals.remove(&lba);
        }
        v
    }

    /// Writes one block together with the CRC-32C of its *intended*
    /// image. Callers landing clean data pass the checksum of `image`
    /// itself; a torn-write injection passes the intended checksum next
    /// to the partial bytes that actually hit media.
    pub fn write_sealed(&mut self, lba: u64, image: BlockImage, seal: u32) -> u64 {
        let v = self.write(lba, image);
        self.seals.insert(lba, seal);
        v
    }

    /// The recorded seal of `lba`, if the block was written sealed.
    pub fn seal(&self, lba: u64) -> Option<u32> {
        self.seals.get(&lba).copied()
    }

    /// Every sealed block address, ascending (a deterministic scrub
    /// order).
    pub fn sealed_lbas(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.seals.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Flips one bit of the stored image of `lba` without touching its
    /// seal (at-rest bit rot). Returns `false` when the block holds no
    /// data. `bit` indexes into the materialised `block_size`-byte
    /// image.
    pub fn flip_bit(&mut self, lba: u64, bit: usize, block_size: usize) -> bool {
        let Some((_, img)) = self.blocks.get_mut(&lba) else {
            return false;
        };
        let mut bytes = img.to_bytes(block_size);
        bytes[bit / 8] ^= 1 << (bit % 8);
        *img = BlockImage::Bytes(bytes.into_boxed_slice());
        true
    }

    /// Borrows the stored image of `lba` (`None` when never written),
    /// for callers that only inspect it — a scrub re-checksums every
    /// block without cloning any.
    pub fn get(&self, lba: u64) -> Option<&BlockImage> {
        self.blocks.get(&lba).map(|(_, img)| img)
    }

    /// Reads one block (unwritten blocks read back as [`BlockImage::Zero`]).
    pub fn read(&self, lba: u64) -> BlockImage {
        self.get(lba).cloned().unwrap_or(BlockImage::Zero)
    }

    /// The version of the last write to `lba` (0 when never written).
    pub fn version(&self, lba: u64) -> u64 {
        self.blocks.get(&lba).map(|(v, _)| *v).unwrap_or(0)
    }

    /// Erases `count` blocks starting at `lba` (recovery roll-back /
    /// TRIM). Seals go with their blocks.
    pub fn discard(&mut self, lba: u64, count: u64) {
        for b in lba..lba + count {
            self.blocks.remove(&b);
            if !self.seals.is_empty() {
                self.seals.remove(&b);
            }
        }
    }

    /// Number of written blocks.
    pub fn written_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let s = BlockStore::new();
        assert_eq!(s.read(42), BlockImage::Zero);
        assert_eq!(s.version(42), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = BlockStore::new();
        let v1 = s.write(1, BlockImage::Tag(7));
        assert_eq!(s.read(1), BlockImage::Tag(7));
        let v2 = s.write(1, BlockImage::Tag(8));
        assert!(v2 > v1, "versions increase");
        assert_eq!(s.read(1), BlockImage::Tag(8));
    }

    #[test]
    fn bytes_round_trip() {
        let mut s = BlockStore::new();
        let data: Box<[u8]> = vec![0xAB; 4096].into_boxed_slice();
        s.write(5, BlockImage::Bytes(data.clone()));
        assert_eq!(s.read(5), BlockImage::Bytes(data));
    }

    #[test]
    fn discard_erases_range() {
        let mut s = BlockStore::new();
        for lba in 0..10 {
            s.write(lba, BlockImage::Tag(lba));
        }
        s.discard(2, 3);
        assert_eq!(s.read(1), BlockImage::Tag(1));
        assert_eq!(s.read(2), BlockImage::Zero);
        assert_eq!(s.read(4), BlockImage::Zero);
        assert_eq!(s.read(5), BlockImage::Tag(5));
        assert_eq!(s.written_blocks(), 7);
    }

    #[test]
    fn sealed_write_records_and_clears_checksums() {
        let mut s = BlockStore::new();
        s.write_sealed(3, BlockImage::Tag(9), 0xDEAD_BEEF);
        assert_eq!(s.seal(3), Some(0xDEAD_BEEF));
        assert_eq!(s.sealed_lbas(), vec![3]);
        // An unsealed overwrite drops the stale seal.
        s.write(3, BlockImage::Tag(10));
        assert_eq!(s.seal(3), None);
        assert!(s.sealed_lbas().is_empty());
    }

    #[test]
    fn discard_takes_seals_with_it() {
        let mut s = BlockStore::new();
        s.write_sealed(5, BlockImage::Tag(1), 7);
        s.write_sealed(6, BlockImage::Tag(2), 8);
        s.discard(5, 1);
        assert_eq!(s.seal(5), None);
        assert_eq!(s.seal(6), Some(8));
    }

    #[test]
    fn flip_bit_mutates_image_but_not_seal() {
        let mut s = BlockStore::new();
        let clean = BlockImage::Tag(0xFF).to_bytes(64);
        s.write_sealed(1, BlockImage::Tag(0xFF), 123);
        assert!(s.flip_bit(1, 9, 64));
        let rotten = s.read(1).to_bytes(64);
        assert_ne!(clean, rotten);
        assert_eq!(clean[1] ^ 2, rotten[1], "exactly bit 9 flipped");
        assert_eq!(s.seal(1), Some(123), "seal untouched by rot");
        assert!(!s.flip_bit(99, 0, 64), "absent block cannot rot");
    }

    #[test]
    fn image_checksum_equals_crc_of_materialised_block() {
        let full: Box<[u8]> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut shared = BlockImage::Bytes(full.clone());
        shared.share();
        let images = [
            BlockImage::Zero,
            BlockImage::Tag(0x0123_4567_89AB_CDEF),
            BlockImage::Bytes(vec![9, 9].into_boxed_slice()),
            BlockImage::Bytes(full),
            shared,
        ];
        // 4 096 is the device block; the others cover a pad longer than
        // the static zero run and an image longer than the block.
        for block_size in [4096, 10_000, 64, 4] {
            for img in &images {
                assert_eq!(
                    img.crc32c(block_size),
                    rio_proto::crc32c(&img.to_bytes(block_size)),
                    "{block_size}-byte block of {:?}",
                    img.data().map(<[u8]>::len)
                );
            }
        }
    }

    #[test]
    fn sharing_moves_the_buffer_and_clones_alias_it() {
        let data: Box<[u8]> = vec![0xAB; 4096].into_boxed_slice();
        let mut img = BlockImage::Bytes(data.clone());
        let at = img.data().map(<[u8]>::as_ptr);
        img.share();
        assert!(matches!(img, BlockImage::Shared(_)));
        assert_eq!(img.data().map(<[u8]>::as_ptr), at, "moved, not copied");
        let copy = img.clone();
        assert_eq!(copy.data().map(<[u8]>::as_ptr), at, "a clone aliases it");
        assert_eq!(img, BlockImage::Bytes(data), "equality is by content");
        // Zero and Tag have nothing to share and stay inline.
        let mut tag = BlockImage::Tag(5);
        tag.share();
        assert!(matches!(tag, BlockImage::Tag(5)));
        assert_ne!(BlockImage::Tag(0), BlockImage::Zero);
        assert_ne!(
            BlockImage::Bytes(vec![0; 8].into_boxed_slice()),
            BlockImage::Zero,
            "real zero bytes are still real data"
        );
    }

    #[test]
    fn to_bytes_materialisation() {
        assert_eq!(BlockImage::Zero.to_bytes(8), vec![0; 8]);
        let tag = BlockImage::Tag(0x0102).to_bytes(16);
        assert_eq!(tag[0], 0x02);
        assert_eq!(tag[1], 0x01);
        let short = BlockImage::Bytes(vec![9, 9].into_boxed_slice()).to_bytes(4);
        assert_eq!(short, vec![9, 9, 0, 0]);
    }
}
