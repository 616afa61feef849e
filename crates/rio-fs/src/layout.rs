//! On-disk layout: superblock, inodes, bitmap, directory, journal.
//!
//! ```text
//! | 0: superblock | bitmap | inode table | root dir | journal | data |
//! ```
//!
//! Little-endian throughout; one block is 4 KB.

use crate::device::BLOCK_SIZE;

/// Superblock magic.
pub const SB_MAGIC: u32 = 0x52_49_4F_46; // "RIOF"

/// Direct block pointers per inode.
pub const DIRECT_PTRS: usize = 12;

/// Bytes per inode on disk.
pub const INODE_SIZE: usize = 128;

/// Bytes per directory entry (name + inode number).
pub const DIRENT_SIZE: usize = 32;

/// Maximum file name length.
pub const NAME_MAX: usize = 24;

/// Computed region layout for a formatted device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Total device blocks.
    pub total_blocks: u64,
    /// First block of the block bitmap.
    pub bitmap_start: u64,
    /// Bitmap blocks.
    pub bitmap_blocks: u64,
    /// First inode-table block.
    pub itable_start: u64,
    /// Inode-table blocks.
    pub itable_blocks: u64,
    /// Number of inodes.
    pub n_inodes: u64,
    /// First root-directory block.
    pub dir_start: u64,
    /// Directory blocks.
    pub dir_blocks: u64,
    /// First journal block.
    pub journal_start: u64,
    /// Journal blocks (all per-core areas together).
    pub journal_blocks: u64,
    /// Number of per-core journal areas (iJournaling, §4.7).
    pub journal_areas: u64,
    /// First data block.
    pub data_start: u64,
}

impl Layout {
    /// Computes the layout for a device of `total_blocks` with
    /// `journal_areas` per-core journals.
    ///
    /// # Panics
    ///
    /// Panics if the device is too small (< 64 blocks).
    pub fn compute(total_blocks: u64, journal_areas: u64) -> Layout {
        assert!(total_blocks >= 64, "device too small for a file system");
        assert!(journal_areas >= 1, "need at least one journal area");
        let bitmap_start = 1;
        let bitmap_blocks = total_blocks.div_ceil(BLOCK_SIZE as u64 * 8).max(1);
        let n_inodes = (total_blocks / 8).clamp(64, 4096);
        let itable_start = bitmap_start + bitmap_blocks;
        let itable_blocks = (n_inodes * INODE_SIZE as u64).div_ceil(BLOCK_SIZE as u64);
        let dir_start = itable_start + itable_blocks;
        let dir_blocks = (n_inodes * DIRENT_SIZE as u64).div_ceil(BLOCK_SIZE as u64);
        let journal_start = dir_start + dir_blocks;
        // Journal gets ~1/8 of the device, at least 8 blocks per area.
        let journal_blocks = (total_blocks / 8).max(8 * journal_areas);
        let data_start = journal_start + journal_blocks;
        assert!(
            data_start < total_blocks,
            "device too small: metadata would consume it entirely"
        );
        Layout {
            total_blocks,
            bitmap_start,
            bitmap_blocks,
            itable_start,
            itable_blocks,
            n_inodes,
            dir_start,
            dir_blocks,
            journal_start,
            journal_blocks,
            journal_areas,
            data_start,
        }
    }

    /// Blocks of journal area `area` (disjoint per-core slices).
    pub fn journal_area(&self, area: u64) -> (u64, u64) {
        let per = self.journal_blocks / self.journal_areas;
        (self.journal_start + area * per, per)
    }

    /// Serializes the superblock into a block image.
    pub fn encode_superblock(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
        b[4..12].copy_from_slice(&self.total_blocks.to_le_bytes());
        b[12..20].copy_from_slice(&self.n_inodes.to_le_bytes());
        b[20..28].copy_from_slice(&self.journal_start.to_le_bytes());
        b[28..36].copy_from_slice(&self.journal_blocks.to_le_bytes());
        b[36..44].copy_from_slice(&self.journal_areas.to_le_bytes());
        b
    }

    /// Parses and validates a superblock; `None` if unformatted.
    pub fn decode_superblock(block: &[u8]) -> Option<Layout> {
        if block.len() < 44 || block[0..4] != SB_MAGIC.to_le_bytes() {
            return None;
        }
        let total = u64::from_le_bytes(block[4..12].try_into().ok()?);
        let areas = u64::from_le_bytes(block[36..44].try_into().ok()?);
        Some(Layout::compute(total, areas))
    }
}

/// An on-disk inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inode {
    /// Whether this inode is allocated.
    pub used: bool,
    /// File size in bytes.
    pub size: u64,
    /// Direct data-block pointers (0 = hole).
    pub direct: [u64; DIRECT_PTRS],
    /// Generation counter (bumped per reuse; detects stale dirents).
    pub generation: u32,
}

impl Inode {
    /// An empty inode.
    #[cfg(test)]
    pub fn empty() -> Self {
        Inode {
            used: false,
            size: 0,
            direct: [0; DIRECT_PTRS],
            generation: 0,
        }
    }

    /// Maximum file size.
    pub fn max_size() -> u64 {
        (DIRECT_PTRS * BLOCK_SIZE) as u64
    }

    /// Serializes to the 128-byte on-disk form.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0] = self.used as u8;
        b[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[16 + i * 8..24 + i * 8].copy_from_slice(&d.to_le_bytes());
        }
        b[112..116].copy_from_slice(&self.generation.to_le_bytes());
        b
    }

    /// Parses the on-disk form.
    pub fn decode(b: &[u8]) -> Inode {
        let mut direct = [0u64; DIRECT_PTRS];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u64::from_le_bytes(b[16 + i * 8..24 + i * 8].try_into().expect("inode field"));
        }
        Inode {
            used: b[0] != 0,
            size: u64::from_le_bytes(b[8..16].try_into().expect("inode field")),
            direct,
            generation: u32::from_le_bytes(b[112..116].try_into().expect("inode field")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let l = Layout::compute(4096, 4);
        assert!(l.bitmap_start >= 1);
        assert!(l.itable_start >= l.bitmap_start + l.bitmap_blocks);
        assert!(l.dir_start >= l.itable_start + l.itable_blocks);
        assert!(l.journal_start >= l.dir_start + l.dir_blocks);
        assert!(l.data_start >= l.journal_start + l.journal_blocks);
        assert!(l.data_start < l.total_blocks);
    }

    #[test]
    fn journal_areas_are_disjoint() {
        let l = Layout::compute(4096, 4);
        let mut prev_end = l.journal_start;
        for a in 0..4 {
            let (start, len) = l.journal_area(a);
            assert!(start >= prev_end);
            assert!(len >= 8);
            prev_end = start + len;
        }
        assert!(prev_end <= l.journal_start + l.journal_blocks);
    }

    #[test]
    fn superblock_round_trip() {
        let l = Layout::compute(4096, 4);
        let sb = l.encode_superblock();
        assert_eq!(Layout::decode_superblock(&sb), Some(l));
        assert_eq!(Layout::decode_superblock(&[0u8; 64]), None);
    }

    #[test]
    fn inode_round_trip() {
        let mut ino = Inode::empty();
        ino.used = true;
        ino.size = 12345;
        ino.direct[0] = 99;
        ino.direct[11] = 1234;
        ino.generation = 7;
        assert_eq!(Inode::decode(&ino.encode()), ino);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_device_rejected() {
        let _ = Layout::compute(32, 1);
    }
}
