//! Block devices for the file system: a plain memory device and an
//! *ordered* device that reproduces Rio's crash semantics.

/// Block size in bytes.
pub const BLOCK_SIZE: usize = 4096;

/// A synchronous block device as the file system sees it.
pub trait BlockDev {
    /// Device capacity in blocks.
    fn n_blocks(&self) -> u64;
    /// Reads one block.
    fn read_block(&self, lba: u64) -> Vec<u8>;
    /// Writes one block.
    fn write_block(&mut self, lba: u64, data: &[u8]);
    /// Makes all prior writes durable.
    fn flush(&mut self);
    /// Ends the current ordered group (`rio_submit` boundary). A no-op
    /// on devices without ordering semantics.
    fn end_group(&mut self) {}
}

/// A plain in-memory device (always "durable").
#[derive(Debug, Clone)]
pub struct MemDev {
    blocks: Vec<Option<Box<[u8]>>>,
}

impl MemDev {
    /// Creates a zeroed device of `n_blocks`.
    pub fn new(n_blocks: u64) -> Self {
        MemDev {
            blocks: vec![None; n_blocks as usize],
        }
    }
}

impl BlockDev for MemDev {
    fn n_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read_block(&self, lba: u64) -> Vec<u8> {
        match &self.blocks[lba as usize] {
            Some(b) => b.to_vec(),
            None => vec![0; BLOCK_SIZE],
        }
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) {
        assert!(data.len() <= BLOCK_SIZE, "oversized block write");
        let mut full = vec![0u8; BLOCK_SIZE];
        full[..data.len()].copy_from_slice(data);
        self.blocks[lba as usize] = Some(full.into_boxed_slice());
    }

    fn flush(&mut self) {}
}

/// Rio's ordered block device: writes belong to *groups* (one
/// `rio_submit` each); a crash may lose any suffix of groups but never
/// an interior one — the prefix semantics of §4.8. A FLUSH (group
/// carrying `flush`) pins everything before it.
///
/// `OrderedDev` implements this by journaling every write with its
/// group number and materialising post-crash images on demand.
#[derive(Debug, Clone)]
pub struct OrderedDev {
    n_blocks: u64,
    /// Durable base image (pre-crash checkpoint).
    base: MemDev,
    /// Writes since the base, tagged with their group ordinal.
    log: Vec<(u64, u64, Box<[u8]>)>,
    /// Current group ordinal.
    group: u64,
    /// Highest group pinned durable by a FLUSH.
    flushed_through: u64,
}

impl OrderedDev {
    /// Creates a zeroed ordered device.
    pub fn new(n_blocks: u64) -> Self {
        OrderedDev {
            n_blocks,
            base: MemDev::new(n_blocks),
            log: Vec::new(),
            group: 0,
            flushed_through: 0,
        }
    }

    /// Current group ordinal (groups completed so far).
    pub fn groups(&self) -> u64 {
        self.group
    }

    /// Materialises the device image as it would look after a crash
    /// that persisted exactly groups `0..keep_groups` (plus the
    /// FLUSH-pinned prefix, whichever is larger).
    ///
    /// Rio's guarantee is that `keep_groups` can be *any* value between
    /// the last FLUSH point and the submitted total — the crash tests
    /// iterate over all of them.
    pub fn crash_image(&self, keep_groups: u64) -> MemDev {
        let keep = keep_groups.max(self.flushed_through);
        let mut img = self.base.clone();
        for (group, lba, data) in &self.log {
            if *group < keep {
                img.write_block(*lba, data);
            }
        }
        img
    }
}

impl BlockDev for OrderedDev {
    fn n_blocks(&self) -> u64 {
        self.n_blocks
    }

    fn read_block(&self, lba: u64) -> Vec<u8> {
        // Reads observe submission order (the logical view).
        for (_, l, data) in self.log.iter().rev() {
            if *l == lba {
                return data.to_vec();
            }
        }
        self.base.read_block(lba)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) {
        assert!(data.len() <= BLOCK_SIZE, "oversized block write");
        let mut full = vec![0u8; BLOCK_SIZE];
        full[..data.len()].copy_from_slice(data);
        self.log.push((self.group, lba, full.into_boxed_slice()));
    }

    fn flush(&mut self) {
        // A FLUSH ends the current group and pins everything submitted
        // so far.
        if !self.log.is_empty() {
            self.group += 1;
        }
        self.flushed_through = self.group;
    }

    fn end_group(&mut self) {
        self.group += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdev_read_write_round_trip() {
        let mut d = MemDev::new(8);
        assert_eq!(d.read_block(3), vec![0; BLOCK_SIZE]);
        d.write_block(3, &[7; 16]);
        assert_eq!(&d.read_block(3)[..16], &[7; 16]);
        assert_eq!(d.read_block(3)[16], 0, "short writes zero-pad");
    }

    #[test]
    fn ordered_dev_reads_see_submission_order() {
        let mut d = OrderedDev::new(8);
        d.write_block(1, &[1]);
        d.end_group();
        d.write_block(1, &[2]);
        d.end_group();
        assert_eq!(d.read_block(1)[0], 2);
    }

    #[test]
    fn crash_keeps_prefix_of_groups() {
        let mut d = OrderedDev::new(8);
        d.write_block(0, &[10]);
        d.end_group(); // group 0
        d.write_block(1, &[20]);
        d.end_group(); // group 1
        d.write_block(2, &[30]);
        d.end_group(); // group 2

        let img0 = d.crash_image(0);
        assert_eq!(img0.read_block(0)[0], 0);
        let img2 = d.crash_image(2);
        assert_eq!(img2.read_block(0)[0], 10);
        assert_eq!(img2.read_block(1)[0], 20);
        assert_eq!(img2.read_block(2)[0], 0, "group 2 lost");
    }

    #[test]
    fn flush_pins_prefix() {
        let mut d = OrderedDev::new(8);
        d.write_block(0, &[10]);
        d.end_group();
        d.flush();
        d.write_block(1, &[20]);
        d.end_group();
        // Even a crash that "keeps zero groups" retains the flushed
        // prefix.
        let img = d.crash_image(0);
        assert_eq!(img.read_block(0)[0], 10, "flushed data survives");
        assert_eq!(img.read_block(1)[0], 0);
    }

    #[test]
    fn settled_image_applies_everything() {
        let mut d = OrderedDev::new(8);
        d.write_block(5, &[9]);
        d.end_group();
        let img = d.crash_image(d.groups());
        assert_eq!(img.read_block(5)[0], 9);
    }
}
