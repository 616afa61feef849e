//! The file system proper: a flat-namespace, journaling FS.
//!
//! Write path (ordered mode, metadata journaling):
//!
//! 1. `write` buffers data in the page cache;
//! 2. `fsync` writes the file's dirty **D**ata blocks in place (one
//!    ordered group), then the **JM** journal record (descriptor +
//!    metadata images, a second group), then the **JC** commit block
//!    (a third group carrying the FLUSH) — the exact triplet of
//!    Figs. 9/14 — and finally checkpoints metadata home.
//! 3. `mount` replays committed journal transactions (ascending txid)
//!    before loading metadata, restoring consistency after any crash.
//!
//! Per-core journal areas (iJournaling) let concurrent fsyncs commit
//! independently; the global txid resolves conflicts at replay (§4.7).

use std::collections::BTreeMap;

use crate::device::{BlockDev, BLOCK_SIZE};
use crate::journal::{self, Transaction};
use crate::layout::{Inode, Layout, DIRENT_SIZE, INODE_SIZE, NAME_MAX};

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The file name already exists.
    Exists,
    /// No such file.
    NotFound,
    /// File or device capacity exhausted.
    NoSpace,
    /// Name too long or empty.
    BadName,
    /// Write beyond the maximum file size.
    TooLarge,
}

/// The mounted file system.
pub struct RioFs<D: BlockDev> {
    dev: D,
    layout: Layout,
    /// In-memory inode table.
    inodes: Vec<Inode>,
    /// Block allocation bitmap (one bool per device block).
    bitmap: Vec<bool>,
    /// name -> inode number. A `BTreeMap` so that directory iteration
    /// (readdir, fsck, dirent-block materialisation) has one stable,
    /// name-sorted order on every run — std's `HashMap` is seeded per
    /// process and would reorder it.
    dir: BTreeMap<String, u64>,
    /// Dirty data pages: (ino, file block index) -> bytes.
    pages: BTreeMap<(u64, u64), Vec<u8>>,
    /// Metadata blocks dirtied since the last fsync of any file.
    dirty_meta: BTreeMap<u64, ()>,
    /// Per-area journal cursors.
    cursors: Vec<u64>,
    /// Global transaction id.
    next_txid: u64,
    /// fsyncs performed (stats).
    pub fsyncs: u64,
}

impl<D: BlockDev> RioFs<D> {
    /// Formats `dev` with `journal_areas` per-core journals and mounts
    /// it.
    pub fn mkfs(mut dev: D, journal_areas: u64) -> Self {
        let layout = Layout::compute(dev.n_blocks(), journal_areas);
        dev.write_block(0, &layout.encode_superblock());
        // Zero metadata regions.
        let zero = vec![0u8; BLOCK_SIZE];
        for b in layout.bitmap_start..layout.data_start {
            dev.write_block(b, &zero);
        }
        dev.flush();
        Self::mount(dev).expect("freshly formatted device mounts")
    }

    /// Mounts a formatted device, running journal recovery first.
    ///
    /// Returns `None` when the superblock is missing or corrupt.
    pub fn mount(mut dev: D) -> Option<Self> {
        let layout = Layout::decode_superblock(&dev.read_block(0))?;
        // Crash recovery: replay committed journal transactions.
        let areas: Vec<(u64, u64)> = (0..layout.journal_areas)
            .map(|a| layout.journal_area(a))
            .collect();
        journal::replay(&mut dev, &areas);

        // Load metadata.
        let mut inodes = Vec::with_capacity(layout.n_inodes as usize);
        for i in 0..layout.n_inodes {
            let blk = layout.itable_start + (i as usize * INODE_SIZE / BLOCK_SIZE) as u64;
            let off = (i as usize * INODE_SIZE) % BLOCK_SIZE;
            let b = dev.read_block(blk);
            inodes.push(Inode::decode(&b[off..off + INODE_SIZE]));
        }
        let mut bitmap = vec![false; layout.total_blocks as usize];
        for b in 0..layout.bitmap_blocks {
            let img = dev.read_block(layout.bitmap_start + b);
            for (i, byte) in img.iter().enumerate() {
                for bit in 0..8 {
                    let idx = (b as usize * BLOCK_SIZE + i) * 8 + bit;
                    if idx < bitmap.len() {
                        bitmap[idx] = byte & (1 << bit) != 0;
                    }
                }
            }
        }
        let mut dir = BTreeMap::new();
        for ino in 0..layout.n_inodes {
            let blk = layout.dir_start + (ino as usize * DIRENT_SIZE / BLOCK_SIZE) as u64;
            let off = (ino as usize * DIRENT_SIZE) % BLOCK_SIZE;
            let b = dev.read_block(blk);
            let entry = &b[off..off + DIRENT_SIZE];
            let name_len = entry[..NAME_MAX]
                .iter()
                .position(|&c| c == 0)
                .unwrap_or(NAME_MAX);
            if name_len > 0 {
                let name = String::from_utf8_lossy(&entry[..name_len]).into_owned();
                let ino_no = u64::from_le_bytes(entry[NAME_MAX..NAME_MAX + 8].try_into().ok()?);
                if inodes.get(ino_no as usize).map(|i| i.used).unwrap_or(false) {
                    dir.insert(name, ino_no);
                }
            }
        }
        let next_txid = 1 + Self::max_txid(&dev, &areas);
        Some(RioFs {
            dev,
            inodes,
            bitmap,
            dir,
            pages: BTreeMap::new(),
            dirty_meta: BTreeMap::new(),
            cursors: vec![0; layout.journal_areas as usize],
            next_txid,
            fsyncs: 0,
            layout,
        })
    }

    fn max_txid(dev: &D, areas: &[(u64, u64)]) -> u64 {
        let mut max = 0;
        for &(start, len) in areas {
            for tx in journal::scan_area(dev, start, len) {
                max = max.max(tx.txid);
            }
        }
        max
    }

    /// The device layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Consumes the file system, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Lists every directory entry as a `(name, inode)` pair.
    ///
    /// Iteration order is the directory `BTreeMap`'s name order —
    /// stable across runs, insertion orders and journal-replay
    /// remounts, so recovery scans and tooling that walk the
    /// namespace replay deterministically (no sort step needed).
    pub fn readdir(&self) -> Vec<(String, u64)> {
        self.dir.iter().map(|(n, &ino)| (n.clone(), ino)).collect()
    }

    /// File size, or `None` when absent.
    pub fn stat(&self, name: &str) -> Option<u64> {
        self.dir
            .get(name)
            .map(|&ino| self.inodes[ino as usize].size)
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<u64, FsError> {
        if name.is_empty() || name.len() > NAME_MAX {
            return Err(FsError::BadName);
        }
        if self.dir.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self
            .inodes
            .iter()
            .position(|i| !i.used)
            .ok_or(FsError::NoSpace)? as u64;
        let generation = self.inodes[ino as usize].generation + 1;
        self.inodes[ino as usize] = Inode {
            used: true,
            size: 0,
            direct: [0; crate::layout::DIRECT_PTRS],
            generation,
        };
        self.dir.insert(name.to_string(), ino);
        self.mark_inode_dirty(ino);
        self.mark_dirent_dirty(ino);
        Ok(ino)
    }

    /// Removes a file, freeing its blocks.
    pub fn unlink(&mut self, name: &str) -> Result<(), FsError> {
        let ino = *self.dir.get(name).ok_or(FsError::NotFound)?;
        for d in self.inodes[ino as usize].direct {
            if d != 0 {
                self.bitmap[d as usize] = false;
                self.mark_bitmap_dirty(d);
            }
        }
        self.inodes[ino as usize].used = false;
        self.inodes[ino as usize].size = 0;
        self.inodes[ino as usize].direct = [0; crate::layout::DIRECT_PTRS];
        self.dir.remove(name);
        self.pages.retain(|&(i, _), _| i != ino);
        self.mark_inode_dirty(ino);
        self.mark_dirent_dirty(ino);
        Ok(())
    }

    /// Writes `data` at byte `offset` (buffered until fsync).
    pub fn write(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let ino = *self.dir.get(name).ok_or(FsError::NotFound)?;
        if offset + data.len() as u64 > Inode::max_size() {
            return Err(FsError::TooLarge);
        }
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let blk_idx = pos / BLOCK_SIZE as u64;
            let blk_off = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - blk_off).min(data.len() - written);
            let page = self.page_for_update(ino, blk_idx);
            page[blk_off..blk_off + take].copy_from_slice(&data[written..written + take]);
            written += take;
        }
        let ino_ref = &mut self.inodes[ino as usize];
        ino_ref.size = ino_ref.size.max(offset + data.len() as u64);
        self.mark_inode_dirty(ino);
        Ok(())
    }

    fn page_for_update(&mut self, ino: u64, blk_idx: u64) -> &mut Vec<u8> {
        if !self.pages.contains_key(&(ino, blk_idx)) {
            // Read-modify-write from the existing block, if any.
            let existing = self.inodes[ino as usize].direct[blk_idx as usize];
            let init = if existing != 0 {
                self.dev.read_block(existing)
            } else {
                vec![0u8; BLOCK_SIZE]
            };
            self.pages.insert((ino, blk_idx), init);
        }
        self.pages.get_mut(&(ino, blk_idx)).expect("just inserted")
    }

    /// Reads `len` bytes at `offset`, observing buffered writes.
    pub fn read(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let ino = *self.dir.get(name).ok_or(FsError::NotFound)?;
        let size = self.inodes[ino as usize].size;
        let end = (offset + len as u64).min(size);
        let mut out = Vec::new();
        let mut pos = offset;
        while pos < end {
            let blk_idx = pos / BLOCK_SIZE as u64;
            let blk_off = (pos % BLOCK_SIZE as u64) as usize;
            let take = (BLOCK_SIZE - blk_off).min((end - pos) as usize);
            let page = if let Some(p) = self.pages.get(&(ino, blk_idx)) {
                p.clone()
            } else {
                let lba = self.inodes[ino as usize].direct[blk_idx as usize];
                if lba == 0 {
                    vec![0u8; BLOCK_SIZE]
                } else {
                    self.dev.read_block(lba)
                }
            };
            out.extend_from_slice(&page[blk_off..blk_off + take]);
            pos += take as u64;
        }
        Ok(out)
    }

    fn alloc_block(&mut self) -> Result<u64, FsError> {
        let start = self.layout.data_start as usize;
        for (i, used) in self.bitmap.iter_mut().enumerate().skip(start) {
            if !*used {
                *used = true;
                self.mark_bitmap_dirty(i as u64);
                return Ok(i as u64);
            }
        }
        Err(FsError::NoSpace)
    }

    fn mark_inode_dirty(&mut self, ino: u64) {
        let blk = self.layout.itable_start + (ino as usize * INODE_SIZE / BLOCK_SIZE) as u64;
        self.dirty_meta.insert(blk, ());
    }

    fn mark_dirent_dirty(&mut self, ino: u64) {
        let blk = self.layout.dir_start + (ino as usize * DIRENT_SIZE / BLOCK_SIZE) as u64;
        self.dirty_meta.insert(blk, ());
    }

    fn mark_bitmap_dirty(&mut self, lba: u64) {
        let blk = self.layout.bitmap_start + lba / (BLOCK_SIZE as u64 * 8);
        self.dirty_meta.insert(blk, ());
    }

    /// Materialises the current in-memory image of a metadata block.
    fn meta_image(&self, blk: u64) -> Vec<u8> {
        let l = &self.layout;
        let mut img = vec![0u8; BLOCK_SIZE];
        if blk >= l.itable_start && blk < l.itable_start + l.itable_blocks {
            let first = ((blk - l.itable_start) as usize * BLOCK_SIZE) / INODE_SIZE;
            for i in 0..(BLOCK_SIZE / INODE_SIZE) {
                if first + i < self.inodes.len() {
                    let enc = self.inodes[first + i].encode();
                    img[i * INODE_SIZE..(i + 1) * INODE_SIZE].copy_from_slice(&enc);
                }
            }
        } else if blk >= l.dir_start && blk < l.dir_start + l.dir_blocks {
            let first = ((blk - l.dir_start) as usize * BLOCK_SIZE) / DIRENT_SIZE;
            // Invert the dir map for the inode slots in this block.
            let mut by_ino: BTreeMap<u64, &str> = BTreeMap::new();
            for (name, &ino) in &self.dir {
                by_ino.insert(ino, name);
            }
            for i in 0..(BLOCK_SIZE / DIRENT_SIZE) {
                let ino = (first + i) as u64;
                if let Some(name) = by_ino.get(&ino) {
                    let off = i * DIRENT_SIZE;
                    img[off..off + name.len()].copy_from_slice(name.as_bytes());
                    img[off + NAME_MAX..off + NAME_MAX + 8].copy_from_slice(&ino.to_le_bytes());
                }
            }
        } else if blk >= l.bitmap_start && blk < l.bitmap_start + l.bitmap_blocks {
            let first_bit = (blk - l.bitmap_start) as usize * BLOCK_SIZE * 8;
            for (i, byte) in img.iter_mut().enumerate() {
                for bit in 0..8 {
                    let idx = first_bit + i * 8 + bit;
                    if idx < self.bitmap.len() && self.bitmap[idx] {
                        *byte |= 1 << bit;
                    }
                }
            }
        }
        img
    }

    /// Flushes a file durably: the D/JM/JC ordered triplet (§4.7).
    ///
    /// `core` selects the per-core journal area (iJournaling).
    pub fn fsync(&mut self, name: &str, core: usize) -> Result<(), FsError> {
        let ino = *self.dir.get(name).ok_or(FsError::NotFound)?;
        // --- D: write dirty data blocks in place (one ordered group).
        let dirty: Vec<(u64, Vec<u8>)> = self
            .pages
            .range((ino, 0)..(ino + 1, 0))
            .map(|(&(_, b), v)| (b, v.clone()))
            .collect();
        let mut wrote_data = false;
        for (blk_idx, data) in &dirty {
            let lba = {
                let existing = self.inodes[ino as usize].direct[*blk_idx as usize];
                if existing != 0 {
                    existing
                } else {
                    let lba = self.alloc_block()?;
                    self.inodes[ino as usize].direct[*blk_idx as usize] = lba;
                    self.mark_inode_dirty(ino);
                    lba
                }
            };
            self.dev.write_block(lba, data);
            wrote_data = true;
        }
        if wrote_data {
            self.dev.end_group();
        }
        self.pages.retain(|&(i, _), _| i != ino);

        // --- JM: journal the dirty metadata images (second group).
        let metas: Vec<u64> = self.dirty_meta.keys().copied().collect();
        self.dirty_meta.clear();
        let tx = Transaction {
            txid: self.next_txid,
            blocks: metas.iter().map(|&b| (b, self.meta_image(b))).collect(),
        };
        self.next_txid += 1;
        let area = core as u64 % self.layout.journal_areas;
        let (a_start, a_len) = self.layout.journal_area(area);
        let cursor = self.cursors[area as usize];
        journal::write_tx(&mut self.dev, a_start, a_len, cursor, &tx);
        self.dev.end_group();

        // --- JC: the commit record carries the FLUSH (third group).
        let commit_at = journal::commit_lba(a_start, a_len, cursor, &tx);
        self.dev.write_block(commit_at, &tx.commit());
        self.dev.flush();
        self.cursors[area as usize] = journal::next_cursor(a_len, cursor, &tx);

        // --- Checkpoint metadata home (recoverable from the journal).
        for &blk in &metas {
            let img = self.meta_image(blk);
            self.dev.write_block(blk, &img);
        }
        self.dev.end_group();
        self.fsyncs += 1;
        Ok(())
    }

    /// fsck: structural consistency check. Returns a list of problems
    /// (empty = consistent).
    pub fn fsck(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // Dirents point at used inodes.
        for (name, &ino) in &self.dir {
            if !self
                .inodes
                .get(ino as usize)
                .map(|i| i.used)
                .unwrap_or(false)
            {
                problems.push(format!("dirent {name} -> unused inode {ino}"));
            }
        }
        // No shared data blocks; pointers in range and allocated.
        let mut owners: BTreeMap<u64, u64> = BTreeMap::new();
        for (ino, inode) in self.inodes.iter().enumerate() {
            if !inode.used {
                continue;
            }
            for d in inode.direct {
                if d == 0 {
                    continue;
                }
                if d < self.layout.data_start || d >= self.layout.total_blocks {
                    problems.push(format!("inode {ino} points outside data region: {d}"));
                    continue;
                }
                if let Some(prev) = owners.insert(d, ino as u64) {
                    problems.push(format!("block {d} owned by inodes {prev} and {ino}"));
                }
                if !self.bitmap[d as usize] {
                    problems.push(format!("inode {ino} uses unallocated block {d}"));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MemDev, OrderedDev};

    fn fresh() -> RioFs<MemDev> {
        RioFs::mkfs(MemDev::new(1024), 2)
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = fresh();
        fs.create("hello").expect("create");
        fs.write("hello", 0, b"storage order!").expect("write");
        assert_eq!(fs.read("hello", 0, 14).expect("read"), b"storage order!");
        assert_eq!(fs.stat("hello"), Some(14));
    }

    #[test]
    fn readdir_order_stable_across_insertion_orders_and_remount() {
        let names = |fs: &RioFs<MemDev>| -> Vec<String> {
            fs.readdir().into_iter().map(|(n, _)| n).collect()
        };
        // Same files, opposite creation orders: identical scan order.
        let mut a = fresh();
        for n in ["zeta", "alpha", "mid"] {
            a.create(n).expect("create");
        }
        let mut b = fresh();
        for n in ["mid", "zeta", "alpha"] {
            b.create(n).expect("create");
        }
        assert_eq!(
            names(&a),
            vec!["alpha", "mid", "zeta"],
            "readdir is name-sorted, not insertion-ordered"
        );
        assert_eq!(names(&a), names(&b));
        // fsck's recovery-scan report walks the same map: same order.
        assert_eq!(a.fsck(), b.fsck());
        // A journal replay (remount) rebuilds the same ordering.
        for n in ["zeta", "alpha", "mid"] {
            a.write(n, 0, b"x").expect("write");
            a.fsync(n, 0).expect("fsync");
        }
        let re = RioFs::mount(a.into_device()).expect("remount");
        assert_eq!(names(&re), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn create_duplicate_rejected() {
        let mut fs = fresh();
        fs.create("a").expect("create");
        assert_eq!(fs.create("a"), Err(FsError::Exists));
        assert_eq!(fs.create(""), Err(FsError::BadName));
    }

    #[test]
    fn unlink_frees_blocks() {
        let mut fs = fresh();
        fs.create("f").expect("create");
        fs.write("f", 0, &[1; 8192]).expect("write");
        fs.fsync("f", 0).expect("fsync");
        let used_before = fs.bitmap.iter().filter(|&&b| b).count();
        fs.unlink("f").expect("unlink");
        let used_after = fs.bitmap.iter().filter(|&&b| b).count();
        assert_eq!(used_before - used_after, 2, "two data blocks freed");
        assert_eq!(fs.read("f", 0, 1), Err(FsError::NotFound));
        assert!(fs.fsck().is_empty());
    }

    #[test]
    fn data_survives_remount_after_fsync() {
        let mut fs = fresh();
        fs.create("f").expect("create");
        fs.write("f", 0, b"persist me").expect("write");
        fs.fsync("f", 0).expect("fsync");
        let dev = fs.into_device();
        let fs2 = RioFs::mount(dev).expect("remount");
        assert_eq!(fs2.read("f", 0, 10).expect("read"), b"persist me");
        assert!(fs2.fsck().is_empty());
    }

    #[test]
    fn unsynced_data_lives_only_in_cache() {
        let mut fs = fresh();
        fs.create("f").expect("create");
        fs.write("f", 0, b"volatile").expect("write");
        // Readable now...
        assert_eq!(fs.read("f", 0, 8).expect("read"), b"volatile");
        // ...but a remount without fsync does not see the file's data
        // (create was never journaled either).
        let dev = fs.into_device();
        let fs2 = RioFs::mount(dev).expect("remount");
        assert_eq!(fs2.stat("f"), None, "uncommitted create lost");
    }

    #[test]
    fn offset_writes_and_rmw() {
        let mut fs = fresh();
        fs.create("f").expect("create");
        fs.write("f", 0, &[0xAA; 4096]).expect("write");
        fs.fsync("f", 0).expect("fsync");
        // Overwrite 16 bytes in the middle (read-modify-write path).
        fs.write("f", 100, &[0xBB; 16]).expect("write");
        fs.fsync("f", 0).expect("fsync");
        let data = fs.read("f", 96, 24).expect("read");
        assert_eq!(&data[..4], &[0xAA; 4]);
        assert_eq!(&data[4..20], &[0xBB; 16]);
        assert_eq!(&data[20..], &[0xAA; 4]);
    }

    #[test]
    fn too_large_write_rejected() {
        let mut fs = fresh();
        fs.create("f").expect("create");
        let max = Inode::max_size();
        assert_eq!(fs.write("f", max, b"x"), Err(FsError::TooLarge));
    }

    #[test]
    fn many_files_readdir() {
        let mut fs = fresh();
        for i in 0..20 {
            fs.create(&format!("file{i:02}")).expect("create");
        }
        fs.fsync("file00", 0).expect("fsync");
        let names: Vec<String> = fs.readdir().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 20);
        assert_eq!(names[0], "file00");
        assert!(fs.fsck().is_empty());
    }

    #[test]
    fn fsync_on_ordered_dev_survives_any_crash_point() {
        // The core crash-consistency property: after fsync returns, the
        // file must be recoverable from EVERY admissible post-crash
        // prefix (the FLUSH pins it).
        let mut fs = RioFs::mkfs(OrderedDev::new(1024), 2);
        fs.create("mail").expect("create");
        fs.write("mail", 0, b"important").expect("write");
        fs.fsync("mail", 0).expect("fsync");
        let dev = fs.into_device();
        for keep in 0..=dev.groups() {
            let img = dev.crash_image(keep);
            let fs2 = RioFs::mount(img).expect("mount crash image");
            assert!(fs2.fsck().is_empty(), "inconsistent at prefix {keep}");
            assert_eq!(
                fs2.read("mail", 0, 9).expect("fsynced file present"),
                b"important",
                "fsync'ed data lost at prefix {keep}"
            );
        }
    }

    #[test]
    fn partial_fsync_crash_never_corrupts() {
        // Crash at every prefix DURING a second fsync: the first file
        // must always survive; the FS must always be consistent.
        let mut fs = RioFs::mkfs(OrderedDev::new(1024), 2);
        fs.create("a").expect("create");
        fs.write("a", 0, b"first").expect("write");
        fs.fsync("a", 0).expect("fsync");
        fs.create("b").expect("create");
        fs.write("b", 0, b"second").expect("write");
        fs.fsync("b", 1).expect("fsync");
        let dev = fs.into_device();
        for keep in 0..=dev.groups() {
            let img = dev.crash_image(keep);
            let fs2 = RioFs::mount(img).expect("mount");
            assert!(fs2.fsck().is_empty(), "fsck failed at prefix {keep}");
            assert_eq!(fs2.read("a", 0, 5).expect("a survives"), b"first");
        }
        // And the fully-settled image has both.
        let fs3 = RioFs::mount(dev.crash_image(dev.groups())).expect("mount settled");
        assert_eq!(fs3.read("b", 0, 6).expect("b present"), b"second");
    }
}
