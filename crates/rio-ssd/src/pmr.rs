//! The Persistent Memory Region: byte-addressable, crash-survivable.
//!
//! The paper uses 2 MB of capacitor-backed in-SSD DRAM remapped through
//! a PCIe BAR (§5). The model is a byte array that survives
//! [`crate::Ssd::crash`] and holds only what was written: it is cut into
//! 64 KiB pages, each allocated by the first write that touches it, and
//! every byte no write reached reads as zero. RIO's log fills
//! its region front to back, so a target that logged a few thousand
//! records holds a few pages, not the whole 2 MB. The *cost* of a
//! persistent MMIO write (~0.6 µs per 32 B record, §6.1) is charged by
//! the caller, because on real hardware it is the issuing CPU that
//! stalls on the read-after-write, not the SSD.

/// Bytes per page: a multiple of the 32-byte log record, so no record
/// straddles two pages.
const PAGE: usize = 64 << 10;

/// One page of the region: `None` until a write touches it.
type Page = Option<Box<[u8]>>;

/// A byte-addressable persistent region, allocated page by page as it
/// is written.
#[derive(Debug, Clone)]
pub struct Pmr {
    len: usize,
    /// The page table, allocated by the first write.
    pages: Option<Box<[Page]>>,
}

impl Pmr {
    /// Creates a zeroed region of `len` bytes.
    pub fn new(len: usize) -> Self {
        Pmr { len, pages: None }
    }

    /// Region size in bytes (what an MMIO scan covers), written or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is zero-sized (PMR absent).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `data` at `offset` (a persistent MMIO write), allocating
    /// every page it touches that no earlier write did.
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the region.
    pub fn mmio_write(&mut self, offset: usize, data: &[u8]) {
        // Nearly every log write lands inside a page an earlier write
        // allocated: that is one table lookup and a copy, and the rest
        // stays out of line (the log writes on every command).
        let (index, within) = (offset / PAGE, offset % PAGE);
        let table = self.pages.as_deref_mut();
        let page = table.and_then(|t| t.get_mut(index)?.as_deref_mut());
        match page.and_then(|p| p.get_mut(within..within + data.len())) {
            Some(dst) => dst.copy_from_slice(data),
            None => self.write_allocating(offset, data),
        }
    }

    /// [`Pmr::mmio_write`] for a write that reaches a page not yet
    /// allocated, spans pages, or exceeds the region.
    #[cold]
    #[inline(never)]
    fn write_allocating(&mut self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.len,
            "PMR write out of bounds: {}+{} > {}",
            offset,
            data.len(),
            self.len
        );
        let len = self.len;
        let pages = self
            .pages
            .get_or_insert_with(|| vec![None; len.div_ceil(PAGE)].into());
        let (mut at, mut data) = (offset, data);
        while !data.is_empty() {
            let (index, within) = (at / PAGE, at % PAGE);
            let page_len = PAGE.min(len - index * PAGE);
            let page = pages[index].get_or_insert_with(|| vec![0; page_len].into());
            let n = data.len().min(page_len - within);
            page[within..within + n].copy_from_slice(&data[..n]);
            (at, data) = (at + n, &data[n..]);
        }
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the read exceeds the region.
    #[cfg(test)]
    pub fn mmio_read(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= self.len, "PMR read out of bounds");
        let mut out = vec![0; len];
        for (at, page) in self.written() {
            let lo = offset.max(at);
            let hi = (offset + len).min(at + page.len());
            if lo < hi {
                out[lo - offset..hi - offset].copy_from_slice(&page[lo - at..hi - at]);
            }
        }
        out
    }

    /// Every written page as its byte offset and contents, in address
    /// order (post-crash scanning); the bytes between them read as
    /// zero. Each page is 64 KiB but the region's last, which ends at
    /// [`Pmr::len`].
    pub fn written(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let pages = self.pages.iter().flat_map(|table| table.iter());
        pages
            .enumerate()
            .filter_map(|(index, page)| Some((index * PAGE, page.as_deref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut p = Pmr::new(64);
        p.mmio_write(8, &[1, 2, 3]);
        assert_eq!(p.mmio_read(8, 3), &[1, 2, 3]);
        assert_eq!(p.mmio_read(0, 2), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_rejected() {
        // A region nothing wrote still knows its bounds.
        let mut p = Pmr::new(16);
        p.mmio_write(10, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_rejected() {
        let p = Pmr::new(16);
        let _ = p.mmio_read(10, 8);
    }

    #[test]
    fn zero_sized_region() {
        let p = Pmr::new(0);
        assert!(p.is_empty());
        assert_eq!(p.written().count(), 0);
    }

    #[test]
    fn a_region_is_three_words() {
        // The size of the `Vec<u8>` it replaced: every SSD holds one,
        // written or not. Its page table is a boxed slice.
        assert_eq!(std::mem::size_of::<Pmr>(), 24);
        let mut p = Pmr::new(2 << 20);
        p.mmio_write(0, &[1]);
        assert_eq!(p.written().map(|(_, page)| page.len()).sum::<usize>(), PAGE);
    }

    #[test]
    fn an_unwritten_region_has_its_length_and_no_contents() {
        let p = Pmr::new(2 << 20);
        assert_eq!(p.len(), 2 << 20);
        assert!(!p.is_empty());
        assert_eq!(p.written().count(), 0);
        assert_eq!(p.mmio_read((2 << 20) - 4, 4), &[0; 4]);
    }

    #[test]
    fn the_first_write_materialises_only_its_page() {
        let mut p = Pmr::new(3 * PAGE + 32);
        p.mmio_write(PAGE + 4, &[7, 8]);
        let mut want = vec![0; PAGE];
        want[4..6].copy_from_slice(&[7, 8]);
        assert!(p.written().eq([(PAGE, &want[..])]));
        // The short last page ends with the region.
        p.mmio_write(3 * PAGE + 30, &[9, 9]);
        let mut last = [0; 32];
        last[30..].copy_from_slice(&[9, 9]);
        assert!(p.written().eq([(PAGE, &want[..]), (3 * PAGE, &last[..])]));
    }

    #[test]
    fn a_write_across_a_page_boundary_lands_in_both_pages() {
        let mut p = Pmr::new(2 * PAGE);
        p.mmio_write(PAGE - 2, &[1, 2, 3, 4]);
        let pages: Vec<(usize, &[u8])> = p.written().collect();
        assert_eq!(pages.len(), 2);
        assert_eq!((pages[0].0, &pages[0].1[PAGE - 2..]), (0, &[1, 2][..]));
        assert_eq!((pages[1].0, &pages[1].1[..2]), (PAGE, &[3, 4][..]));
        assert_eq!(p.mmio_read(PAGE - 3, 6), &[0, 1, 2, 3, 4, 0]);
    }
}
