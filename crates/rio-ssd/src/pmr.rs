//! The Persistent Memory Region: byte-addressable, crash-survivable.
//!
//! The paper uses 2 MB of capacitor-backed in-SSD DRAM remapped through
//! a PCIe BAR (§5). The model is a byte array that survives
//! [`crate::Ssd::crash`] and exists from its first write, as only RIO's
//! log writes one; the *cost* of a persistent MMIO write (~0.6 µs per
//! 32 B record, §6.1) is charged by the caller, because on real hardware
//! it is the issuing CPU that stalls on the read-after-write, not the SSD.

/// A byte-addressable persistent region, allocated by its first write.
#[derive(Debug, Clone)]
pub struct Pmr {
    len: usize,
    bytes: Option<Box<[u8]>>,
}

impl Pmr {
    /// Creates a zeroed region of `len` bytes.
    pub fn new(len: usize) -> Self {
        Pmr { len, bytes: None }
    }

    /// Region size in bytes (what an MMIO scan covers), written or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is zero-sized (PMR absent).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `data` at `offset` (a persistent MMIO write).
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the region.
    pub fn mmio_write(&mut self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.len,
            "PMR write out of bounds: {}+{} > {}",
            offset,
            data.len(),
            self.len
        );
        let bytes = self.bytes.get_or_insert_with(|| vec![0; self.len].into());
        bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the read exceeds the region.
    #[cfg(test)]
    pub fn mmio_read(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= self.len, "PMR read out of bounds");
        let written = self.contents().get(offset..offset + len);
        written.map_or(vec![0; len], <[u8]>::to_vec)
    }

    /// The whole region (post-crash scanning), or nothing if unwritten.
    pub fn contents(&self) -> &[u8] {
        self.bytes.as_deref().unwrap_or_default()
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
        assert_eq!(p.contents().len(), 0);
    }

    #[test]
    fn a_region_is_three_words() {
        // The size of the `Vec<u8>` it replaced: every SSD holds one,
        // written or not.
        assert_eq!(std::mem::size_of::<Pmr>(), 24);
    }

    #[test]
    fn an_unwritten_region_has_its_length_and_no_contents() {
        let p = Pmr::new(2 << 20);
        assert_eq!(p.len(), 2 << 20);
        assert!(!p.is_empty());
        assert!(p.contents().is_empty());
        assert_eq!(p.mmio_read((2 << 20) - 4, 4), &[0; 4]);
    }

    #[test]
    fn the_first_write_materialises_the_whole_region() {
        let mut p = Pmr::new(32);
        p.mmio_write(4, &[7, 8]);
        let mut want = [0; 32];
        want[4..6].copy_from_slice(&[7, 8]);
        assert_eq!(p.contents(), want);
        p.mmio_write(30, &[9, 9]);
        want[30..].copy_from_slice(&[9, 9]);
        assert_eq!(p.contents(), want);
    }
}
