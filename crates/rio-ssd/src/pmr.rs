//! The Persistent Memory Region: byte-addressable, crash-survivable.
//!
//! The paper uses 2 MB of capacitor-backed in-SSD DRAM remapped through
//! a PCIe BAR (§5). The model is a plain byte array that survives
//! [`crate::Ssd::crash`]; the *cost* of a persistent MMIO write
//! (~0.6 µs per 32 B record, §6.1) is charged by the caller, because on
//! real hardware it is the issuing CPU that stalls on the read-after-
//! write, not the SSD.

/// A byte-addressable persistent region.
#[derive(Debug, Clone)]
pub struct Pmr {
    bytes: Vec<u8>,
}

impl Pmr {
    /// Creates a zeroed region of `len` bytes.
    pub fn new(len: usize) -> Self {
        Pmr {
            bytes: vec![0; len],
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the region is zero-sized (PMR absent).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Stores `data` at `offset` (a persistent MMIO write).
    ///
    /// # Panics
    ///
    /// Panics if the write exceeds the region.
    pub fn mmio_write(&mut self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.bytes.len(),
            "PMR write out of bounds: {}+{} > {}",
            offset,
            data.len(),
            self.bytes.len()
        );
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the read exceeds the region.
    #[cfg(test)]
    pub fn mmio_read(&self, offset: usize, len: usize) -> &[u8] {
        assert!(offset + len <= self.bytes.len(), "PMR read out of bounds");
        &self.bytes[offset..offset + len]
    }

    /// The whole region (post-crash scanning).
    pub fn contents(&self) -> &[u8] {
        &self.bytes
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
}
