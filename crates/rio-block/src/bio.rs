//! The block I/O descriptor.

use rio_order::attr::{BlockRange, OrderingAttr};

/// Unique identifier of a bio within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BioId(pub u64);

/// Request flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BioFlags {
    /// Write (false = read).
    pub write: bool,
    /// Issue a FLUSH after the data (journal commit records).
    pub flush: bool,
    /// Force unit access.
    pub fua: bool,
}

/// One block I/O request as it flows through the stack.
///
/// `ordering` plays the role of the `bi_private` field the Rio
/// implementation reuses to carry the ordering attribute (§5): `None`
/// means an orderless request.
#[derive(Debug, Clone)]
pub struct Bio {
    /// Identifier (completion matching).
    pub id: BioId,
    /// Logical range on the volume.
    pub range: BlockRange,
    /// Flags.
    pub flags: BioFlags,
    /// Rio ordering attribute, when the request is ordered.
    pub ordering: Option<OrderingAttr>,
    /// Payload tag for benchmark writes (media stores tags, not bytes).
    pub tag: u64,
}

impl Bio {
    /// Creates an orderless write bio.
    pub fn write(id: u64, range: BlockRange, tag: u64) -> Self {
        Bio {
            id: BioId(id),
            range,
            flags: BioFlags {
                write: true,
                ..Default::default()
            },
            ordering: None,
            tag,
        }
    }

    /// Creates an ordered write bio carrying `attr`.
    #[cfg(test)]
    pub fn ordered_write(id: u64, attr: OrderingAttr, tag: u64) -> Self {
        Bio {
            id: BioId(id),
            range: attr.range,
            flags: BioFlags {
                write: true,
                flush: attr.flush,
                ..Default::default()
            },
            ordering: Some(attr),
            tag,
        }
    }

    /// Whether this bio is ordered.
    pub fn is_ordered(&self) -> bool {
        self.ordering.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_order::attr::{Seq, StreamId};

    #[test]
    fn orderless_constructor() {
        let b = Bio::write(1, BlockRange::new(0, 8), 42);
        assert!(b.flags.write);
        assert!(!b.is_ordered());
        assert_eq!(b.range.blocks, 8);
    }

    #[test]
    fn ordered_constructor_carries_attr_and_flush() {
        let mut attr = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(4, 2));
        attr.flush = true;
        let b = Bio::ordered_write(2, attr, 7);
        assert!(b.is_ordered());
        assert!(b.flags.flush, "attribute FLUSH surfaces as a bio flag");
        assert_eq!(b.range, BlockRange::new(4, 2));
    }
}
