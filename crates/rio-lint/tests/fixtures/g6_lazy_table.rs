//! G6 fixture: a checksum table built on first use.

use std::sync::OnceLock;

static TABLE: OnceLock<[u32; 256]> = OnceLock::new();

thread_local! {
    static SCRATCH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Builds the table on first call; a comment saying lazy stays silent.
pub fn lazy_table() -> &'static [u32; 256] {
    TABLE.get_or_init(|| [0; 256])
}
