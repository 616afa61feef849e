//! S6 fixture: the rest of the workspace (see `s6_unreached_pub.rs`).

pub use decl::Lonely;
use decl::{reached, unreached};

fn main() {
    reached();
    let _ = decl::build();
}
