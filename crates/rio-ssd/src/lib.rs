//! An NVMe SSD model faithful to the behaviours Rio's evaluation hinges
//! on.
//!
//! The paper's results are driven by a handful of device properties, and
//! each is a first-class part of this model:
//!
//! * **Write cache + FLUSH** — on a flash SSD without power-loss
//!   protection (PLP), writes complete into a volatile cache and a
//!   device-wide FLUSH drains it to media, stalling the device (the
//!   dominant cost in Fig. 2a/10a). On PLP drives (Optane) FLUSH is
//!   nearly free.
//! * **Finite drain bandwidth** — sustained write throughput is bounded
//!   by media bandwidth even though cache-hit latency is microseconds.
//! * **Command processing concurrency** — a per-command overhead across
//!   `queue_processors` internal units caps IOPS independently of
//!   bandwidth.
//! * **Crash semantics** — on power loss the volatile cache is lost, the
//!   media and the PMR survive; exactly the states Rio's recovery must
//!   handle.
//! * **PMR** — a byte-addressable persistent region with ~0.6 µs 32 B
//!   MMIO persist cost (§6.1).
//!
//! The model is *passive*: every operation takes the current virtual
//! time and returns its completion instant analytically, so it composes
//! with any discrete-event loop without owning one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod media;
pub mod pmr;
pub mod profile;
pub mod ssd;

pub use media::{BlockImage, BlockRun, BlockStore, Images};
pub use pmr::Pmr;
pub use profile::SsdProfile;
pub use ssd::{Ssd, SsdStats};
