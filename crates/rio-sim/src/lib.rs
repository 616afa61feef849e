//! Deterministic discrete-event simulation engine for the Rio storage stack.
//!
//! Every performance experiment in this repository runs on a virtual
//! nanosecond clock driven by a stable event heap. All randomness flows
//! from a single seeded PRNG, so a simulation run is a pure function of
//! `(configuration, seed)` — re-running an experiment reproduces every
//! event, including injected crashes, bit for bit.
//!
//! The engine is deliberately small and single-threaded:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time.
//! * [`EventHeap`] — a time-ordered heap with FIFO tie-breaking, the
//!   ordering backbone of the whole simulator.
//! * [`rng`] — seeded pseudo-random sources for workloads and jitter.
//! * [`slab`] — a generational slab arena keying in-flight objects by
//!   dense ids, replacing hot-path hash maps.
//! * [`stats`] — counters, mean accumulators and log-bucketed latency
//!   histograms used by the benchmark harness.
//! * [`resource`] — tiny analytic models of serial resources (a DMA
//!   engine, a flash channel, a link) used by the device models.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod hash;
pub mod heap;
pub mod resource;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use hash::FxHashMap;
pub use heap::EventHeap;
pub use resource::{BandwidthLink, FifoResource, MultiServer};
pub use rng::SimRng;
pub use slab::Slab;
pub use stats::{Histogram, MeanAccum};
pub use time::{SimDuration, SimTime};
