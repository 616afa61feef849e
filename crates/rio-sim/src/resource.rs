//! Analytic models of serial and parallel resources.
//!
//! Device models express contention through these primitives instead of
//! carrying their own queue bookkeeping:
//!
//! * [`FifoResource`] — a single server (one flash channel, one DMA
//!   engine): jobs serialize; each admission returns the completion
//!   instant.
//! * [`MultiServer`] — `k` identical servers (SSD internal channels, a
//!   server's CPU cores): jobs go to the earliest-free server, or to a
//!   named one, with one busy ledger for utilisation.
//! * [`BandwidthLink`] — a store-and-forward link: transfer time is
//!   `bytes / bandwidth`, transfers serialize on the wire.

use crate::time::{round_u64, SimDuration, SimTime};

/// A single serially-shared resource.
#[derive(Debug, Clone)]
pub struct FifoResource {
    free_at: SimTime,
    busy: SimDuration,
}

impl Default for FifoResource {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        FifoResource {
            free_at: SimTime::ZERO,
            busy: SimDuration::ZERO,
        }
    }

    /// Admits a job arriving at `now` needing `service` time; returns its
    /// completion instant. Jobs queue FIFO behind earlier admissions.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.free_at.max(now);
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        done
    }

    /// Total busy time accumulated.
    #[cfg(test)]
    fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Forgets all queued work (used on simulated crash).
    pub fn reset(&mut self, now: SimTime) {
        self.free_at = now;
    }
}

/// `k` identical servers fed from one queue (join the earliest-free one).
#[derive(Debug, Clone)]
pub struct MultiServer {
    free_at: Vec<SimTime>,
    busy: SimDuration,
}

impl MultiServer {
    /// Creates `k` idle servers. `k` is clamped to at least 1.
    pub fn new(k: usize) -> Self {
        MultiServer {
            free_at: vec![SimTime::ZERO; k.max(1)],
            busy: SimDuration::ZERO,
        }
    }

    /// Admits a job arriving at `now` with `service` demand; returns its
    /// completion instant on the earliest-free server.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .expect("at least one server");
        let start = self.free_at[idx].max(now);
        let done = start + service;
        self.free_at[idx] = done;
        self.busy += service;
        done
    }

    /// Admits a job to a *specific* server (hash-affinity models, or
    /// work one server runs in order).
    pub fn admit_to(&mut self, server: usize, now: SimTime, service: SimDuration) -> SimTime {
        let idx = server % self.free_at.len();
        let start = self.free_at[idx].max(now);
        let done = start + service;
        self.free_at[idx] = done;
        self.busy += service;
        done
    }

    /// Utilisation over `elapsed`: busy server-seconds ÷ available
    /// server-seconds, in `[0, 1]`.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.as_nanos() == 0 {
            return 0.0;
        }
        let avail = elapsed.as_secs_f64() * self.free_at.len() as f64;
        (self.busy.as_secs_f64() / avail).min(1.0)
    }

    /// Forgets all queued work (used on simulated crash).
    pub fn reset(&mut self, now: SimTime) {
        for t in &mut self.free_at {
            *t = now;
        }
    }
}

/// A store-and-forward link with finite bandwidth.
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    bytes_per_sec: f64,
    wire: FifoResource,
}

impl BandwidthLink {
    /// Creates a link with the given bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be positive"
        );
        BandwidthLink {
            bytes_per_sec,
            wire: FifoResource::new(),
        }
    }

    /// Serialization delay of `bytes` on an idle wire.
    #[inline]
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        let secs = bytes as f64 / self.bytes_per_sec;
        SimDuration::from_nanos(round_u64(secs * 1e9))
    }

    /// Admits a transfer of `bytes` arriving at `now`; returns the instant
    /// the last byte leaves the wire.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let ser = self.serialization(bytes);
        self.wire.admit(now, ser)
    }

    /// Forgets every transfer still queued for the wire (used on
    /// simulated crash).
    pub fn reset(&mut self, now: SimTime) {
        self.wire.reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_back_to_back() {
        let mut r = FifoResource::new();
        let t1 = r.admit(SimTime::from_nanos(0), SimDuration::from_nanos(100));
        let t2 = r.admit(SimTime::from_nanos(10), SimDuration::from_nanos(100));
        assert_eq!(t1.as_nanos(), 100);
        assert_eq!(t2.as_nanos(), 200, "second job queues behind first");
        assert_eq!(r.busy_time().as_nanos(), 200);
    }

    #[test]
    fn fifo_idle_gap_not_counted_busy() {
        let mut r = FifoResource::new();
        r.admit(SimTime::from_nanos(0), SimDuration::from_nanos(50));
        let t = r.admit(SimTime::from_nanos(1_000), SimDuration::from_nanos(50));
        assert_eq!(t.as_nanos(), 1_050);
        assert_eq!(r.busy_time().as_nanos(), 100);
    }

    #[test]
    fn fifo_reset_discards_backlog() {
        let mut r = FifoResource::new();
        r.admit(SimTime::ZERO, SimDuration::from_secs(10));
        r.reset(SimTime::from_nanos(5));
        let t = r.admit(SimTime::from_nanos(5), SimDuration::from_nanos(1));
        assert_eq!(t.as_nanos(), 6);
    }

    #[test]
    fn multi_server_runs_k_in_parallel() {
        let mut m = MultiServer::new(4);
        let done: Vec<u64> = (0..4)
            .map(|_| {
                m.admit(SimTime::ZERO, SimDuration::from_nanos(100))
                    .as_nanos()
            })
            .collect();
        assert_eq!(done, vec![100, 100, 100, 100]);
        // The fifth job queues behind one of them.
        let fifth = m.admit(SimTime::ZERO, SimDuration::from_nanos(100));
        assert_eq!(fifth.as_nanos(), 200);
    }

    #[test]
    fn multi_server_affinity_serializes_per_server() {
        let mut m = MultiServer::new(4);
        let a = m.admit_to(1, SimTime::ZERO, SimDuration::from_nanos(100));
        let b = m.admit_to(1, SimTime::ZERO, SimDuration::from_nanos(100));
        let c = m.admit_to(2, SimTime::ZERO, SimDuration::from_nanos(100));
        assert_eq!(a.as_nanos(), 100);
        assert_eq!(b.as_nanos(), 200);
        assert_eq!(c.as_nanos(), 100);
    }

    #[test]
    fn multi_server_clamps_zero() {
        let mut m = MultiServer::new(0);
        let a = m.admit(SimTime::ZERO, SimDuration::from_nanos(100));
        let b = m.admit(SimTime::ZERO, SimDuration::from_nanos(100));
        assert_eq!((a.as_nanos(), b.as_nanos()), (100, 200), "one server");
    }

    #[test]
    fn work_on_same_core_serializes() {
        let mut cs = MultiServer::new(2);
        let a = cs.admit_to(0, SimTime::ZERO, SimDuration::from_nanos(1000));
        let b = cs.admit_to(0, SimTime::ZERO, SimDuration::from_nanos(1000));
        let c = cs.admit_to(1, SimTime::ZERO, SimDuration::from_nanos(1000));
        assert_eq!(a.as_nanos(), 1000);
        assert_eq!(b.as_nanos(), 2000, "same core queues");
        assert_eq!(c.as_nanos(), 1000, "other core parallel");
    }

    #[test]
    fn core_index_wraps() {
        let mut cs = MultiServer::new(2);
        let a = cs.admit_to(0, SimTime::ZERO, SimDuration::from_nanos(500));
        let b = cs.admit_to(2, SimTime::ZERO, SimDuration::from_nanos(500));
        assert_eq!(a.as_nanos(), 500);
        assert_eq!(b.as_nanos(), 1000, "core 2 wraps onto core 0");
    }

    #[test]
    fn utilization_accounting() {
        let mut cs = MultiServer::new(4);
        cs.admit_to(0, SimTime::ZERO, SimDuration::from_nanos(1_000_000));
        cs.admit_to(1, SimTime::ZERO, SimDuration::from_nanos(1_000_000));
        // 2 of 4 cores busy for the first millisecond.
        let u = cs.utilization(SimDuration::from_nanos(1_000_000));
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn utilization_zero_elapsed() {
        let cs = MultiServer::new(1);
        assert_eq!(cs.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn link_serialization_time() {
        // 25 GB/s (200 Gbps): 4 KiB should take ~164 ns.
        let link = BandwidthLink::new(25e9);
        let ns = link.serialization(4096).as_nanos();
        assert!((160..=170).contains(&ns), "got {ns}");
    }

    #[test]
    fn link_transfers_serialize() {
        let mut link = BandwidthLink::new(1e9); // 1 GB/s: 1 byte = 1 ns.
        let t1 = link.transfer(SimTime::ZERO, 1_000);
        let t2 = link.transfer(SimTime::ZERO, 1_000);
        assert_eq!(t1.as_nanos(), 1_000);
        assert_eq!(t2.as_nanos(), 2_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn link_rejects_zero_bandwidth() {
        let _ = BandwidthLink::new(0.0);
    }
}
