//! Seeded pseudo-random sources.
//!
//! All simulator randomness (workload addresses, device jitter, crash
//! points) flows through [`SimRng`], a thin deterministic wrapper around a
//! fixed-algorithm PRNG. Components derive independent child streams via
//! [`SimRng::fork`], so adding a random draw in one component never
//! perturbs another component's sequence.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random source for one simulator component.
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a source from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream.
    ///
    /// The child is keyed off a fresh draw so that sibling forks are
    /// decorrelated even when created back to back.
    pub fn fork(&mut self) -> SimRng {
        let seed: u64 = self.inner.gen();
        SimRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Uniform draw in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.inner.gen_range(0..bound)
        }
    }

    /// Uniform draw in the inclusive range `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            lo
        } else {
            self.inner.gen_range(lo..=hi)
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Multiplicative jitter: a value in `[1 - amp, 1 + amp]`.
    ///
    /// Used to perturb device service times so that completions across
    /// independent queues interleave non-trivially (the reordering the
    /// paper attributes to SSD internal parallelism and the NIC).
    pub fn jitter(&mut self, amp: f64) -> f64 {
        1.0 + (self.inner.gen::<f64>() * 2.0 - 1.0) * amp.clamp(0.0, 0.99)
    }

    /// Picks one element index uniformly; `None` for an empty slice length.
    pub fn pick_index(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            None
        } else {
            Some(self.inner.gen_range(0..len))
        }
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimRng")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = SimRng::seed_from_u64(1);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        let s1: Vec<u64> = (0..32).map(|_| c1.below(1 << 30)).collect();
        let s2: Vec<u64> = (0..32).map(|_| c2.below(1 << 30)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_zero_bound_is_zero() {
        let mut r = SimRng::seed_from_u64(3);
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn between_degenerate_range() {
        let mut r = SimRng::seed_from_u64(3);
        assert_eq!(r.between(9, 9), 9);
        assert_eq!(r.between(10, 5), 10);
        for _ in 0..100 {
            let v = r.between(4, 6);
            assert!((4..=6).contains(&v));
        }
    }

    #[test]
    fn jitter_within_amplitude() {
        let mut r = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            let j = r.jitter(0.25);
            assert!((0.75..=1.25).contains(&j), "jitter out of range: {j}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn pick_index_bounds() {
        let mut r = SimRng::seed_from_u64(17);
        assert_eq!(r.pick_index(0), None);
        for _ in 0..100 {
            assert!(r.pick_index(5).unwrap() < 5);
        }
    }
}
