//! Measurement primitives used by the benchmark harness.
//!
//! The histogram is log-bucketed (HdrHistogram-style, base-2 with linear
//! sub-buckets) so that latency quantiles from sub-microsecond MMIO
//! persists up to multi-millisecond FLUSHes are captured with bounded
//! relative error and O(1) memory.

use crate::time::SimDuration;

/// Streaming mean/min/max accumulator over `f64` samples.
///
/// `PartialEq` compares the raw accumulator state; deterministic
/// replays of the same simulation produce bit-identical samples, so
/// equality is exact there.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MeanAccum {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl MeanAccum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MeanAccum {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const MAX_EXP: usize = 40; // Covers up to ~2^40 ns ≈ 18 minutes.

/// A log-bucketed latency histogram over nanosecond values.
///
/// Relative quantile error is bounded by `1 / 32` (~3%), plenty for
/// reproducing the paper's average and 99th-percentile figures.
///
/// # Examples
///
/// ```
/// use rio_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in 1..=100u64 {
///     h.record(SimDuration::from_nanos(us * 1_000));
/// }
/// let p50 = h.quantile(0.50).as_micros_f64();
/// assert!((45.0..=56.0).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; MAX_EXP * SUB_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros(); // floor(log2(ns)), >= SUB_BUCKET_BITS
        let top = (exp - SUB_BUCKET_BITS) as usize;
        let sub = (ns >> (exp - SUB_BUCKET_BITS)) as usize & (SUB_BUCKETS - 1);
        ((top + 1) * SUB_BUCKETS + sub).min(MAX_EXP * SUB_BUCKETS - 1)
    }

    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let top = index / SUB_BUCKETS - 1;
        let sub = index % SUB_BUCKETS;
        // Upper edge of the bucket: representative value with bounded error.
        ((SUB_BUCKETS + sub + 1) as u64) << top
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.buckets[Self::index_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        if ns < self.min_ns {
            self.min_ns = ns;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples; zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Exact maximum sample; zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Exact minimum sample; zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), within ~3% relative error.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(Self::value_of(i).min(self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_accum_tracks_extremes() {
        let mut m = MeanAccum::new();
        assert_eq!(m.mean(), 0.0);
        for v in [3.0, 1.0, 2.0] {
            m.record(v);
        }
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 3.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99).as_nanos(), 0);
        assert_eq!(h.mean().as_nanos(), 0);
        assert_eq!(h.min().as_nanos(), 0);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for ns in 0..SUB_BUCKETS as u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        // Values below the sub-bucket count land in exact unit buckets.
        assert_eq!(h.quantile(0.0).as_nanos(), 0);
        assert_eq!(h.count(), SUB_BUCKETS as u64);
    }

    #[test]
    fn histogram_quantile_bounded_error() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(us * 1_000));
        }
        for &(q, expect_us) in &[(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).as_micros_f64();
            let err = (got - expect_us).abs() / expect_us;
            assert!(err < 0.05, "q={q}: got {got}, want ~{expect_us}");
        }
    }

    #[test]
    fn histogram_merge_equals_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..1000u64 {
            let d = SimDuration::from_nanos(i * 37 % 100_000);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.5).as_nanos(), all.quantile(0.5).as_nanos());
        assert_eq!(a.max().as_nanos(), all.max().as_nanos());
    }

    proptest! {
        /// Quantile is monotone in q and bounded by min/max.
        #[test]
        fn prop_quantile_monotone(samples in proptest::collection::vec(0u64..10_000_000, 1..300)) {
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(SimDuration::from_nanos(s));
            }
            let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0u64;
            for &q in &qs {
                let v = h.quantile(q).as_nanos();
                prop_assert!(v >= prev, "quantile not monotone");
                prop_assert!(v <= h.max().as_nanos());
                prev = v;
            }
        }

        /// The recorded max is exact and the p100 equals it.
        #[test]
        fn prop_p100_is_max(samples in proptest::collection::vec(1u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            let mut true_max = 0;
            for &s in &samples {
                h.record(SimDuration::from_nanos(s));
                true_max = true_max.max(s);
            }
            prop_assert_eq!(h.max().as_nanos(), true_max);
            prop_assert_eq!(h.quantile(1.0).as_nanos(), true_max);
        }
    }
}
