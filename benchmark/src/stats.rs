//! Small statistics helpers: order statistics of host-time samples and
//! interpolated quantiles of the simulator's log-bucketed histograms.

use rio_sim::Histogram;

/// Median of `v` (mean of the two middle values for even lengths);
/// 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest value of `v`; 0 when empty.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Interquartile range of `v` as a share of its median, with the
/// quartiles Python's `statistics.quantiles(v, n=4)` returns — the
/// spread figure the benchmark contract is checked with. 0 for fewer
/// than two samples.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let n = v.len();
    let med = median(v);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(3) - cut(1)) / med
}

/// The `q`-quantile of `h` in nanoseconds, linearly interpolated
/// inside the histogram bucket that holds it.
///
/// `Histogram::quantile` answers with a bucket's upper edge, a 3 %
/// grid: too coarse for a 1 % bound, and it reads identically for
/// seeds whose distributions differ. The histogram's public step
/// function is enough to do better: bisecting over ranks finds the
/// first and last rank that share the answer's bucket, which are two
/// knots of the empirical CDF, and the quantile is interpolated
/// between them. Exact for a fixed seed like everything else virtual.
pub fn quantile_ns(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // `quantile` takes rank = ceil(q' * n); q' = (r - 0.5) / n selects
    // exactly rank r.
    let at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64).as_nanos();
    let target = q.clamp(0.0, 1.0) * n as f64;
    let rank = (target.ceil() as u64).clamp(1, n);
    let hi = at(rank);
    let (mut a, mut b) = (1, rank);
    while a < b {
        let m = (a + b) / 2;
        if at(m) >= hi {
            b = m;
        } else {
            a = m + 1;
        }
    }
    let first = a;
    let (mut a, mut b) = (rank, n);
    while a < b {
        let m = (a + b).div_ceil(2);
        if at(m) <= hi {
            a = m;
        } else {
            b = m - 1;
        }
    }
    let last = a;
    let lo = if first == 1 {
        h.min().as_nanos()
    } else {
        at(first - 1)
    };
    let frac = (target - (first - 1) as f64) / (last - first + 1) as f64;
    lo as f64 + (hi - lo) as f64 * frac.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_sim::SimDuration;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket_and_resolves_within_it() {
        let mut h = Histogram::new();
        for ns in 100_000..101_000u64 {
            h.record(SimDuration::from_nanos(ns));
        }
        let coarse = h.quantile(0.5).as_nanos() as f64;
        let fine = quantile_ns(&h, 0.5);
        assert!(fine <= coarse && fine >= 100_000.0, "{fine} vs {coarse}");
        assert!(quantile_ns(&h, 0.25) < fine && fine < quantile_ns(&h, 0.75));
        assert_eq!(quantile_ns(&Histogram::new(), 0.5), 0.0);
    }
}
