//! Virtual time: integer nanoseconds since simulation start.
//!
//! Integer (rather than float) time keeps event ordering exact and the
//! simulation deterministic across platforms.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the raw nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns this instant in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to ns.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        SimDuration(round_u64(us * 1_000.0))
    }

    /// Returns the raw nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns this duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Scales the duration by an integer factor.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

/// An instant reads as its distance from [`SimTime::ZERO`].
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.since(SimTime::ZERO), f)
    }
}

/// `x` rounded half away from zero, as `x.round().max(0.0) as u64`
/// gives it for every `f64` (NaN, negatives and anything below one half
/// give 0; 2^64 and above saturate), in integer steps: the x86-64
/// baseline has no rounding instruction, and `f64::round` is a software
/// call on the event path.
#[inline]
pub(crate) fn round_u64(x: f64) -> u64 {
    if x >= (1u64 << 52) as f64 {
        // Every `f64` from 2^52 on is whole; the cast saturates.
        x as u64
    } else if x >= 0.5 {
        // Below 2^52 the truncation and the fraction `x - whole` are exact.
        let whole = x as i64;
        (whole + i64::from(x - whole as f64 >= 0.5)) as u64
    } else {
        // NaN, negatives and anything below one half.
        0
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn add_and_since() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDuration::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1.since(t0).as_nanos(), 50);
        // `since` saturates rather than underflowing.
        assert_eq!(t0.since(t1).as_nanos(), 0);
    }

    #[test]
    fn saturating_arithmetic_at_extremes() {
        let far = SimTime::from_nanos(u64::MAX);
        assert_eq!(far + SimDuration::from_secs(1), far);
        let big = SimDuration::from_nanos(u64::MAX);
        assert_eq!(big.saturating_mul(3).as_nanos(), u64::MAX);
    }

    #[test]
    fn fractional_conversions() {
        assert!((SimDuration::from_micros_f64(1.5).as_nanos() as i64 - 1500).abs() <= 1);
        assert_eq!(SimDuration::from_micros_f64(-4.0).as_nanos(), 0);
        let t = SimTime::from_nanos(2_500_000_000);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn integer_rounding_matches_f64_round() {
        let reference = |x: f64| x.round().max(0.0) as u64;
        let two = |e: i32| 2f64.powi(e);
        let mut inputs = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            -0.4,
            -0.5,
            -1.5,
            two(52) - 0.5,
            two(52) + 0.5,
            two(52),
            two(52) + 1.0,
            two(53) + 2.0,
            two(63),
            two(64),
            two(64) - 2048.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        inputs.extend((0..64).map(|k| k as f64 + 0.5));
        let mut rng = SimRng::seed_from_u64(72);
        for _ in 0..200_000 {
            let n = rng.below(1 << 52) as f64;
            inputs.push(f64::from_bits(rng.next_u64()));
            inputs.push(n + 0.5);
            inputs.push(rng.unit() * two(rng.below(70) as i32));
        }
        for x in inputs {
            assert_eq!(round_u64(x), reference(x), "{x:e} ({:#x})", x.to_bits());
        }
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", SimDuration::from_nanos(3_000_000)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", SimTime::from_nanos(3_000_000)), "3.000ms");
        assert_eq!(format!("{}", SimTime::from_nanos(2_000_000_000)), "2.000s");
    }

    #[test]
    fn max_of_instants() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
