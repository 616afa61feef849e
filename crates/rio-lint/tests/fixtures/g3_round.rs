//! G3 fixture: software rounding on the event path.

/// Converts microseconds to whole ticks, the slow way.
pub fn ticks(us: f64) -> u64 {
    (us * 1e3).round() as u64
}

/// `x.round()` in a doc comment and in a string stays silent.
pub fn label() -> &'static str {
    "x.round()"
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_may_round() {
        assert_eq!(2.5f64.round(), 3.0);
    }
}
