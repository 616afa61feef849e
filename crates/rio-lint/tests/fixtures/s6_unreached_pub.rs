//! S6 fixture: the declaring crate. `s6_caller.rs` is everything else
//! in the workspace.

/// Called from the other crate: reached.
pub fn reached() {}

/// Named by nothing but this declaration.
pub fn unreached() {}

/// Named only inside `#[cfg(test)]` code, which is not a caller.
pub fn unit_tested_only() {}

/// Named by its own impl and a re-export; neither reaches it.
pub struct Lonely;

impl Lonely {
    /// Reached, so only the type is reported.
    pub fn build() -> Lonely {
        Lonely
    }
}

/// Excused with the caller it waits for.
// rio-lint: allow(S6) the next PR's wire codec calls it
pub const WAITING: u32 = 7;

/// Not public: out of the rule's scope.
pub(crate) fn internal() {}

/// Compiled for unit tests only: out of scope too.
#[cfg(test)]
pub fn observation_point() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::unit_tested_only();
        super::observation_point();
    }
}
