//! G8 fixture: a second core pool beside `ClusterConfig::cores`.

/// One server's driver cores.
pub struct CoreSet {
    /// Cores in the set.
    pub cores: usize,
}

/// Per-target knobs.
pub struct TargetConfig {
    /// Queue pairs per connection.
    pub qps_per_target: usize,
    /// Blocks per stripe unit.
    pub stripe_blocks: u64,
}

/// `CoreSets` is another word, and "CoreSet" in a string stays silent.
pub struct CoreSets(pub &'static str);

/// Builds the pool.
pub fn with_cores(n: usize) -> CoreSet {
    let _ = CoreSets("CoreSet");
    CoreSet { cores: n }
}
