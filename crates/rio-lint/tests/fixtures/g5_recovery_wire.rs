//! G5 fixture: recovery timing its scan from the fabric profile.

use rio_net::FabricProfile;

/// Microseconds to pull `bytes` of PMR log across the fabric.
pub fn scan_time_us(fabric: &FabricProfile, bytes: u64) -> u64 {
    let fabric_bw = fabric.paths[0].bandwidth.bytes_per_us();
    fabric.paths[0].one_way_latency_us + bytes / fabric_bw
}

/// A comment naming one_way or fabric_bw, and a string, stay silent.
pub fn note() -> &'static str {
    "one_way fabric_bw"
}
