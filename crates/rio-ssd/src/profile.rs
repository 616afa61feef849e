//! Device profiles calibrated to the paper's testbed hardware.
//!
//! Constants come from public datasheets and the paper's own
//! measurements (§6.1: "It costs around 0.6 µs to persist a 32 B
//! ordering attribute to PMR"). They are deliberately coarse — the goal
//! is to reproduce *relative* behaviour (who wins and by roughly what
//! factor), which EXPERIMENTS.md validates figure by figure.

/// Performance and durability parameters of one simulated SSD.
#[derive(Debug, Clone)]
pub struct SsdProfile {
    /// Human-readable model name.
    pub name: &'static str,
    /// Power-loss protection: writes are durable at completion and
    /// FLUSH is (nearly) free.
    pub plp: bool,
    /// Capacity in 4 KB blocks.
    pub capacity_blocks: u64,
    /// Latency for a 4 KB write to reach the cache (unsaturated).
    pub write_us: f64,
    /// Additional per-block latency beyond the first block.
    pub write_us_per_extra_block: f64,
    /// Sustained media (drain) bandwidth in bytes/second.
    pub media_bw: f64,
    /// Volatile (or PLP-protected) write-cache capacity in bytes.
    pub cache_bytes: u64,
    /// How long a completed write lingers in the volatile cache before
    /// the background drain may persist it (FTL batching). Crash within
    /// this window loses the data unless a FLUSH intervened.
    pub drain_lag_us: f64,
    /// Fixed FLUSH overhead in microseconds (drain time comes on top).
    pub flush_base_us: f64,
    /// Internal command processors (IOPS cap = processors / overhead).
    pub queue_processors: usize,
    /// Per-command processing overhead in microseconds.
    pub cmd_overhead_us: f64,
    /// Largest single transfer in blocks (the paper cites 128 KB for
    /// the 905P, §4.5).
    pub max_transfer_blocks: u32,
    /// PMR region size in bytes (0 disables PMR).
    pub pmr_bytes: usize,
    /// Multiplicative service-time jitter amplitude (models internal
    /// reordering across queues).
    pub jitter: f64,
}

impl SsdProfile {
    /// Samsung PM981 (flash, volatile write cache, no PLP).
    ///
    /// ~600 MB/s sustained random write, ~12 µs cached write latency,
    /// multi-millisecond worst-case FLUSH when the cache is full.
    pub fn pm981() -> Self {
        SsdProfile {
            name: "Samsung PM981 (flash)",
            plp: false,
            capacity_blocks: 256 * 1024 * 1024 / 4, // 256 GiB
            write_us: 12.0,
            write_us_per_extra_block: 1.4,
            media_bw: 600.0e6,
            cache_bytes: 48 * 1024 * 1024,
            drain_lag_us: 2_000.0,
            flush_base_us: 900.0,
            queue_processors: 8,
            cmd_overhead_us: 1.6,
            max_transfer_blocks: 128,
            pmr_bytes: 2 * 1024 * 1024,
            jitter: 0.12,
        }
    }

    /// Intel Optane 905P (3D XPoint, PLP).
    ///
    /// ~10 µs write latency, ~2.2 GB/s sustained write, FLUSH is a
    /// no-op beyond command handling.
    pub fn optane905p() -> Self {
        SsdProfile {
            name: "Intel 905P (Optane)",
            plp: true,
            capacity_blocks: 480 * 1024 * 1024 / 4, // 480 GiB
            write_us: 10.0,
            write_us_per_extra_block: 1.2,
            media_bw: 2.2e9,
            cache_bytes: 16 * 1024 * 1024,
            drain_lag_us: 0.0,
            flush_base_us: 5.0,
            queue_processors: 7,
            cmd_overhead_us: 1.55,
            max_transfer_blocks: 32,
            pmr_bytes: 2 * 1024 * 1024,
            jitter: 0.08,
        }
    }

    /// Intel Optane P4800X (3D XPoint, PLP, datacenter).
    pub fn p4800x() -> Self {
        SsdProfile {
            name: "Intel P4800X (Optane)",
            plp: true,
            capacity_blocks: 375 * 1024 * 1024 / 4,
            write_us: 10.0,
            write_us_per_extra_block: 1.1,
            media_bw: 2.0e9,
            cache_bytes: 16 * 1024 * 1024,
            drain_lag_us: 0.0,
            flush_base_us: 5.0,
            queue_processors: 7,
            cmd_overhead_us: 1.5,
            max_transfer_blocks: 32,
            pmr_bytes: 2 * 1024 * 1024,
            jitter: 0.08,
        }
    }

    /// Theoretical peak 4 KB write IOPS from the command-processing cap.
    #[cfg(test)]
    pub fn iops_cap(&self) -> f64 {
        self.queue_processors as f64 / (self.cmd_overhead_us * 1e-6)
    }

    /// Sustained 4 KB write IOPS from the media bandwidth.
    #[cfg(test)]
    pub fn bandwidth_iops(&self) -> f64 {
        self.media_bw / 4096.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm981_sustained_iops_matches_figure2a_scale() {
        // Fig. 2(a)'s orderless plateau is ~150 KIOPS of 4 KB blocks.
        let iops = SsdProfile::pm981().bandwidth_iops();
        assert!((120_000.0..180_000.0).contains(&iops), "got {iops}");
    }

    #[test]
    fn optane_iops_cap_matches_figure2b_scale() {
        // Fig. 2(b)'s orderless plateau is ~220 KIOPS; the command cap
        // (not bandwidth) should not be the binding constraint there.
        let p = SsdProfile::optane905p();
        assert!(p.iops_cap() > 220_000.0);
        assert!(p.bandwidth_iops() > 400_000.0);
    }

    #[test]
    fn profiles_have_paper_pmr() {
        for p in [
            SsdProfile::pm981(),
            SsdProfile::optane905p(),
            SsdProfile::p4800x(),
        ] {
            assert_eq!(p.pmr_bytes, 2 * 1024 * 1024, "{}: 2 MB PMR (§6.1)", p.name);
        }
    }

    #[test]
    fn plp_flags() {
        assert!(!SsdProfile::pm981().plp);
        assert!(SsdProfile::optane905p().plp);
        assert!(SsdProfile::p4800x().plp);
    }
}
