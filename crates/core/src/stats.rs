//! Statistics every DRAM cache organization reports.

use bimodal_dram::Cycle;

/// Where access latency was spent, summed over all accesses.
///
/// Used to regenerate the latency-breakdown comparison of Figure 3 and the
/// average-latency comparison of Figure 8(c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Cycles in SRAM structures (way locator, tag cache, tag store).
    pub sram: u64,
    /// Cycles reading/comparing tags held in DRAM.
    pub dram_tag: u64,
    /// Cycles accessing data in the stacked DRAM.
    pub dram_data: u64,
    /// Cycles waiting on off-chip memory.
    pub offchip: u64,
}

impl LatencyBreakdown {
    /// Total accounted cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sram + self.dram_tag + self.dram_data + self.offchip
    }

    /// Adds another breakdown into this one.
    pub fn add(&mut self, other: &LatencyBreakdown) {
        self.sram += other.sram;
        self.dram_tag += other.dram_tag;
        self.dram_data += other.dram_data;
        self.offchip += other.offchip;
    }
}

/// Aggregate statistics for a DRAM cache organization.
///
/// All counters are cumulative since construction or the last
/// [`SchemeStats::reset`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemeStats {
    /// Total requests serviced (reads + writes + prefetches).
    pub accesses: u64,
    /// Requests that hit in the DRAM cache.
    pub hits: u64,
    /// Requests that missed.
    pub misses: u64,
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Prefetch requests serviced.
    pub prefetches: u64,
    /// Prefetch requests that bypassed the cache on a miss.
    pub prefetch_bypasses: u64,

    /// Requests served by (or filled into) small blocks.
    pub small_block_accesses: u64,
    /// Hits in big blocks.
    pub big_hits: u64,
    /// Hits in small blocks.
    pub small_hits: u64,

    /// Way locator (or tag-cache) lookups that hit.
    pub locator_hits: u64,
    /// Way locator (or tag-cache) lookups that missed.
    pub locator_misses: u64,

    /// Fills performed at big-block granularity.
    pub fills_big: u64,
    /// Fills performed at small-block granularity.
    pub fills_small: u64,
    /// Blocks evicted.
    pub evictions: u64,
    /// Dirty 64 B sub-blocks written back off-chip.
    pub writebacks: u64,

    /// Bytes fetched from off-chip memory.
    pub offchip_fetched_bytes: u64,
    /// Bytes written back to off-chip memory.
    pub offchip_writeback_bytes: u64,
    /// Fetched bytes that were evicted (or left over) without ever being
    /// referenced: the paper's *wasted* off-chip bandwidth.
    pub offchip_wasted_bytes: u64,

    /// Speculative off-chip fetches launched by the optional miss
    /// predictor.
    pub spec_fetches: u64,
    /// Speculative fetches that turned out to be hits (wasted).
    pub spec_wasted: u64,

    /// DRAM metadata (tag) accesses issued.
    pub md_accesses: u64,
    /// Metadata accesses that hit an open row.
    pub md_row_hits: u64,
    /// DRAM data accesses issued to the stacked cache.
    pub data_accesses: u64,
    /// Data accesses that hit an open row.
    pub data_row_hits: u64,

    /// Sum of access latencies, for averages.
    pub total_latency: Cycle,
    /// Where the latency went.
    pub breakdown: LatencyBreakdown,

    /// Big-block evictions whose spatial utilization met the predictor
    /// threshold (predictor precision proxy).
    pub big_evictions_well_used: u64,
    /// Big-block evictions below the threshold.
    pub big_evictions_under_used: u64,

    /// Way-locator entries repaired after a locator-vs-metadata mismatch
    /// (hint self-healing: the access fell back to a full tag probe).
    pub locator_heals: u64,
    /// Metadata-entry bit flips corrected by the SECDED ECC model.
    pub ecc_corrected: u64,
    /// Metadata-entry multi-bit flips detected but not correctable; the
    /// affected way was invalidated.
    pub ecc_detected_uncorrected: u64,
}

impl SchemeStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were recorded.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.accesses)
    }

    /// Miss rate in `[0, 1]`.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.accesses)
    }

    /// Way locator (tag cache) hit rate.
    #[must_use]
    pub fn locator_hit_rate(&self) -> f64 {
        ratio(self.locator_hits, self.locator_hits + self.locator_misses)
    }

    /// Average access latency in cycles.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Fraction of accesses served by small blocks (Figure 10).
    #[must_use]
    pub fn small_block_fraction(&self) -> f64 {
        ratio(self.small_block_accesses, self.accesses)
    }

    /// Total off-chip traffic in bytes (fetch + writeback).
    #[must_use]
    pub fn offchip_bytes(&self) -> u64 {
        self.offchip_fetched_bytes + self.offchip_writeback_bytes
    }

    /// Fraction of fetched bytes that were never referenced (Figure 9a).
    #[must_use]
    pub fn wasted_fetch_fraction(&self) -> f64 {
        ratio(self.offchip_wasted_bytes, self.offchip_fetched_bytes)
    }

    /// Row-buffer hit rate of metadata (tag) accesses (Figure 9b).
    #[must_use]
    pub fn metadata_rbh(&self) -> f64 {
        ratio(self.md_row_hits, self.md_accesses)
    }

    /// Row-buffer hit rate of data accesses to the stacked cache.
    #[must_use]
    pub fn data_rbh(&self) -> f64 {
        ratio(self.data_row_hits, self.data_accesses)
    }

    /// Clears every counter.
    pub fn reset(&mut self) {
        *self = SchemeStats::default();
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

bimodal_ckpt::snapshot_fields! { LatencyBreakdown { sram, dram_tag, dram_data, offchip } }

bimodal_ckpt::snapshot_fields! {
    SchemeStats {
        accesses, hits, misses, reads, writes, prefetches, prefetch_bypasses,
        small_block_accesses, big_hits, small_hits, locator_hits, locator_misses,
        fills_big, fills_small, evictions, writebacks, offchip_fetched_bytes,
        offchip_writeback_bytes, offchip_wasted_bytes, spec_fetches, spec_wasted,
        md_accesses, md_row_hits, data_accesses, data_row_hits, total_latency,
        big_evictions_well_used, big_evictions_under_used, locator_heals,
        ecc_corrected, ecc_detected_uncorrected, breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_zero_on_empty_stats() {
        let s = SchemeStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.locator_hit_rate(), 0.0);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.wasted_fetch_fraction(), 0.0);
    }

    #[test]
    fn rates_compute_from_counters() {
        let s = SchemeStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            locator_hits: 9,
            locator_misses: 1,
            total_latency: 500,
            small_block_accesses: 4,
            offchip_fetched_bytes: 1000,
            offchip_wasted_bytes: 250,
            ..SchemeStats::default()
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert!((s.locator_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.avg_latency() - 50.0).abs() < 1e-12);
        assert!((s.small_block_fraction() - 0.4).abs() < 1e-12);
        assert!((s.wasted_fetch_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total_and_add() {
        let mut a = LatencyBreakdown {
            sram: 1,
            dram_tag: 2,
            dram_data: 3,
            offchip: 4,
        };
        let b = LatencyBreakdown {
            sram: 10,
            dram_tag: 20,
            dram_data: 30,
            offchip: 40,
        };
        a.add(&b);
        assert_eq!(a.total(), 110);
    }

    #[test]
    fn reset_clears_counters() {
        let mut s = SchemeStats {
            accesses: 5,
            ..SchemeStats::default()
        };
        s.reset();
        assert_eq!(s, SchemeStats::default());
    }
}
