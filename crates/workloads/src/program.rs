//! The parameterized synthetic program generator.

use bimodal_ckpt::{CkptError, Snapshot, SnapshotReader, SnapshotWriter};
use bimodal_prng::SmallRng;

use crate::access::Access;

/// Region size used for spatial-utilization control: the paper studies
/// utilization of 64 B sub-blocks within 512 B blocks (Figure 2).
const REGION_BYTES: u64 = 512;
/// Sub-blocks per region.
const SUBS: usize = 8;

/// Distribution over how many of a region's eight 64 B sub-blocks the
/// program touches.
///
/// Index `i` of the weight array is the probability weight of touching
/// `i + 1` sub-blocks.
/// # Example
///
/// ```
/// use bimodal_workloads::SpatialProfile;
///
/// assert!(SpatialProfile::dense().mean_utilization() > 7.0);
/// assert!(SpatialProfile::sparse().mean_utilization() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialProfile {
    weights: [f64; SUBS],
}

impl SpatialProfile {
    /// Builds a profile from weights for 1..=8 touched sub-blocks.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    #[must_use]
    pub fn new(weights: [f64; SUBS]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "some weight must be positive"
        );
        SpatialProfile { weights }
    }

    /// Dense spatial locality: ~90% of regions fully used (like Q2/Q4/Q5
    /// in Figure 2).
    #[must_use]
    pub fn dense() -> Self {
        SpatialProfile::new([0.01, 0.01, 0.01, 0.02, 0.02, 0.04, 0.09, 0.80])
    }

    /// Sparse: most regions see only one or two lines (like Q7/Q8/Q23).
    #[must_use]
    pub fn sparse() -> Self {
        SpatialProfile::new([0.52, 0.20, 0.05, 0.03, 0.02, 0.03, 0.05, 0.10])
    }

    /// Moderate: U-shaped like the paper's Figure 2, with a modest middle
    /// band (the paper reports ~18% of blocks in the 2..7 range on
    /// average — real utilization is strongly bimodal).
    #[must_use]
    pub fn moderate() -> Self {
        SpatialProfile::new([0.25, 0.08, 0.05, 0.05, 0.06, 0.06, 0.10, 0.35])
    }

    /// Bi-modal: a mix of fully-used and single-line regions — the case
    /// the Bi-Modal cache is built for.
    #[must_use]
    pub fn bimodal() -> Self {
        SpatialProfile::new([0.40, 0.05, 0.02, 0.01, 0.01, 0.02, 0.04, 0.45])
    }

    /// Maps a uniform fraction in `[0, 1)` to a sub-block count (1..=8).
    fn sample_fraction(&self, fraction: f64) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut x = fraction * total;
        for (i, &w) in self.weights.iter().enumerate() {
            if x < w {
                return i + 1;
            }
            x -= w;
        }
        SUBS
    }

    /// Expected number of touched sub-blocks.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i + 1) as f64 * w / total)
            .sum()
    }
}

/// Temporal-reuse behaviour.
///
/// The hot set is a *fraction of the footprint* rather than an absolute
/// size, so scaling a workload down (together with the cache) preserves
/// the capacity pressure that drives hit-rate results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalProfile {
    /// Probability that the next region visited is a recently used one.
    pub reuse_prob: f64,
    /// Hot-set size as a fraction of the footprint's regions.
    pub hot_fraction: f64,
    /// Absolute cap on the hot set, in regions. Hot working sets are
    /// megabyte-scale structures; footprints can be gigabytes. Without the
    /// cap, large-footprint programs would spread their reuse so thin that
    /// no cache could capture it.
    pub hot_cap_regions: u64,
}

impl TemporalProfile {
    /// Strong reuse: a large hot working set revisited often
    /// (cache- and way-locator-friendly).
    #[must_use]
    pub fn strong() -> Self {
        TemporalProfile {
            reuse_prob: 0.85,
            hot_fraction: 1.0 / 3.0,
            hot_cap_regions: 8192,
        }
    }

    /// Moderate reuse.
    #[must_use]
    pub fn moderate() -> Self {
        TemporalProfile {
            reuse_prob: 0.70,
            hot_fraction: 1.0 / 4.0,
            hot_cap_regions: 4096,
        }
    }

    /// Weak reuse: streaming-like, smaller hot set.
    #[must_use]
    pub fn weak() -> Self {
        TemporalProfile {
            reuse_prob: 0.50,
            hot_fraction: 1.0 / 6.0,
            hot_cap_regions: 2048,
        }
    }

    /// Hot-set size in regions for a footprint of `n_regions`.
    #[must_use]
    pub fn hot_regions(&self, n_regions: u64) -> usize {
        let frac = (n_regions as f64 * self.hot_fraction) as u64;
        usize::try_from(frac.min(self.hot_cap_regions).clamp(64, n_regions))
            .expect("hot set fits usize")
    }
}

/// Full description of one synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (SPEC-flavoured).
    pub name: String,
    /// Distinct bytes the program walks.
    pub footprint_bytes: u64,
    /// Spatial utilization distribution.
    pub spatial: SpatialProfile,
    /// Temporal reuse behaviour.
    pub temporal: TemporalProfile,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Mean compute cycles between LLSC misses (memory intensity: lower is
    /// more intense).
    pub mean_gap: u64,
}

impl WorkloadSpec {
    /// Builds a spec.
    ///
    /// # Panics
    ///
    /// Panics if the footprint holds no region or fractions are out of
    /// range.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        footprint_bytes: u64,
        spatial: SpatialProfile,
        temporal: TemporalProfile,
        write_fraction: f64,
        mean_gap: u64,
    ) -> Self {
        assert!(
            footprint_bytes >= REGION_BYTES,
            "footprint must hold a region"
        );
        assert!(
            (0.0..=1.0).contains(&write_fraction),
            "write fraction in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&temporal.reuse_prob),
            "reuse prob in [0,1]"
        );
        WorkloadSpec {
            name: name.into(),
            footprint_bytes,
            spatial,
            temporal,
            write_fraction,
            mean_gap: mean_gap.max(1),
        }
    }

    /// Is this a high-memory-intensity program (Table V's `*` marker)?
    #[must_use]
    pub fn is_memory_intensive(&self) -> bool {
        self.mean_gap <= 250
    }

    /// Scales the footprint (used to match scaled-down cache sizes).
    #[must_use]
    pub fn with_footprint_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let scaled = (self.footprint_bytes as f64 * scale) as u64;
        self.footprint_bytes = scaled.max(REGION_BYTES).next_power_of_two();
        self
    }

    /// Creates the endless access stream of this program.
    ///
    /// `core` selects a disjoint address-space slice (multiprogrammed
    /// workloads do not share data), and together with `seed` makes the
    /// stream deterministic.
    #[must_use]
    pub fn trace(&self, seed: u64, core: u32) -> ProgramTrace {
        ProgramTrace::new(self.clone(), seed, core)
    }
}

/// The endless, deterministic access stream of one program.
#[derive(Debug, Clone)]
pub struct ProgramTrace {
    spec: WorkloadSpec,
    rng: SmallRng,
    base: u64,
    n_regions: u64,
    /// Scan pointer (region ordinal).
    cursor: u64,
    /// Small window of the most recent regions (immediate reuse).
    recent: std::collections::VecDeque<u64>,
    /// Monotonic visit counter (drives slowly-rotating line choices).
    visit_serial: u64,
    /// Lines queued from the current region visit.
    pending: Vec<u64>,
    /// Consumption cursor into `pending` (popping from the front of a Vec
    /// is O(n); the cursor makes consumption O(1) and lets `refill` reuse
    /// the allocation).
    pending_pos: usize,
}

impl ProgramTrace {
    fn new(spec: WorkloadSpec, seed: u64, core: u32) -> Self {
        let rng = SmallRng::seed_from_u64(
            seed ^ (u64::from(core) << 32) ^ spec.name.bytes().map(u64::from).sum::<u64>(),
        );
        let n_regions = spec.footprint_bytes / REGION_BYTES;
        ProgramTrace {
            base: u64::from(core) << 36,
            n_regions,
            cursor: 0,
            recent: std::collections::VecDeque::new(),
            visit_serial: 0,
            pending: Vec::new(),
            pending_pos: 0,
            spec,
            rng,
        }
    }

    /// The spec this trace was generated from.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Picks the next region to visit and queues its line addresses.
    ///
    /// Temporal reuse has two components, as in real programs: immediate
    /// reuse of the last few regions (line-level recency every cache
    /// exploits) and revisits to a *stable* hot set — a strided subset of
    /// the footprint representing the structures the program loops over.
    /// Whether that hot set fits in the cache is a property of the
    /// workload, which is what makes capacity (and block granularity)
    /// matter.
    fn refill(&mut self) {
        self.visit_serial += 1;
        let hot = self.spec.temporal.hot_regions(self.n_regions) as u64;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let reuse = self.spec.temporal.reuse_prob;
        let region = if u < reuse * 0.4 && !self.recent.is_empty() {
            // Immediate reuse of a very recent region.
            self.recent[self.rng.gen_range(0..self.recent.len())]
        } else if u < reuse {
            // Revisit the static hot set: a stable pseudo-random subset
            // of the footprint. The odd-multiplier permutation spreads hot
            // regions uniformly across cache sets (a fixed stride would
            // alias with power-of-two set indexing).
            let k = self.rng.gen_range(0..hot);
            k.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (self.n_regions - 1)
        } else {
            // Advance the scan, with occasional random jumps so the
            // footprint is walked non-uniformly.
            if self.rng.gen_bool(0.05) {
                self.cursor = self.rng.gen_range(0..self.n_regions);
            } else {
                self.cursor = (self.cursor + 1) % self.n_regions;
            }
            self.cursor
        };
        self.recent.push_back(region);
        if self.recent.len() > 32 {
            self.recent.pop_front();
        }

        // A region's utilization is a stable property of its data (real
        // structures have fixed layouts), and it is spatially correlated:
        // a sparse structure spans many consecutive regions. Utilization
        // is therefore drawn per 32-region (16 KB) chunk, while the choice
        // of sub-blocks rotates per region, so revisits touch the same
        // lines and neighbours behave alike.
        let chunk = region >> 5;
        let hc = chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fraction = (hc >> 11) as f64 / (1u64 << 53) as f64;
        let count = self.spec.spatial.sample_fraction(fraction);
        let rot = (region.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32) as usize % SUBS;
        let region_base = self.base + region * REGION_BYTES;
        if count >= 4 {
            // Spatially dense data is walked sequentially: the whole
            // footprint of the region streams by in one burst.
            for k in 0..count {
                let sub = (rot + k) % SUBS;
                self.pending.push(region_base + (sub as u64) * 64);
            }
        } else {
            // Sparse data (pointer chasing) touches one line per visit.
            // Most visits land on the region's primary line (a node's hot
            // field); the secondary lines are reached on occasional hops,
            // so the full footprint accumulates across revisits.
            let k = if count == 1 || self.rng.gen_bool(0.7) {
                0
            } else {
                self.rng.gen_range(1..count)
            };
            let sub = (rot + k) % SUBS;
            self.pending.push(region_base + (sub as u64) * 64);
        }
    }

    /// Serializes the trace's mutable cursor state (generator stream,
    /// scan position, recency window, queued lines) for a checkpoint. The
    /// spec itself is not stored — resume rebuilds the trace from the same
    /// mix and seed — but its identity is, as a guard against resuming
    /// with the wrong workload.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.str(&self.spec.name);
        w.u64(self.spec.footprint_bytes);
        w.u64(self.base);
        self.rng.state().save(w);
        w.u64(self.cursor);
        self.recent.save(w);
        w.u64(self.visit_serial);
        // Only the unconsumed tail matters; writing it (rather than the
        // raw buffer plus the cursor) keeps the wire shape a plain vector.
        self.pending[self.pending_pos..].to_vec().save(w);
    }

    /// Restores cursor state saved by [`ProgramTrace::save_state`] into a
    /// freshly built trace of the same spec/seed/core.
    ///
    /// # Errors
    ///
    /// [`CkptError::Mismatch`] when the snapshot belongs to a different
    /// program or core; decode errors on truncated/corrupt payloads.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CkptError> {
        let name = r.str()?;
        let footprint = r.u64()?;
        let base = r.u64()?;
        if name != self.spec.name || footprint != self.spec.footprint_bytes || base != self.base {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "trace snapshot is for '{name}' ({footprint} B, base {base:#x}); \
                     this run uses '{}' ({} B, base {:#x})",
                    self.spec.name, self.spec.footprint_bytes, self.base
                ),
            });
        }
        let s = <[u64; 4]>::load(r)?;
        if s == [0; 4] {
            return Err(r.corrupt("all-zero rng state"));
        }
        let cursor = r.u64()?;
        if cursor >= self.n_regions {
            return Err(r.corrupt(format!(
                "cursor {cursor} out of range ({} regions)",
                self.n_regions
            )));
        }
        self.rng = SmallRng::from_state(s);
        self.cursor = cursor;
        self.recent = Snapshot::load(r)?;
        self.visit_serial = r.u64()?;
        self.pending = Snapshot::load(r)?;
        self.pending_pos = 0;
        Ok(())
    }

    fn sample_gap(&mut self) -> u64 {
        // A skewed (geometric-ish) gap around the mean.
        let mean = self.spec.mean_gap as f64;
        let u: f64 = self.rng.gen_range(0.0_f64..1.0).max(1e-9);
        (-mean * u.ln()).min(mean * 8.0) as u64
    }
}

impl Iterator for ProgramTrace {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.pending_pos == self.pending.len() {
            self.pending.clear();
            self.pending_pos = 0;
            self.refill();
        }
        let addr = self.pending[self.pending_pos];
        self.pending_pos += 1;
        let is_write = self.rng.gen_bool(self.spec.write_fraction);
        let gap = self.sample_gap();
        Some(Access {
            addr,
            is_write,
            gap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(
            "test",
            1 << 20,
            SpatialProfile::moderate(),
            TemporalProfile::moderate(),
            0.3,
            100,
        )
    }

    #[test]
    fn trace_state_round_trips_through_snapshot() {
        let mut t = spec().trace(7, 0);
        for _ in 0..500 {
            t.next();
        }
        let mut w = SnapshotWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = spec().trace(7, 0);
        let mut r = SnapshotReader::new(&bytes, "traces");
        fresh.load_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        let a: Vec<_> = t.take(2_000).collect();
        let b: Vec<_> = fresh.take(2_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_state_rejects_wrong_program() {
        let mut t = spec().trace(7, 0);
        for _ in 0..10 {
            t.next();
        }
        let mut w = SnapshotWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        // Different core → different base address slice.
        let mut other = spec().trace(7, 1);
        let mut r = SnapshotReader::new(&bytes, "traces");
        assert!(matches!(
            other.load_state(&mut r),
            Err(CkptError::Mismatch { .. })
        ));
    }

    #[test]
    fn snapshot_mid_block_resumes_identically() {
        // Save while the pending cursor sits mid-buffer: the snapshot must
        // carry only the unconsumed tail and resume access-for-access.
        let mut t = spec().trace(9, 0);
        t.by_ref().take(777).for_each(drop);
        for _ in 0..10_000 {
            if t.pending_pos < t.pending.len() {
                break;
            }
            t.next();
        }
        assert!(t.pending_pos < t.pending.len(), "no multi-line visit found");
        let mut w = SnapshotWriter::new();
        t.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = spec().trace(9, 0);
        let mut r = SnapshotReader::new(&bytes, "traces");
        fresh.load_state(&mut r).unwrap();
        let a: Vec<_> = t.take(500).collect();
        let b: Vec<_> = fresh.take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn traces_are_deterministic() {
        let a: Vec<_> = spec().trace(7, 0).take(1000).collect();
        let b: Vec<_> = spec().trace(7, 0).take(1000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = spec().trace(7, 0).take(100).collect();
        let b: Vec<_> = spec().trace(8, 0).take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn cores_use_disjoint_address_slices() {
        let a: Vec<_> = spec().trace(7, 0).take(100).collect();
        let b: Vec<_> = spec().trace(7, 1).take(100).collect();
        assert!(a.iter().all(|x| x.addr < 1 << 36));
        assert!(b.iter().all(|x| x.addr >= 1 << 36 && x.addr < 2 << 36));
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let s = spec();
        for a in s.trace(3, 0).take(10_000) {
            assert!(a.addr < s.footprint_bytes);
            assert_eq!(a.addr % 64, 0, "accesses are line aligned");
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let writes = spec()
            .trace(1, 0)
            .take(20_000)
            .filter(|a| a.is_write)
            .count();
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn dense_profile_touches_more_lines_per_region() {
        let count_distinct_per_region = |p: SpatialProfile| {
            let s = WorkloadSpec::new("x", 1 << 22, p, TemporalProfile::weak(), 0.0, 10);
            let mut per_region: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
                std::collections::HashMap::new();
            for a in s.trace(5, 0).take(50_000) {
                per_region
                    .entry(a.addr / 512)
                    .or_default()
                    .insert(a.addr / 64);
            }
            let total: usize = per_region
                .values()
                .map(std::collections::HashSet::len)
                .sum();
            total as f64 / per_region.len() as f64
        };
        let dense = count_distinct_per_region(SpatialProfile::dense());
        let sparse = count_distinct_per_region(SpatialProfile::sparse());
        assert!(
            dense > 5.0,
            "dense regions should use most lines, got {dense}"
        );
        assert!(
            sparse < 3.0,
            "sparse regions should use few lines, got {sparse}"
        );
    }

    #[test]
    fn mean_utilization_orders_profiles() {
        assert!(SpatialProfile::dense().mean_utilization() > 7.0);
        assert!(SpatialProfile::sparse().mean_utilization() < 3.0);
        let bm = SpatialProfile::bimodal().mean_utilization();
        assert!(bm > 3.0 && bm < 6.0);
    }

    #[test]
    fn gaps_average_near_mean() {
        let total: u64 = spec().trace(2, 0).take(50_000).map(|a| a.gap).sum();
        let avg = total as f64 / 50_000.0;
        assert!((avg / 100.0 - 1.0).abs() < 0.3, "got {avg}");
    }

    #[test]
    fn footprint_scale_rounds_to_power_of_two() {
        let s = spec().with_footprint_scale(0.4);
        assert!(s.footprint_bytes.is_power_of_two());
    }

    #[test]
    fn intensity_flag() {
        let mut s = spec();
        s.mean_gap = 100;
        assert!(s.is_memory_intensive());
        s.mean_gap = 1000;
        assert!(!s.is_memory_intensive());
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn bad_write_fraction_panics() {
        let _ = WorkloadSpec::new(
            "bad",
            1 << 20,
            SpatialProfile::dense(),
            TemporalProfile::weak(),
            1.5,
            100,
        );
    }
}
