//! The Bi-Modal DRAM cache controller (Section III-D).
//!
//! Ties together the bi-modal sets, the SRAM way locator, the block size
//! predictor and the DRAM layouts into the three access flows of the
//! paper:
//!
//! 1. **Way locator hit** — one DRAM data access, no metadata read at all.
//! 2. **Way locator miss, cache hit** — tag read on the metadata bank
//!    issued *in parallel* with opening the data row on another channel;
//!    after the 18-way compare, a column access on the (already open) data
//!    row.
//! 3. **Cache miss** — the block size predictor picks big or small, the
//!    fill is fetched off-chip at that granularity, and the Table II rules
//!    place it (aligning the set state toward the global target).

use bimodal_prng::SmallRng;

use bimodal_dram::{
    Cycle, DeferredOp, DramConfig, MemorySystem, Op, Request, RowEvent, TrafficClass,
};
use bimodal_obs::anatomy::{self, Component};
use bimodal_obs::span::{self, SpanId};

use crate::adaptive::GlobalMixController;
use crate::geometry::{BlockSize, CacheGeometry};
use crate::layout::DataLayout;
use crate::metadata::{MetadataLayout, MetadataPlacement};
use crate::miss_predictor::MissPredictor;
use crate::predictor::{BlockSizePredictor, PredictorConfig, UtilizationTracker};
use crate::resilience::{random_tag_xor, ContentsDigest, EccLedger, FaultTarget, MetadataFault};
use crate::scheme::{AccessKind, AccessOutcome, CacheAccess, DramCacheScheme};
use crate::set::{SetArena, Victim, WayRef};
use crate::sram::SramModel;
use crate::stats::SchemeStats;
use crate::way_locator::{WayLocator, WayLocatorConfig};

/// Victim selection policy on replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// The paper's policy: randomly replace a way that is *not* currently
    /// pointed at by the way locator (i.e. not one of the top-2 MRU ways).
    RandomNotRecent,
    /// Pure random replacement (ablation).
    Random,
}

/// Full configuration of a [`BiModalCache`].
#[derive(Debug, Clone)]
pub struct BiModalConfig {
    /// Cache geometry (capacity, set size, block sizes).
    pub geometry: CacheGeometry,
    /// Physical address width, for way-locator sizing.
    pub addr_bits: u32,
    /// Way locator configuration; `None` disables it (the *Bi-Modal-Only*
    /// ablation of Figure 8a).
    pub way_locator: Option<WayLocatorConfig>,
    /// Block size predictor configuration.
    pub predictor: PredictorConfig,
    /// When false, every fill is a big block (the *Way-Locator-Only* /
    /// fixed-512 B ablation).
    pub bimodal: bool,
    /// Where metadata lives (dedicated bank vs co-located, Figure 9b).
    pub metadata_placement: MetadataPlacement,
    /// Victim selection policy.
    pub replacement: ReplacementPolicy,
    /// Weight `W` of the global mix controller (paper: 0.75).
    pub adapt_weight: f64,
    /// Accesses per adaptation epoch (paper: 1 M).
    pub adapt_epoch: u64,
    /// Cycles to compare up-to-18 tags after the metadata burst arrives.
    pub tag_compare_cycles: Cycle,
    /// When true, prefetch requests that miss bypass the cache
    /// (PREF_BYPASS of Table VI).
    pub prefetch_bypass: bool,
    /// Deploy the optional hit/miss predictor (footnote 11): predicted
    /// misses start their off-chip fetch in parallel with the tag check.
    pub miss_predictor: bool,
    /// Adjust the utilization threshold `T` at run time (footnote 9):
    /// sustained under-use of big blocks raises `T`, frequent small-to-big
    /// promotions lower it.
    pub adaptive_threshold: bool,
    /// The stacked-DRAM module this cache will be laid out on. Must match
    /// the `MemorySystem` used at access time.
    pub stacked_dram: DramConfig,
    /// Protect metadata entries with SECDED ECC check bytes. Injected
    /// metadata faults are then detected at the next tag probe (corrected
    /// if single-bit) instead of silently corrupting tags, at the cost of
    /// wider metadata entries and tag reads.
    pub metadata_ecc: bool,
    /// RNG seed for the replacement policy.
    pub seed: u64,
}

impl BiModalConfig {
    /// Paper-default configuration for a cache of `mb` megabytes: 512 B /
    /// 64 B blocks, 2 KB sets, K=14 way locator, P=16 predictor with T=5,
    /// dedicated metadata bank, random-not-recent replacement.
    ///
    /// The address width scales with capacity as in Table III (4 GB of
    /// memory per 128 MB of cache).
    ///
    /// # Panics
    ///
    /// Panics if `mb` is not a power of two.
    #[must_use]
    pub fn for_cache_mb(mb: u64) -> Self {
        let geometry = CacheGeometry::paper_default(mb << 20);
        // log2(capacity) + 5: 4 GB of memory per 128 MB of cache
        // (Table III's ratio), so 128 MB -> 32-bit addresses.
        let addr_bits = (mb << 20).trailing_zeros() + 5;
        BiModalConfig::for_geometry(geometry, addr_bits)
    }

    /// Paper-default knobs for an arbitrary geometry.
    #[must_use]
    pub fn for_geometry(geometry: CacheGeometry, addr_bits: u32) -> Self {
        geometry.validate().expect("geometry must be valid");
        let offset_bits = geometry.offset_bits();
        let subs = geometry.sub_blocks();
        let predictor = PredictorConfig {
            offset_bits,
            // Scale the paper's 5-of-8 threshold to other ratios.
            threshold: ((5 * subs).div_ceil(8)).max(1),
            ..PredictorConfig::paper_default()
        };
        let stacked_dram = if geometry.set_bytes <= 2048 {
            DramConfig::stacked(2, 8)
        } else {
            let mut d = DramConfig::stacked(2, 8);
            d.row_bytes = geometry.set_bytes;
            d
        };
        BiModalConfig {
            way_locator: Some(WayLocatorConfig {
                index_bits: 14,
                addr_bits,
                offset_bits,
            }),
            predictor,
            bimodal: true,
            metadata_placement: MetadataPlacement::DedicatedBank,
            replacement: ReplacementPolicy::RandomNotRecent,
            adapt_weight: 0.75,
            adapt_epoch: 1_000_000,
            tag_compare_cycles: 2,
            prefetch_bypass: false,
            miss_predictor: false,
            adaptive_threshold: false,
            stacked_dram,
            metadata_ecc: false,
            geometry,
            addr_bits,
            seed: 0x00B1_30DA_1CAC_4E01,
        }
    }

    /// The *Bi-Modal-Only* ablation: bi-modal fills, no way locator.
    #[must_use]
    pub fn bimodal_only(mut self) -> Self {
        self.way_locator = None;
        self
    }

    /// The *Way-Locator-Only* ablation: fixed 512 B blocks with the way
    /// locator.
    #[must_use]
    pub fn way_locator_only(mut self) -> Self {
        self.bimodal = false;
        self
    }

    /// A fixed-512 B organization with no way locator (the baseline of the
    /// wasted-bandwidth comparison, Figure 9a).
    #[must_use]
    pub fn fixed_big_blocks(mut self) -> Self {
        self.bimodal = false;
        self.way_locator = None;
        self
    }

    /// Switches metadata to the co-located layout (Figure 9b ablation).
    #[must_use]
    pub fn with_colocated_metadata(mut self) -> Self {
        self.metadata_placement = MetadataPlacement::CoLocated;
        self
    }

    /// Overrides the way-locator index width `K`.
    #[must_use]
    pub fn with_way_locator_bits(mut self, k: u32) -> Self {
        self.way_locator = Some(WayLocatorConfig {
            index_bits: k,
            addr_bits: self.addr_bits,
            offset_bits: self.geometry.offset_bits(),
        });
        self
    }

    /// Overrides the replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Overrides the predictor threshold `T`.
    #[must_use]
    pub fn with_threshold(mut self, t: u32) -> Self {
        self.predictor.threshold = t;
        self
    }

    /// Overrides the adaptation weight `W`.
    #[must_use]
    pub fn with_weight(mut self, w: f64) -> Self {
        self.adapt_weight = w;
        self
    }

    /// Overrides the adaptation epoch length (useful for short runs).
    #[must_use]
    pub fn with_epoch(mut self, accesses: u64) -> Self {
        self.adapt_epoch = accesses;
        self
    }

    /// Overrides the tracker's set-sampling interval (scaled-down runs
    /// sample more densely so the predictor trains within the shorter
    /// window; the paper's full-scale runs use 1-in-32).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or does not divide the predictor's
    /// group size.
    #[must_use]
    pub fn with_sample_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        assert!(
            self.predictor.group_regions.is_multiple_of(interval),
            "interval must divide the group size"
        );
        self.predictor.sample_interval = interval;
        self
    }

    /// Enables prefetch-miss bypass (PREF_BYPASS).
    #[must_use]
    pub fn with_prefetch_bypass(mut self, bypass: bool) -> Self {
        self.prefetch_bypass = bypass;
        self
    }

    /// Deploys the optional hit/miss predictor (the footnote 11
    /// extension): predicted misses overlap the off-chip fetch with the
    /// DRAM tag check, at the cost of wasted fetches on mispredictions.
    #[must_use]
    pub fn with_miss_predictor(mut self, enable: bool) -> Self {
        self.miss_predictor = enable;
        self
    }

    /// Enables run-time adjustment of the utilization threshold `T` (the
    /// footnote 9 extension).
    #[must_use]
    pub fn with_adaptive_threshold(mut self, enable: bool) -> Self {
        self.adaptive_threshold = enable;
        self
    }

    /// Uses the given stacked-DRAM configuration for layout decisions.
    #[must_use]
    pub fn with_stacked_dram(mut self, dram: DramConfig) -> Self {
        self.stacked_dram = dram;
        self
    }

    /// Protects metadata entries with SECDED ECC (see
    /// [`MetadataLayout::with_ecc`]).
    #[must_use]
    pub fn with_metadata_ecc(mut self, enable: bool) -> Self {
        self.metadata_ecc = enable;
        self
    }
}

/// The Bi-Modal DRAM cache.
#[derive(Debug)]
pub struct BiModalCache {
    name: String,
    geometry: CacheGeometry,
    /// Mask/shift snapshot of `geometry` for the per-access decode path.
    amap: crate::AddrMap,
    sets: SetArena,
    way_locator: Option<WayLocator>,
    wl_cycles: Cycle,
    predictor: BlockSizePredictor,
    tracker: UtilizationTracker,
    global: GlobalMixController,
    layout: DataLayout,
    metadata: MetadataLayout,
    bimodal: bool,
    replacement: ReplacementPolicy,
    tag_compare_cycles: Cycle,
    prefetch_bypass: bool,
    miss_predictor: Option<MissPredictor>,
    adaptive_threshold: bool,
    /// Per-epoch signals for the adaptive threshold.
    epoch_under_used: u64,
    epoch_well_used: u64,
    epoch_promotions_base: u64,
    epoch_small_fills_base: u64,
    /// Injected metadata flips held by the ECC ledger: with SECDED on,
    /// a flip never reaches the live tags — it waits here until the next
    /// tag probe of its set decodes (and corrects or rejects) the entry.
    ledger: EccLedger,
    rng: SmallRng,
    stats: SchemeStats,
    config: BiModalConfig,
}

impl BiModalCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (invalid
    /// geometry, set larger than a DRAM page, dedicated metadata with a
    /// single bank per channel).
    #[must_use]
    pub fn new(config: BiModalConfig) -> Self {
        let geometry = config.geometry.clone();
        geometry.validate().expect("geometry must be valid");
        let dedicated = config.metadata_placement == MetadataPlacement::DedicatedBank;
        let layout = DataLayout::new(&geometry, &config.stacked_dram, dedicated);
        let mut metadata = MetadataLayout::new(
            &geometry,
            &config.stacked_dram,
            &layout,
            config.metadata_placement,
        );
        if config.metadata_ecc {
            metadata = metadata.with_ecc();
        }
        let sets = SetArena::new(&geometry);
        let sram = SramModel::new();
        let way_locator = config.way_locator.map(WayLocator::new);
        let wl_cycles = way_locator
            .as_ref()
            .map_or(0, |wl| wl.config().lookup_cycles(&sram));
        let base_name = match (config.bimodal, way_locator.is_some()) {
            (true, true) => "BiModal",
            (true, false) => "BiModal-Only",
            (false, true) => "WayLocator-Only",
            (false, false) => "Fixed512",
        };
        let name = if config.miss_predictor {
            format!("{base_name}+MP")
        } else {
            base_name.to_owned()
        };
        BiModalCache {
            name,
            sets,
            way_locator,
            wl_cycles,
            predictor: BlockSizePredictor::new(config.predictor),
            tracker: UtilizationTracker::new(config.predictor),
            global: GlobalMixController::with_params(
                &geometry,
                config.adapt_weight,
                config.adapt_epoch,
            ),
            layout,
            metadata,
            bimodal: config.bimodal,
            replacement: config.replacement,
            tag_compare_cycles: config.tag_compare_cycles,
            prefetch_bypass: config.prefetch_bypass,
            miss_predictor: config.miss_predictor.then(MissPredictor::new),
            adaptive_threshold: config.adaptive_threshold,
            epoch_under_used: 0,
            epoch_well_used: 0,
            epoch_promotions_base: 0,
            epoch_small_fills_base: 0,
            ledger: EccLedger::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            stats: SchemeStats::default(),
            amap: geometry.addr_map(),
            geometry,
            config,
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &BiModalConfig {
        &self.config
    }

    /// The way locator, if enabled.
    #[must_use]
    pub fn way_locator(&self) -> Option<&WayLocator> {
        self.way_locator.as_ref()
    }

    /// The block size predictor.
    #[must_use]
    pub fn predictor(&self) -> &BlockSizePredictor {
        &self.predictor
    }

    /// The global mix controller.
    #[must_use]
    pub fn global_mix(&self) -> &GlobalMixController {
        &self.global
    }

    /// The optional hit/miss predictor, if deployed.
    #[must_use]
    pub fn miss_predictor(&self) -> Option<&MissPredictor> {
        self.miss_predictor.as_ref()
    }

    /// The current utilization threshold `T` (moves when the adaptive
    /// threshold extension is enabled).
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.tracker.threshold()
    }

    /// Footnote-9 extension: once per adaptation epoch, move `T` against
    /// the observed failure mode. Sustained under-use of evicted big
    /// blocks (with few corrective promotions) means `T` admits too much
    /// sparse data as big: raise it. Frequent small-to-big promotions mean
    /// `T` demotes spatial data: lower it.
    fn adapt_threshold(&mut self) {
        let total = self.epoch_under_used + self.epoch_well_used;
        let promotions = self
            .predictor
            .promotions()
            .saturating_sub(self.epoch_promotions_base);
        let small_fills = self
            .stats
            .fills_small
            .saturating_sub(self.epoch_small_fills_base);
        let t = self.tracker.threshold();
        let max_t = self.geometry.sub_blocks() - 1;
        if total >= 32 {
            let under_frac = self.epoch_under_used as f64 / total as f64;
            if under_frac > 0.6 && promotions < total / 8 && t < max_t {
                self.tracker.set_threshold(t + 1);
            }
        }
        // Promotions pervasive relative to small fills mean the threshold
        // systematically demotes spatial regions: relax it. (Individual
        // misclassified regions are already fixed by their promotion.)
        if small_fills >= 64 && promotions > small_fills / 12 && t > 2 {
            self.tracker.set_threshold(self.tracker.threshold() - 1);
        }
        self.epoch_under_used = 0;
        self.epoch_well_used = 0;
        self.epoch_promotions_base = self.predictor.promotions();
        self.epoch_small_fills_base = self.stats.fills_small;
    }

    /// The granularity a fill for `addr` will actually use: the raw
    /// prediction, downgraded to big when neither the set nor the global
    /// target has small ways (Table II's degenerate (B, 0) case would
    /// otherwise fill a big block from a small fetch).
    fn effective_fill_size(&self, raw: BlockSize, set_idx: u64) -> BlockSize {
        if raw == BlockSize::Big {
            return BlockSize::Big;
        }
        let set_state = self
            .sets
            .state(usize::try_from(set_idx).expect("set fits usize"));
        if set_state.small == 0 && self.global.target().small == 0 {
            BlockSize::Big
        } else {
            BlockSize::Small
        }
    }

    /// The off-chip fetch a miss to `addr` would perform right now
    /// (address, bytes), per the block size predictor and the effective
    /// fill granularity.
    fn fetch_plan(&self, addr: u64) -> (u64, u32) {
        let big_base = self.amap.big_block_base(addr);
        let raw = if self.bimodal {
            self.predictor.peek(big_base)
        } else {
            BlockSize::Big
        };
        let set_idx = self.amap.set_of(addr);
        match self.effective_fill_size(raw, set_idx) {
            BlockSize::Small => (self.amap.small_block_base(addr), self.geometry.small_block),
            BlockSize::Big => (big_base, self.geometry.big_block),
        }
    }

    /// The current `(X, Y)` state of `set` (for adaptation studies).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn set_state(&self, set: u64) -> crate::geometry::SetState {
        self.sets
            .state(usize::try_from(set).expect("set index fits usize"))
    }

    fn full_addr(&self, tag: u64, set: u64, sub_block: u8) -> u64 {
        self.amap.reconstruct(tag, set)
            + u64::from(sub_block) * u64::from(self.geometry.small_block)
    }

    /// Chooses a victim way among `n` candidates honouring the
    /// random-not-recent policy: ways currently pointed at by the way
    /// locator are protected unless every candidate is. Bit `i` of
    /// `protected` marks way `i` as protected.
    ///
    /// The RNG draw sequence (one `usize` draw when any way is free, one
    /// `u8` draw when none is) matches the historical `Vec<bool>`-based
    /// implementation exactly, so seeded runs are unaffected.
    fn pick_victim(rng: &mut SmallRng, n: u8, protected: u64) -> u8 {
        // `protected` is computed before the insert; a Table II state
        // transition may grow the way count, and bits beyond the computed
        // count are clear (new ways are unprotected).
        let candidates = if n >= 64 { !0 } else { (1u64 << n) - 1 };
        let free = candidates & !protected;
        let n_free = free.count_ones();
        if n_free == 0 {
            rng.gen_range(0..n)
        } else {
            // The k-th set bit of `free` is the k-th unprotected way in
            // ascending order — the same element the old free-list indexed.
            let k = rng.gen_range(0..usize::try_from(n_free).expect("count fits usize"));
            let mut remaining = free;
            for _ in 0..k {
                remaining &= remaining - 1;
            }
            u8::try_from(remaining.trailing_zeros()).expect("way index fits u8")
        }
    }

    /// Computes the protected-way bitmask of `set`: bit `i` set means way
    /// `i` (of `size`) is currently pointed at by the way locator.
    fn protected_mask(&self, set_idx: u64, size: BlockSize) -> u64 {
        if self.replacement != ReplacementPolicy::RandomNotRecent {
            return 0;
        }
        let Some(wl) = self.way_locator.as_ref() else {
            return 0;
        };
        let set = usize::try_from(set_idx).expect("set fits usize");
        let state = self.sets.state(set);
        let n = match size {
            BlockSize::Big => state.big,
            BlockSize::Small => state.small,
        };
        let mut mask = 0u64;
        for i in 0..n {
            if let Some((tag, sub)) = self.sets.way_tag(set, WayRef { size, index: i }) {
                let addr = self.full_addr(tag, set_idx, sub);
                if wl.peek(addr).is_some() {
                    mask |= 1u64 << i;
                }
            }
        }
        mask
    }

    /// Handles an eviction: way-locator invalidation, dirty writebacks,
    /// waste accounting and predictor training.
    fn retire_victim(&mut self, victim: &Victim, set_idx: u64, at: Cycle, mem: &mut MemorySystem) {
        let _span = span::enter(SpanId::Writeback);
        let subs = self.geometry.sub_blocks();
        let small = u64::from(self.geometry.small_block);
        let base = self.amap.reconstruct(victim.tag, set_idx);
        let addr = base + u64::from(victim.sub_block) * small;
        if let Some(wl) = self.way_locator.as_mut() {
            wl.invalidate(addr, victim.size);
        }
        self.stats.evictions += 1;

        // Dirty sub-blocks go back to memory individually (Section III-B5),
        // deferred to when the eviction actually happens.
        match victim.size {
            BlockSize::Big => {
                for s in 0..subs {
                    if victim.dirty_mask & (1 << s) != 0 {
                        mem.defer(
                            at,
                            DeferredOp::MainWrite {
                                addr: base + u64::from(s) * small,
                                bytes: self.geometry.small_block,
                                class: TrafficClass::Writeback,
                            },
                        );
                        self.stats.writebacks += 1;
                        self.stats.offchip_writeback_bytes += u64::from(self.geometry.small_block);
                    }
                }
                // Fetched-but-never-referenced sub-blocks were wasted
                // off-chip bandwidth.
                let wasted = victim.unreferenced_sub_blocks(subs);
                self.stats.offchip_wasted_bytes +=
                    u64::from(wasted) * u64::from(self.geometry.small_block);
                let well_used = victim.referenced_mask.count_ones() >= self.tracker.threshold();
                if well_used {
                    self.stats.big_evictions_well_used += 1;
                    self.epoch_well_used += 1;
                } else {
                    self.stats.big_evictions_under_used += 1;
                    self.epoch_under_used += 1;
                }
                // Train the predictor: per-group counters learn from the
                // sampled sets (where the paper's tracker lives); the
                // application-level bias learns from every big eviction.
                if self.bimodal {
                    let worthy = self.tracker.classify(victim.referenced_mask);
                    if self.tracker.samples_set(set_idx) {
                        self.predictor.update(base, worthy);
                    } else {
                        self.predictor.update_bias_only(base, worthy);
                    }
                }
            }
            BlockSize::Small => {
                if victim.dirty_mask & 1 != 0 {
                    mem.defer(
                        at,
                        DeferredOp::MainWrite {
                            addr,
                            bytes: self.geometry.small_block,
                            class: TrafficClass::Writeback,
                        },
                    );
                    self.stats.writebacks += 1;
                    self.stats.offchip_writeback_bytes += u64::from(self.geometry.small_block);
                }
            }
        }
    }

    /// The miss path: predict, fetch, insert, retire victims, fill.
    #[allow(clippy::too_many_lines)]
    #[allow(clippy::too_many_arguments)] // the controller's central path
    fn service_miss(
        &mut self,
        access: CacheAccess,
        set_idx: u64,
        tag: u64,
        sub: u8,
        tags_checked: Cycle,
        speculative: Option<(bimodal_dram::Completion, u64, u32)>,
        mem: &mut MemorySystem,
    ) -> (Cycle, BlockSize) {
        let span_fill = span::enter(SpanId::Fill);
        let big_base = self.amap.big_block_base(access.addr);
        let small_base = self.amap.small_block_base(access.addr);

        let raw_prediction = if self.bimodal {
            let _g = span::enter(SpanId::PredictorLookup);
            self.predictor.predict(big_base)
        } else {
            BlockSize::Big
        };
        // Demand is recorded by the *raw* prediction, so the global mix
        // controller learns about small-block demand even while every set
        // is still in the all-big state.
        self.global.record_miss(raw_prediction == BlockSize::Big);
        // The fetch must match what the insert will actually do.
        let predicted = self.effective_fill_size(raw_prediction, set_idx);

        let (fetch_addr, fetch_bytes) = match predicted {
            BlockSize::Big => (big_base, self.geometry.big_block),
            BlockSize::Small => (small_base, self.geometry.small_block),
        };
        // Use the speculative fetch if it matches the plan (it always
        // does: no predictor state changes between speculation and here).
        let fetch = match speculative {
            Some((comp, sa, sb)) if sa == fetch_addr && sb == fetch_bytes => comp,
            Some((_, _, sb)) => {
                // Defensive: a mismatched speculation is wasted.
                self.stats.offchip_fetched_bytes += u64::from(sb);
                self.stats.offchip_wasted_bytes += u64::from(sb);
                self.stats.spec_wasted += 1;
                mem.main.set_class(TrafficClass::MainMemRefill);
                mem.main.read(fetch_addr, fetch_bytes, tags_checked)
            }
            None => {
                mem.main.set_class(TrafficClass::MainMemRefill);
                mem.main.read(fetch_addr, fetch_bytes, tags_checked)
            }
        };
        self.stats.offchip_fetched_bytes += u64::from(fetch_bytes);

        // Choose the insertion path per Table II, with random-not-recent
        // victims.
        let global_target = self.global.target();
        let protected = self.protected_mask(set_idx, predicted);
        let set = usize::try_from(set_idx).expect("set fits usize");
        let outcome = {
            let rng = &mut self.rng;
            let mut pick = |n: u8| Self::pick_victim(rng, n, protected);
            self.sets
                .insert(set, predicted, tag, sub, global_target, &mut pick)
        };

        // Absorbed small blocks vanish from the set; their locator entries
        // must vanish too.
        if outcome.absorbed_mask != 0 {
            let small = u64::from(self.geometry.small_block);
            for s in 0..self.geometry.sub_blocks() {
                if outcome.absorbed_mask & (1 << s) != 0 {
                    if let Some(wl) = self.way_locator.as_mut() {
                        wl.invalidate(big_base + u64::from(s) * small, BlockSize::Small);
                    }
                }
            }
        }

        // By index: retiring a victim borrows the whole cache.
        for i in 0..self.sets.evicted().len() {
            let victim = self.sets.evicted()[i];
            self.retire_victim(&victim, set_idx, fetch.done, mem);
        }

        // Mark the requested line referenced (and dirty on writes).
        self.sets.touch(set, outcome.way, sub, access.is_write());
        match outcome.way.size {
            BlockSize::Big => self.stats.fills_big += 1,
            BlockSize::Small => {
                self.stats.fills_small += 1;
                // Promotion path: the tracker only observes big blocks, so
                // a region stuck in small fills could never be re-promoted.
                // The fill just read all the set's tags, so counting
                // resident small siblings of this region is free — once
                // half the region's lines sit in the set as small blocks,
                // the region is demonstrably spatial: train toward big.
                let promote_at = self.geometry.sub_blocks() / 2;
                if self.bimodal && self.sets.small_sibling_count(set, tag) == promote_at {
                    self.predictor.promote(big_base);
                }
            }
        }

        // Record the new location in the way locator.
        if let Some(wl) = self.way_locator.as_mut() {
            wl.insert(access.addr, outcome.way.size, outcome.way.index);
        }

        // Fill the data into the cache row and update the metadata entry —
        // both off the critical path of the demand access.
        let data_loc = self.layout.set_location(set_idx);
        let fill_bytes = match outcome.way.size {
            BlockSize::Big => self.geometry.big_block,
            BlockSize::Small => self.geometry.small_block,
        };
        mem.defer(
            fetch.done,
            DeferredOp::CacheWrite {
                loc: data_loc,
                bytes: fill_bytes,
                class: TrafficClass::DataFill,
            },
        );
        let md_loc = self.metadata.metadata_location(set_idx, data_loc);
        // Only the filled way's tag entry is rewritten.
        mem.defer(
            fetch.done,
            DeferredOp::CacheWrite {
                loc: md_loc,
                bytes: 16,
                class: TrafficClass::MetadataWrite,
            },
        );

        span::add_cycles(SpanId::Fill, fetch.done.saturating_sub(tags_checked));
        drop(span_fill);
        (fetch.done, outcome.way.size)
    }

    /// Applies SECDED detection to every ledgered fault of `set_idx`: the
    /// tag probe that just completed decoded each protected entry of the
    /// set. Single-bit flips are corrected; multi-bit flips are detected
    /// but uncorrectable, so the affected way is dropped (its data array
    /// contents are fine — the entry describing them became unreadable).
    /// Either way a scrub write of the repaired entry goes back to the
    /// metadata bank off the critical path.
    fn scrub_set(&mut self, set_idx: u64, at: Cycle, mem: &mut MemorySystem) {
        for fault in self.ledger.drain_set(set_idx) {
            if fault.multi_bit {
                self.stats.ecc_detected_uncorrected += 1;
                if let Some(victim) = self.invalidate_faulted_way(&fault) {
                    // Dirty data survives: write it back before the way
                    // is recycled, exactly as an eviction would.
                    let small = u64::from(self.geometry.small_block);
                    let base = self.geometry.reconstruct(victim.tag, fault.set);
                    let subs = match victim.size {
                        BlockSize::Big => self.geometry.sub_blocks(),
                        BlockSize::Small => 1,
                    };
                    let first = u64::from(victim.sub_block);
                    for s in 0..subs {
                        if victim.dirty_mask & (1 << s) != 0 {
                            mem.defer(
                                at,
                                DeferredOp::MainWrite {
                                    addr: base + (first + u64::from(s)) * small,
                                    bytes: self.geometry.small_block,
                                    class: TrafficClass::Writeback,
                                },
                            );
                            self.stats.writebacks += 1;
                            self.stats.offchip_writeback_bytes +=
                                u64::from(self.geometry.small_block);
                        }
                    }
                }
            } else {
                self.stats.ecc_corrected += 1;
            }
            let data_loc = self.layout.set_location(set_idx);
            let md_loc = self.metadata.metadata_location(set_idx, data_loc);
            mem.defer(
                at,
                DeferredOp::CacheWrite {
                    loc: md_loc,
                    bytes: 8,
                    class: TrafficClass::Scrub,
                },
            );
        }
    }

    /// Drops the way a detected-uncorrectable metadata fault pointed at,
    /// together with its way-locator entry, returning the displaced block.
    fn invalidate_faulted_way(&mut self, fault: &MetadataFault) -> Option<Victim> {
        let way = WayRef {
            size: if fault.big {
                BlockSize::Big
            } else {
                BlockSize::Small
            },
            index: fault.way,
        };
        let set = usize::try_from(fault.set).expect("set fits usize");
        let victim = self.sets.invalidate_way(set, way)?;
        let base = self.geometry.reconstruct(victim.tag, fault.set);
        let addr = base + u64::from(victim.sub_block) * u64::from(self.geometry.small_block);
        if let Some(wl) = self.way_locator.as_mut() {
            wl.invalidate(addr, victim.size);
        }
        Some(victim)
    }
}

impl FaultTarget for BiModalCache {
    fn inject_metadata_flip(
        &mut self,
        rng: &mut SmallRng,
        multi_bit: bool,
    ) -> Option<MetadataFault> {
        // Probe sets from a random start for a resident entry to disturb;
        // a warmed cache finds one immediately, and an empty one returns
        // `None` after one wrap.
        let n_sets = self.sets.len();
        let start = rng.gen_range(0..n_sets);
        for probe in 0..n_sets {
            let idx = (start + probe) % n_sets;
            let occupied = self.sets.occupancy(idx);
            if occupied == 0 {
                continue;
            }
            let way = self
                .sets
                .occupied_ways(idx)
                .nth(rng.gen_range(0..occupied))
                .expect("rank below the occupancy");
            let xor = random_tag_xor(rng, multi_bit);
            let apply = !self.metadata.ecc();
            let (orig_tag, new_tag) = if apply {
                self.sets.corrupt_tag(idx, way, xor)?
            } else {
                let (tag, _) = self.sets.way_tag(idx, way)?;
                (tag, tag ^ xor)
            };
            let fault = MetadataFault {
                set: idx as u64,
                big: way.size == BlockSize::Big,
                way: way.index,
                orig_tag,
                new_tag,
                multi_bit,
                applied: apply,
            };
            if !apply {
                self.ledger.push(fault);
            }
            return Some(fault);
        }
        None
    }

    fn inject_locator_flip(&mut self, rng: &mut SmallRng) -> bool {
        self.way_locator
            .as_mut()
            .is_some_and(|wl| wl.corrupt_random_way(rng))
    }

    fn inject_predictor_upset(&mut self, rng: &mut SmallRng) -> bool {
        if !self.bimodal {
            return false;
        }
        self.predictor.upset_counter(rng);
        true
    }

    fn contents_digest(&self) -> u64 {
        let mut d = ContentsDigest::new();
        for i in 0..self.sets.len() {
            for v in self.sets.residents(i) {
                d.mix(i as u64);
                d.mix(v.tag);
                d.mix(u64::from(v.sub_block));
                d.mix(u64::from(v.size == BlockSize::Big));
                d.mix(u64::from(v.dirty_mask));
                d.mix(u64::from(v.referenced_mask));
            }
        }
        d.value()
    }

    fn flush_faults(&mut self) -> (u64, u64) {
        let mut corrected = 0u64;
        let mut uncorrected = 0u64;
        for fault in self.ledger.drain_all() {
            if fault.multi_bit {
                uncorrected += 1;
                self.stats.ecc_detected_uncorrected += 1;
                // End-of-campaign accounting scrub: no run left to charge
                // the writebacks to, so just drop the way.
                self.invalidate_faulted_way(&fault);
            } else {
                corrected += 1;
                self.stats.ecc_corrected += 1;
            }
        }
        (corrected, uncorrected)
    }
}

impl DramCacheScheme for BiModalCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn access(&mut self, access: CacheAccess, mem: &mut MemorySystem) -> AccessOutcome {
        debug_assert_eq!(
            mem.cache_dram.config(),
            &self.config.stacked_dram,
            "memory system does not match the cache layout"
        );
        mem.drain_deferred(access.now);
        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
            AccessKind::Prefetch => self.stats.prefetches += 1,
        }
        if self.bimodal {
            // Epoch bookkeeping for the global mix controller; epoch
            // boundaries also drive the optional adaptive threshold.
            if self.global.record_access().is_some() && self.adaptive_threshold {
                self.adapt_threshold();
            }
        }

        let set_idx = self.amap.set_of(access.addr);
        let set = usize::try_from(set_idx).expect("set fits usize");
        let tag = self.amap.tag_of(access.addr);
        let sub = self.amap.sub_block_of(access.addr);
        let data_loc = self.layout.set_location(set_idx);
        let op = if access.is_write() {
            Op::Write
        } else {
            Op::Read
        };

        // ------------------------------------------------ way locator hit
        let locator_entry = {
            let _g = span::enter(SpanId::LocatorProbe);
            let entry = self
                .way_locator
                .as_mut()
                .and_then(|wl| wl.lookup(access.addr));
            if self.way_locator.is_some() {
                span::add_cycles(SpanId::LocatorProbe, self.wl_cycles);
            }
            entry
        };
        if let Some(entry) = locator_entry {
            let way = WayRef {
                size: entry.size,
                index: entry.way,
            };
            // Verify the hint against the authoritative set state before
            // spending the data access. The locator never mispredicts by
            // construction, but an injected soft error can corrupt its way
            // field: a poisoned hint must cost latency, never correctness.
            let resident = self.sets.lookup(set, tag, sub) == Some(way);
            if resident {
                self.stats.locator_hits += 1;
                let start = access.now + self.wl_cycles;
                mem.cache_dram.set_class(TrafficClass::DataHit);
                let comp = mem.cache_dram.access(Request {
                    loc: data_loc,
                    bytes: self.geometry.small_block,
                    op,
                    arrival: start,
                });
                self.stats.data_accesses += 1;
                if comp.row_event == RowEvent::Hit {
                    self.stats.data_row_hits += 1;
                }
                if anatomy::active() {
                    anatomy::add(Component::Locator, self.wl_cycles);
                    anatomy::charge_dram(Component::DataBurst);
                }
                self.sets.touch(set, way, sub, access.is_write());
                if access.is_write() {
                    // Dirty-bit metadata update, off the critical path.
                    let md_loc = self.metadata.metadata_location(set_idx, data_loc);
                    mem.defer(
                        comp.done,
                        DeferredOp::CacheWrite {
                            loc: md_loc,
                            bytes: 8,
                            class: TrafficClass::MetadataWrite,
                        },
                    );
                }
                self.stats.hits += 1;
                if let Some(mp) = self.miss_predictor.as_mut() {
                    mp.update(access.addr, true);
                }
                let small = entry.size == BlockSize::Small;
                if small {
                    self.stats.small_hits += 1;
                    self.stats.small_block_accesses += 1;
                } else {
                    self.stats.big_hits += 1;
                }
                self.stats.breakdown.sram += self.wl_cycles;
                self.stats.breakdown.dram_data += comp.done.saturating_sub(start);
                self.stats.total_latency += comp.done.saturating_sub(access.now);
                return AccessOutcome {
                    complete: comp.done,
                    hit: true,
                    offchip_bytes: 0,
                    small_block: small,
                };
            }
            // Locator-vs-metadata mismatch: self-heal. Retract the bogus
            // SRAM hit, drop the poisoned entry, and fall through to the
            // full DRAM tag probe, which re-inserts a clean entry on hit.
            self.stats.locator_heals += 1;
            let wl = self
                .way_locator
                .as_mut()
                .expect("entry came from the locator");
            wl.retract_hit();
            wl.invalidate(access.addr, entry.size);
            self.stats.locator_misses += 1;
        } else if self.way_locator.is_some() {
            self.stats.locator_misses += 1;
        }

        // --------------------------- way locator miss: DRAM tag access,
        // with the data row opened in parallel on its own channel.
        let tag_start = access.now + self.wl_cycles;
        // Footnote-11 extension: a predicted miss launches its off-chip
        // fetch now, in parallel with the DRAM tag check.
        let speculative = match self.miss_predictor.as_ref() {
            Some(mp) if access.kind != AccessKind::Prefetch && !mp.predict_hit(access.addr) => {
                let (fetch_addr, fetch_bytes) = self.fetch_plan(access.addr);
                mem.main.set_class(TrafficClass::PredictorOverfetch);
                let comp = mem.main.read(fetch_addr, fetch_bytes, tag_start);
                self.stats.spec_fetches += 1;
                Some((comp, fetch_addr, fetch_bytes))
            }
            _ => None,
        };
        let span_tag = span::enter(SpanId::TagRead);
        let md_loc = self.metadata.metadata_location(set_idx, data_loc);
        let set_ways = self.sets.state(set).ways();
        // TDRAM-style substrates return tag+data in one burst: widen the
        // tag read by the candidate block so a read hit needs no second
        // column access (a miss pays the wasted wider burst).
        let fused = mem.fused_tag_data();
        let md_bytes = self.metadata.tag_read_bytes_for(set_ways)
            + if fused { self.geometry.small_block } else { 0 };
        mem.cache_dram.set_class(TrafficClass::MetadataRead);
        let md_comp = mem.cache_dram.access(Request {
            loc: md_loc,
            bytes: md_bytes,
            op: Op::Read,
            arrival: tag_start,
        });
        self.stats.md_accesses += 1;
        if md_comp.row_event == RowEvent::Hit {
            self.stats.md_row_hits += 1;
        }
        // Hold the tag read's timing partition; how it is charged depends
        // on the outcome (a speculative miss overlaps it with the fetch
        // and is sliced coarsely at the return site instead).
        let md_segs = anatomy::take_dram();
        let row_open = if self.metadata.placement() == MetadataPlacement::DedicatedBank {
            // Concurrent activation of the data row (different channel).
            mem.cache_dram.open_row_hint(data_loc, tag_start).row_open
        } else {
            // Co-located: the tag read already opened the data row.
            md_comp.done
        };
        let tags_checked = md_comp.done + self.tag_compare_cycles;
        span::add_cycles(SpanId::TagRead, tags_checked.saturating_sub(tag_start));
        drop(span_tag);

        // The tag read just decoded every SECDED-protected entry of this
        // set, so any ledgered metadata faults are detected now: corrected
        // in place if single-bit, or the affected way dropped if not.
        if !self.ledger.is_empty() {
            self.scrub_set(set_idx, md_comp.done, mem);
        }

        let hit_way = self.sets.lookup(set, tag, sub);

        if let Some(way) = hit_way {
            // --------------------------- cache hit after DRAM tag check
            let done = if fused && op == Op::Read {
                // The data block arrived in the fused tag burst; the hit
                // completes as soon as the tags are compared.
                if anatomy::active() {
                    anatomy::fused_saved(mem.cache_dram.column_cost(self.geometry.small_block));
                }
                tags_checked
            } else {
                let start = tags_checked.max(row_open);
                mem.cache_dram.set_class(TrafficClass::DataHit);
                let comp =
                    mem.cache_dram
                        .column_access(data_loc, self.geometry.small_block, op, start);
                self.stats.data_accesses += 1;
                if comp.row_event == RowEvent::Hit {
                    self.stats.data_row_hits += 1;
                }
                if anatomy::active() {
                    // Waiting for the parallel row activation to finish.
                    anatomy::add(Component::BankConflict, start.saturating_sub(tags_checked));
                    anatomy::charge_dram(Component::DataBurst);
                }
                comp.done
            };
            if anatomy::active() {
                anatomy::add(Component::Locator, self.wl_cycles);
                if let Some(s) = md_segs {
                    anatomy::charge_segments(s, Component::TagProbe);
                }
                anatomy::add(Component::TagProbe, self.tag_compare_cycles);
            }
            self.sets.touch(set, way, sub, access.is_write());
            if let Some(wl) = self.way_locator.as_mut() {
                wl.insert(access.addr, way.size, way.index);
            }
            self.stats.hits += 1;
            if let Some(mp) = self.miss_predictor.as_mut() {
                mp.update(access.addr, true);
            }
            // A speculative fetch for what turned out to be a hit is pure
            // wasted off-chip bandwidth.
            let mut offchip_bytes = 0u64;
            if let Some((_, _, fb)) = speculative {
                self.stats.offchip_fetched_bytes += u64::from(fb);
                self.stats.offchip_wasted_bytes += u64::from(fb);
                self.stats.spec_wasted += 1;
                offchip_bytes += u64::from(fb);
            }
            let small = way.size == BlockSize::Small;
            if small {
                self.stats.small_hits += 1;
                self.stats.small_block_accesses += 1;
            } else {
                self.stats.big_hits += 1;
            }
            self.stats.breakdown.sram += self.wl_cycles;
            self.stats.breakdown.dram_tag += tags_checked.saturating_sub(tag_start);
            self.stats.breakdown.dram_data += done.saturating_sub(tags_checked);
            self.stats.total_latency += done.saturating_sub(access.now);
            return AccessOutcome {
                complete: done,
                hit: true,
                offchip_bytes,
                small_block: small,
            };
        }

        // ------------------------------------------------------- miss
        self.stats.misses += 1;
        if let Some(mp) = self.miss_predictor.as_mut() {
            if access.kind != AccessKind::Prefetch {
                mp.update(access.addr, false);
            }
        }

        if access.kind == AccessKind::Prefetch && self.prefetch_bypass {
            // PREF_BYPASS: fetch around the cache without allocating.
            mem.main.set_class(TrafficClass::MainMemRefill);
            let comp = mem.main.read(
                self.amap.small_block_base(access.addr),
                self.geometry.small_block,
                tags_checked,
            );
            self.stats.prefetch_bypasses += 1;
            self.stats.offchip_fetched_bytes += u64::from(self.geometry.small_block);
            if anatomy::active() {
                let _ = anatomy::take_dram();
                anatomy::add(Component::Locator, self.wl_cycles);
                if let Some(s) = md_segs {
                    anatomy::charge_segments(s, Component::TagProbe);
                }
                anatomy::add(Component::TagProbe, self.tag_compare_cycles);
                anatomy::add(Component::OffChip, comp.done.saturating_sub(tags_checked));
            }
            self.stats.breakdown.sram += self.wl_cycles;
            self.stats.breakdown.dram_tag += tags_checked.saturating_sub(tag_start);
            self.stats.breakdown.offchip += comp.done.saturating_sub(tags_checked);
            self.stats.total_latency += comp.done.saturating_sub(access.now);
            return AccessOutcome {
                complete: comp.done,
                hit: false,
                offchip_bytes: u64::from(self.geometry.small_block),
                small_block: false,
            };
        }

        let offchip_before = self.stats.offchip_bytes();
        let spec_used = speculative.is_some();
        let (done, filled_size) =
            self.service_miss(access, set_idx, tag, sub, tags_checked, speculative, mem);
        let offchip_bytes = self.stats.offchip_bytes() - offchip_before;
        if anatomy::active() {
            // The fill's off-chip fetch left a note; the miss is charged
            // by explicit windows instead.
            let _ = anatomy::take_dram();
            anatomy::add(Component::Locator, self.wl_cycles);
            if spec_used {
                // The tag probe overlapped the speculative fetch; only
                // the probe time on the critical path counts.
                let boundary = done.min(tags_checked).max(tag_start);
                anatomy::add(Component::TagProbe, boundary - tag_start);
                anatomy::add(Component::OffChip, done.saturating_sub(boundary));
            } else {
                if let Some(s) = md_segs {
                    anatomy::charge_segments(s, Component::TagProbe);
                }
                anatomy::add(Component::TagProbe, self.tag_compare_cycles);
                anatomy::add(Component::OffChip, done.saturating_sub(tags_checked));
            }
        }
        let small = filled_size == BlockSize::Small;
        if small {
            self.stats.small_block_accesses += 1;
        }
        self.stats.breakdown.sram += self.wl_cycles;
        self.stats.breakdown.dram_tag += tags_checked.saturating_sub(tag_start);
        self.stats.breakdown.offchip += done.saturating_sub(tags_checked);
        self.stats.total_latency += done.saturating_sub(access.now);
        AccessOutcome {
            complete: done,
            hit: false,
            offchip_bytes,
            small_block: small,
        }
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        if let Some(wl) = self.way_locator.as_mut() {
            wl.reset_stats();
        }
        // Epoch baselines reference counters that were just cleared.
        self.epoch_under_used = 0;
        self.epoch_well_used = 0;
        self.epoch_promotions_base = self.predictor.promotions();
        self.epoch_small_fills_base = 0;
    }

    fn finalize(&mut self) {
        // Fetched-but-never-referenced bytes of blocks still resident
        // count as waste, exactly like evictions.
        let subs = self.geometry.sub_blocks();
        let small = u64::from(self.geometry.small_block);
        let mut wasted = 0u64;
        for set in 0..self.sets.len() {
            for v in self.sets.residents(set) {
                wasted += u64::from(v.unreferenced_sub_blocks(subs)) * small;
            }
        }
        self.stats.offchip_wasted_bytes += wasted;
    }

    fn fault_target(&mut self) -> Option<&mut dyn crate::FaultTarget> {
        Some(self)
    }

    fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        w.u8(1); // stateful marker
        self.sets.save(w);
        match &self.way_locator {
            Some(wl) => {
                w.u8(1);
                wl.save_state(w);
            }
            None => w.u8(0),
        }
        self.predictor.save_state(w);
        self.tracker.save_state(w);
        self.global.save_state(w);
        match &self.miss_predictor {
            Some(mp) => {
                w.u8(1);
                mp.save_state(w);
            }
            None => w.u8(0),
        }
        w.u64(self.epoch_under_used);
        w.u64(self.epoch_well_used);
        w.u64(self.epoch_promotions_base);
        w.u64(self.epoch_small_fills_base);
        self.ledger.save(w);
        let s = self.rng.state();
        for v in s {
            w.u64(v);
        }
        self.stats.save(w);
    }

    fn restore_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        match r.u8()? {
            1 => {}
            b => {
                return Err(r.corrupt(format!(
                    "bi-modal cache expects stateful marker 1, found {b}"
                )))
            }
        }
        let sets = SetArena::load(&self.geometry, r)?;
        let has_locator = r.u8()? == 1;
        if has_locator != self.way_locator.is_some() {
            return Err(bimodal_ckpt::CkptError::Mismatch {
                detail: "checkpoint and configuration disagree on the way locator".into(),
            });
        }
        self.sets = sets;
        if let Some(wl) = &mut self.way_locator {
            wl.load_state(r)?;
        }
        self.predictor.load_state(r)?;
        self.tracker.load_state(r)?;
        self.global.load_state(r)?;
        let has_mp = r.u8()? == 1;
        if has_mp != self.miss_predictor.is_some() {
            return Err(bimodal_ckpt::CkptError::Mismatch {
                detail: "checkpoint and configuration disagree on the miss predictor".into(),
            });
        }
        if let Some(mp) = &mut self.miss_predictor {
            mp.load_state(r)?;
        }
        self.epoch_under_used = r.u64()?;
        self.epoch_well_used = r.u64()?;
        self.epoch_promotions_base = r.u64()?;
        self.epoch_small_fills_base = r.u64()?;
        self.ledger = Snapshot::load(r)?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        if rng_state == [0; 4] {
            return Err(r.corrupt("all-zero replacement RNG state"));
        }
        self.rng = bimodal_prng::SmallRng::from_state(rng_state);
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_dram::MemorySystem;

    fn small_cache() -> (BiModalCache, MemorySystem) {
        // 1 MB cache keeps tests fast; epoch shortened so adaptation fires.
        let config = BiModalConfig::for_cache_mb(1).with_epoch(500);
        (BiModalCache::new(config), MemorySystem::quad_core())
    }

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        let drive = |c: &mut BiModalCache, mem: &mut MemorySystem, base: u64| {
            let mut now = base;
            for i in 0..400u64 {
                // Mixed strides so both granularities and evictions occur.
                let addr = (i * 7919 % 97) * 512 + (i % 8) * 64;
                let out = c.access(CacheAccess::read(addr, now), mem);
                now = out.complete + 10;
            }
            now
        };

        let (mut a, mut mem_a) = small_cache();
        drive(&mut a, &mut mem_a, 0);

        let mut w = bimodal_ckpt::SnapshotWriter::new();
        DramCacheScheme::save_state(&a, &mut w);
        let bytes = w.into_bytes();

        let (mut b, mut mem_b) = small_cache();
        let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "scheme");
        b.restore_state(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut wm = bimodal_ckpt::SnapshotWriter::new();
        mem_a.save_state(&mut wm);
        let mem_bytes = wm.into_bytes();
        let mut rm = bimodal_ckpt::SnapshotReader::new(&mem_bytes, "mem");
        mem_b.load_state(&mut rm).expect("mem restore");

        drive(&mut a, &mut mem_a, 4_000_000);
        drive(&mut b, &mut mem_b, 4_000_000);
        assert_eq!(a.stats(), b.stats());
        use crate::FaultTarget;
        assert_eq!(a.contents_digest(), b.contents_digest());
    }

    #[test]
    fn restore_rejects_set_snapshots_the_geometry_cannot_hold() {
        let (a, _) = small_cache();
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        DramCacheScheme::save_state(&a, &mut w);
        let pristine = w.into_bytes();
        // Stateful marker (1 byte) and set count (8 bytes), then set 0's
        // state (X, Y), associativity and ratio.
        assert_eq!(&pristine[9..13], &[4, 0, 4, 8]);
        // Loading (4, 200) over 16 small slots would send the first probe
        // of set 0 past the end of its small ways.
        for (offset, value, expected) in [
            (10, 200, "set 0 has state (4, 200)"),
            (9, 1, "set 0 has state (1, 0)"),
            (11, 8, "set 0 has associativity 8 and ratio 8"),
            (12, 16, "set 0 has associativity 4 and ratio 16"),
        ] {
            let mut bytes = pristine.clone();
            bytes[offset] = value;
            let (mut b, _) = small_cache();
            let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "scheme");
            match b.restore_state(&mut r) {
                Err(bimodal_ckpt::CkptError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(expected), "{detail}");
                }
                other => panic!("expected a Corrupt error naming set 0, got {other:?}"),
            }
        }
    }

    #[test]
    fn restore_rejects_stateless_marker() {
        let (mut c, _) = small_cache();
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "scheme");
        assert!(c.restore_state(&mut r).is_err());
    }

    #[test]
    fn cold_miss_then_hit() {
        let (mut c, mut mem) = small_cache();
        let a = c.access(CacheAccess::read(0x10000, 0), &mut mem);
        assert!(!a.hit);
        assert!(a.offchip_bytes >= 512, "big fill fetches the whole block");
        let b = c.access(CacheAccess::read(0x10000, a.complete), &mut mem);
        assert!(b.hit);
        assert_eq!(b.offchip_bytes, 0);
    }

    #[test]
    fn spatial_neighbours_hit_after_big_fill() {
        let (mut c, mut mem) = small_cache();
        let a = c.access(CacheAccess::read(0x10000, 0), &mut mem);
        for i in 1..8u64 {
            let r = c.access(CacheAccess::read(0x10000 + i * 64, a.complete), &mut mem);
            assert!(r.hit, "sub-block {i} should hit in the big block");
        }
    }

    #[test]
    fn way_locator_hit_is_faster_than_tag_path() {
        let (mut c, mut mem) = small_cache();
        let a = c.access(CacheAccess::read(0x20000, 0), &mut mem);
        // First hit goes through the locator (inserted on fill).
        let b = c.access(CacheAccess::read(0x20000, a.complete + 10_000), &mut mem);
        assert!(b.hit);
        assert!(c.stats().locator_hits >= 1);
    }

    #[test]
    fn writes_mark_dirty_and_cause_writebacks() {
        let (mut c, mut mem) = small_cache();
        let mut now = 0;
        // Dirty a line, then flood the set with conflicting tags to force
        // the dirty block out.
        let w = c.access(CacheAccess::write(0x4000, now), &mut mem);
        now = w.complete;
        let set_stride = 1u64 << (c.geometry.offset_bits() + c.geometry.set_index_bits());
        for k in 1..=8u64 {
            let r = c.access(CacheAccess::read(0x4000 + k * set_stride, now), &mut mem);
            now = r.complete;
        }
        assert!(c.stats().writebacks >= 1, "dirty data must be written back");
        assert!(c.stats().offchip_writeback_bytes >= 64);
    }

    #[test]
    fn locator_never_points_at_evicted_blocks() {
        let (mut c, mut mem) = small_cache();
        let mut now = 0;
        let set_stride = 1u64 << (c.geometry.offset_bits() + c.geometry.set_index_bits());
        // Cycle many conflicting blocks through one set; debug_assert in
        // the locator-hit path catches stale entries.
        for round in 0..6u64 {
            for k in 0..6u64 {
                let addr = 0x8000 + k * set_stride;
                let r = c.access(CacheAccess::read(addr + (round % 8) * 64, now), &mut mem);
                now = r.complete;
            }
        }
        assert!(c.stats().accesses == 36);
        assert_eq!(
            c.stats().locator_heals,
            0,
            "an unfaulted run never trips the hint verifier"
        );
    }

    #[test]
    fn sparse_traffic_trains_predictor_to_small() {
        let config = BiModalConfig::for_cache_mb(1).with_epoch(32);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        // Cycle 12 conflicting single-line (utilization 1/8) regions
        // through the sampled set 0: every eviction trains the predictor
        // toward "small", and the global controller follows the demand.
        let set_stride = 1u64 << (c.geometry.offset_bits() + c.geometry.set_index_bits());
        for round in 0..20u64 {
            for k in 0..12u64 {
                let addr = k * set_stride; // all map to set 0
                let _ = round;
                let r = c.access(CacheAccess::read(addr, now), &mut mem);
                now = r.complete;
            }
        }
        let (_, small_updates) = c.predictor().update_counts();
        assert!(
            small_updates > 0,
            "sampled sparse evictions must train the predictor"
        );
        assert!(c.stats().fills_small > 0, "later fills should be small");
    }

    #[test]
    fn fixed_big_never_fills_small() {
        let config = BiModalConfig::for_cache_mb(1).fixed_big_blocks();
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        for k in 0..200u64 {
            let r = c.access(CacheAccess::read(k * 4096 + 64, now), &mut mem);
            now = r.complete;
        }
        assert_eq!(c.stats().fills_small, 0);
        assert_eq!(c.stats().small_block_accesses, 0);
        assert_eq!(c.name(), "Fixed512");
    }

    #[test]
    fn bimodal_only_has_no_locator() {
        let config = BiModalConfig::for_cache_mb(1).bimodal_only();
        let c = BiModalCache::new(config);
        assert!(c.way_locator().is_none());
        assert_eq!(c.name(), "BiModal-Only");
    }

    #[test]
    fn wasted_bandwidth_is_counted_for_unused_sub_blocks() {
        let config = BiModalConfig::for_cache_mb(1).fixed_big_blocks();
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        // One access per big region: 7 of 8 sub-blocks wasted.
        let mut now = 0;
        for k in 0..50u64 {
            let r = c.access(CacheAccess::read(k * 512, now), &mut mem);
            now = r.complete;
        }
        c.finalize();
        let s = c.stats();
        assert_eq!(s.offchip_wasted_bytes, 50 * 7 * 64);
    }

    #[test]
    fn prefetch_bypass_does_not_allocate() {
        let config = BiModalConfig::for_cache_mb(1).with_prefetch_bypass(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let p = c.access(CacheAccess::prefetch(0x7000, 0), &mut mem);
        assert!(!p.hit);
        assert_eq!(c.stats().prefetch_bypasses, 1);
        // Still a miss afterwards: nothing was allocated.
        let r = c.access(CacheAccess::read(0x7000, p.complete), &mut mem);
        assert!(!r.hit);
    }

    #[test]
    fn metadata_rbh_is_higher_with_dedicated_bank() {
        let run = |colocated: bool| {
            let mut config = BiModalConfig::for_cache_mb(1).bimodal_only();
            if colocated {
                config = config.with_colocated_metadata();
            }
            let mut c = BiModalCache::new(config);
            let mut mem = MemorySystem::quad_core();
            let mut now = 0;
            // A scattered read stream: every access misses the (absent)
            // way locator, so every access reads metadata.
            let mut x = 1u64;
            for _ in 0..3000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let addr = (x >> 16) % (64 << 20);
                let r = c.access(CacheAccess::read(addr, now), &mut mem);
                now = r.complete;
            }
            c.stats().metadata_rbh()
        };
        let dedicated = run(false);
        let colocated = run(true);
        assert!(
            dedicated > colocated,
            "dedicated metadata bank must raise metadata RBH: {dedicated} vs {colocated}"
        );
    }

    #[test]
    fn stats_reset_clears_counters_but_keeps_contents() {
        let (mut c, mut mem) = small_cache();
        let a = c.access(CacheAccess::read(0x3000, 0), &mut mem);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        let b = c.access(CacheAccess::read(0x3000, a.complete), &mut mem);
        assert!(b.hit, "contents survive a stats reset");
    }

    #[test]
    fn miss_predictor_overlaps_fetch_with_tag_check() {
        let run = |mp: bool| {
            let config = BiModalConfig::for_cache_mb(1)
                .bimodal_only() // no way locator: every access checks tags
                .with_miss_predictor(mp);
            let mut c = BiModalCache::new(config);
            let mut mem = MemorySystem::quad_core();
            let mut now = 0;
            let mut lat_sum = 0u64;
            // A scan stream: every 512 B block misses, so each 4 KB
            // predictor region sees several misses and trains quickly.
            for k in 0..300u64 {
                let r = c.access(CacheAccess::read(0x10_0000 + k * 512, now), &mut mem);
                lat_sum += r.complete - now;
                now = r.complete + 50;
            }
            (lat_sum, c.stats().spec_fetches)
        };
        let (base_lat, base_spec) = run(false);
        let (mp_lat, mp_spec) = run(true);
        assert_eq!(base_spec, 0);
        assert!(
            mp_spec > 100,
            "predictor should speculate on the miss stream"
        );
        assert!(
            mp_lat < base_lat,
            "overlapped fetches must cut total miss latency: {mp_lat} vs {base_lat}"
        );
    }

    #[test]
    fn miss_predictor_wastes_fetches_on_hits() {
        let config = BiModalConfig::for_cache_mb(1)
            .bimodal_only()
            .with_miss_predictor(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        // Train the region to predict miss, then hit in it repeatedly.
        for k in 0..8u64 {
            let r = c.access(CacheAccess::read(k * 512, now), &mut mem);
            now = r.complete + 10;
        }
        let wasted_before = c.stats().spec_wasted;
        for _ in 0..4 {
            let r = c.access(CacheAccess::read(0, now), &mut mem);
            assert!(r.hit);
            now = r.complete + 10;
        }
        assert!(
            c.stats().spec_wasted > wasted_before,
            "hit under a miss prediction wastes a fetch"
        );
        assert_eq!(c.name(), "BiModal-Only+MP");
    }

    #[test]
    fn adaptive_threshold_rises_under_sustained_waste() {
        // A stream touching exactly 4 of 8 sub-blocks per region, with
        // T = 3: every region classifies big-worthy yet wastes half its
        // fetch. The adaptive controller should push T upward.
        let config = BiModalConfig::for_cache_mb(1)
            .with_threshold(3)
            .with_epoch(2_000)
            .with_adaptive_threshold(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        let mut region = 0u64;
        for _ in 0..8_000u64 {
            // Touch one line of a fresh region (utilization 1/8 at
            // eviction) — heavy under-use.
            let r = c.access(CacheAccess::read(region * 512, now), &mut mem);
            now = r.complete + 20;
            region = (region + 1) % 4_096; // cycle so evictions occur
        }
        assert!(c.threshold() > 3, "T should rise, got {}", c.threshold());
    }

    #[test]
    fn adaptive_threshold_stays_for_well_used_blocks() {
        let config = BiModalConfig::for_cache_mb(1)
            .with_epoch(2_000)
            .with_adaptive_threshold(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        // Dense scan: every region fully used.
        for k in 0..16_000u64 {
            let r = c.access(CacheAccess::read(k * 64, now), &mut mem);
            now = r.complete + 5;
        }
        assert!(
            c.threshold() <= 5,
            "well-used traffic must not raise T, got {}",
            c.threshold()
        );
    }

    #[test]
    fn corrupted_locator_entry_heals_without_losing_the_block() {
        let (mut c, mut mem) = small_cache();
        let a = c.access(CacheAccess::read(0x20000, 0), &mut mem);
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(c.inject_locator_flip(&mut rng), "one entry is resident");
        let b = c.access(CacheAccess::read(0x20000, a.complete + 1_000), &mut mem);
        assert!(b.hit, "a corrupted hint costs latency, never the block");
        assert_eq!(c.stats().locator_heals, 1);
        // The tag probe re-inserted a clean entry: the next access is a
        // plain locator hit again.
        let d = c.access(CacheAccess::read(0x20000, b.complete + 1_000), &mut mem);
        assert!(d.hit);
        assert_eq!(c.stats().locator_heals, 1);
    }

    #[test]
    fn ecc_ledgers_flips_and_scrubs_on_the_next_tag_probe() {
        let config = BiModalConfig::for_cache_mb(1)
            .with_epoch(500)
            .with_metadata_ecc(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let a = c.access(CacheAccess::read(0x30000, 0), &mut mem);
        let digest = c.contents_digest();
        let mut rng = SmallRng::seed_from_u64(11);
        let f = c
            .inject_metadata_flip(&mut rng, false)
            .expect("a block is resident");
        assert!(!f.applied, "SECDED holds the flip in the ledger");
        assert_eq!(digest, c.contents_digest(), "tags were never disturbed");
        // A tag probe of the same set (here: a conflicting miss) decodes
        // the protected entries and corrects the flip.
        let set_stride = 1u64 << (c.geometry.offset_bits() + c.geometry.set_index_bits());
        let _ = c.access(
            CacheAccess::read(0x30000 + set_stride, a.complete),
            &mut mem,
        );
        assert_eq!(c.stats().ecc_corrected, 1);
        assert_eq!(c.stats().ecc_detected_uncorrected, 0);
    }

    #[test]
    fn multi_bit_flip_is_detected_and_drops_the_way() {
        let config = BiModalConfig::for_cache_mb(1)
            .with_epoch(500)
            .with_metadata_ecc(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let a = c.access(CacheAccess::read(0x40000, 0), &mut mem);
        let mut rng = SmallRng::seed_from_u64(13);
        let f = c
            .inject_metadata_flip(&mut rng, true)
            .expect("a block is resident");
        assert!(f.multi_bit && !f.applied);
        let set_stride = 1u64 << (c.geometry.offset_bits() + c.geometry.set_index_bits());
        let b = c.access(
            CacheAccess::read(0x40000 + set_stride, a.complete),
            &mut mem,
        );
        assert_eq!(c.stats().ecc_detected_uncorrected, 1);
        // The entry was unreadable, so its way was dropped: the original
        // block is gone, detectedly (not silently).
        let d = c.access(CacheAccess::read(0x40000, b.complete), &mut mem);
        assert!(!d.hit);
    }

    #[test]
    fn without_ecc_a_flip_corrupts_the_tag_for_real() {
        let (mut c, mut mem) = small_cache();
        let a = c.access(CacheAccess::read(0x50000, 0), &mut mem);
        let digest = c.contents_digest();
        let mut rng = SmallRng::seed_from_u64(17);
        let f = c
            .inject_metadata_flip(&mut rng, false)
            .expect("a block is resident");
        assert!(f.applied, "no ECC: the stored tag really changes");
        assert_ne!(f.orig_tag, f.new_tag);
        assert_ne!(digest, c.contents_digest());
        // The stale locator hint is caught by the verifier (heal), but the
        // block itself is lost — the silent-corruption baseline.
        let b = c.access(CacheAccess::read(0x50000, a.complete), &mut mem);
        assert!(!b.hit);
        assert_eq!(c.stats().locator_heals, 1);
        assert_eq!(c.stats().ecc_corrected, 0);
    }

    #[test]
    fn flush_faults_accounts_for_undetected_ledger_entries() {
        let config = BiModalConfig::for_cache_mb(1)
            .with_epoch(500)
            .with_metadata_ecc(true);
        let mut c = BiModalCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let _ = c.access(CacheAccess::read(0x60000, 0), &mut mem);
        let mut rng = SmallRng::seed_from_u64(19);
        c.inject_metadata_flip(&mut rng, false).expect("resident");
        c.inject_metadata_flip(&mut rng, true).expect("resident");
        let (corrected, uncorrected) = c.flush_faults();
        assert_eq!((corrected, uncorrected), (1, 1));
        assert_eq!(c.flush_faults(), (0, 0), "ledger drained");
    }

    #[test]
    fn pick_victim_honours_protection() {
        let mut rng = SmallRng::seed_from_u64(7);
        // Only way 2 unprotected (bits 0, 1 and 3 set).
        let protected = 0b1011u64;
        for _ in 0..20 {
            assert_eq!(BiModalCache::pick_victim(&mut rng, 4, protected), 2);
        }
        // All protected: any way may be chosen.
        let v = BiModalCache::pick_victim(&mut rng, 2, 0b11);
        assert!(v < 2);
    }

    #[test]
    fn pick_victim_mask_matches_free_list_semantics() {
        // The mask-based selector must draw the same victims the old
        // Vec<bool> free-list code drew: k-th unprotected way in
        // ascending order, via one usize draw over the free count.
        for seed in 0..16u64 {
            for (n, protected) in [(4u8, 0b0101u64), (6, 0b110010), (18, 0b10_1010_1010_1010)] {
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = SmallRng::seed_from_u64(seed);
                let free: Vec<u8> = (0..n).filter(|&i| protected & (1 << i) == 0).collect();
                let expect = free[b.gen_range(0..free.len())];
                assert_eq!(BiModalCache::pick_victim(&mut a, n, protected), expect);
                // Both paths must leave the RNG in the same state.
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }
}
