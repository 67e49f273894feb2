//! Footprint Cache (Jevdjic, Volos & Falsafi, ISCA 2013).
//!
//! A page-grain (2 KB) DRAM cache with tags held in SRAM. On a page miss
//! the *footprint predictor* forecasts which 64 B sub-blocks the CPU will
//! touch and only those are fetched; accesses to unpredicted sub-blocks of
//! a resident page fetch individually. Pages predicted to be touched just
//! once bypass the cache entirely.
//!
//! **Substitution note:** the original predictor is keyed by
//! `(PC, page offset)`; our traces carry no program counters, so the
//! predictor is keyed by page-address history instead (the footprint a
//! page exhibited last time it was resident). This preserves the
//! behaviour the Bi-Modal paper contrasts against: footprint-limited
//! fetch with residual over-fetch within committed pages. See DESIGN.md.

use bimodal_core::{
    random_tag_xor, AccessKind, AccessOutcome, CacheAccess, ContentsDigest, DramCacheScheme,
    EccLedger, FaultTarget, MetadataFault, SchemeStats, SramModel,
};
use bimodal_dram::{Cycle, DeferredOp, MemorySystem, Op, RowEvent, TrafficClass};
use bimodal_obs::anatomy::{self, Component};
use bimodal_obs::span::{self, SpanId};
use bimodal_prng::SmallRng;

use crate::common::RowMapper;

/// Configuration of a [`FootprintCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintConfig {
    /// Capacity in bytes.
    pub cache_bytes: u64,
    /// Page (allocation unit) size; the paper's Table I uses 2048 B.
    pub page_bytes: u32,
    /// Sub-block (fetch unit) size: the 64 B LLSC line.
    pub sub_block_bytes: u32,
    /// Page-set associativity.
    pub assoc: usize,
    /// Bypass pages predicted to be referenced exactly once.
    pub single_use_bypass: bool,
    /// Optional override of the SRAM tag-store latency, used by scaled
    /// experiments to charge the latency of the *full-scale* tag store
    /// the design would really need.
    pub tag_latency_override: Option<Cycle>,
    /// Protect the SRAM tag store with SECDED ECC: injected flips are
    /// ledgered and detected at the next tag lookup of the set instead of
    /// corrupting it, at the cost of one extra cycle per tag access
    /// (SRAM arrays widen by the check bits, not by extra bursts).
    pub metadata_ecc: bool,
}

impl FootprintConfig {
    /// Paper-style configuration for `mb` megabytes: 2 KB pages, 4-way.
    #[must_use]
    pub fn for_cache_mb(mb: u64) -> Self {
        FootprintConfig {
            cache_bytes: mb << 20,
            page_bytes: 2048,
            sub_block_bytes: 64,
            assoc: 4,
            single_use_bypass: true,
            tag_latency_override: None,
            metadata_ecc: false,
        }
    }

    /// Overrides the SRAM tag-store latency (see `tag_latency_override`).
    #[must_use]
    pub fn with_tag_latency(mut self, cycles: Cycle) -> Self {
        self.tag_latency_override = Some(cycles);
        self
    }

    /// Enables or disables SECDED ECC over the SRAM tag store.
    #[must_use]
    pub fn with_metadata_ecc(mut self, ecc: bool) -> Self {
        self.metadata_ecc = ecc;
        self
    }

    fn n_pages(&self) -> u64 {
        self.cache_bytes / u64::from(self.page_bytes)
    }

    fn n_sets(&self) -> u64 {
        self.n_pages() / self.assoc as u64
    }

    fn sub_blocks(&self) -> u32 {
        self.page_bytes / self.sub_block_bytes
    }
}

/// History-based footprint predictor: a *finite*, direct-mapped table of
/// (page, footprint) pairs remembering the sub-block mask a page
/// exhibited during its last residency. Aliasing between pages produces
/// realistic mispredictions, like the original's finite PC-indexed
/// tables.
#[derive(Debug, Clone)]
pub struct FootprintPredictor {
    table: Vec<(u64, u32)>,
}

impl FootprintPredictor {
    /// Creates an empty 16 K-entry predictor (~96 KB of SRAM).
    #[must_use]
    pub fn new() -> Self {
        FootprintPredictor {
            table: vec![(u64::MAX, 0); 1 << 14],
        }
    }

    fn index(&self, page: u64) -> usize {
        let h = page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        usize::try_from(h).expect("fits") & (self.table.len() - 1)
    }

    fn mask_of(&self, page: u64) -> u32 {
        let (tag, mask) = self.table[self.index(page)];
        if tag == page {
            mask
        } else {
            0
        }
    }

    /// Predicted footprint for `page`, always including `first_sub`.
    #[must_use]
    pub fn predict(&self, page: u64, first_sub: u32) -> u32 {
        self.mask_of(page) | (1 << first_sub)
    }

    /// Has `page` already shown a touch to `sub` (used to detect reuse of
    /// a previously bypassed line)?
    #[must_use]
    pub fn saw_touch(&self, page: u64, sub: u32) -> bool {
        self.mask_of(page) & (1 << sub) != 0
    }

    /// Records the observed footprint of an evicted page.
    pub fn record(&mut self, page: u64, footprint: u32) {
        let i = self.index(page);
        self.table[i] = (page, footprint);
    }

    /// Accumulates a touch observed while the page was bypassed, so the
    /// predictor can learn footprints for pages that never became
    /// resident. (The original design trains its PC-indexed predictor from
    /// sampled sets; this is the address-history equivalent.)
    pub fn record_bypass_touch(&mut self, page: u64, sub: u32) {
        let i = self.index(page);
        if self.table[i].0 == page {
            self.table[i].1 |= 1 << sub;
        } else {
            self.table[i] = (page, 1 << sub);
        }
    }

    /// Flips one bit of a randomly chosen entry's footprint mask — a
    /// predictor upset only ever disturbs a hint (a wrong footprint costs
    /// over- or under-fetch, never correctness).
    pub fn upset_entry(&mut self, rng: &mut SmallRng) {
        let idx = rng.gen_range(0..self.table.len());
        let bit = rng.gen_range(0u32..32);
        self.table[idx].1 ^= 1 << bit;
    }
}

impl Default for FootprintPredictor {
    fn default() -> Self {
        FootprintPredictor::new()
    }
}

#[derive(Debug, Clone, Copy)]
struct Page {
    tag: u64,
    /// Sub-blocks actually fetched into the cache.
    fetched: u32,
    /// Sub-blocks the CPU referenced.
    referenced: u32,
    /// Dirty sub-blocks.
    dirty: u32,
}

/// The Footprint Cache organization.
#[derive(Debug)]
pub struct FootprintCache {
    config: FootprintConfig,
    /// Per page-set: resident pages in LRU order.
    sets: Vec<Vec<Page>>,
    predictor: FootprintPredictor,
    tag_sram_cycles: Cycle,
    mapper: Option<RowMapper>,
    ledger: EccLedger,
    stats: SchemeStats,
}

impl FootprintCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete page set.
    #[must_use]
    pub fn new(config: FootprintConfig) -> Self {
        assert!(
            config.n_sets() > 0,
            "capacity must hold at least one page set"
        );
        let sram = SramModel::new();
        // SRAM tag store: tag + valid/dirty vectors per page, ~12 B each.
        let tag_bytes = config.n_pages() * 12;
        let tag_cycles = config
            .tag_latency_override
            .unwrap_or_else(|| sram.access_cycles(tag_bytes));
        // The SECDED decode adds a cycle to every SRAM tag lookup.
        let tag_cycles = tag_cycles + Cycle::from(config.metadata_ecc);
        FootprintCache {
            sets: vec![Vec::new(); usize::try_from(config.n_sets()).expect("sets fit usize")],
            predictor: FootprintPredictor::new(),
            tag_sram_cycles: tag_cycles,
            mapper: None,
            ledger: EccLedger::new(),
            stats: SchemeStats::default(),
            config,
        }
    }

    /// Paper-style Footprint Cache of `mb` megabytes.
    #[must_use]
    pub fn with_capacity_mb(mb: u64) -> Self {
        FootprintCache::new(FootprintConfig::for_cache_mb(mb))
    }

    /// SRAM tag-store lookup latency in cycles.
    #[must_use]
    pub fn tag_sram_cycles(&self) -> Cycle {
        self.tag_sram_cycles
    }

    /// The footprint predictor.
    #[must_use]
    pub fn predictor(&self) -> &FootprintPredictor {
        &self.predictor
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.config.page_bytes)
    }

    fn set_of(&self, page: u64) -> u64 {
        page % self.config.n_sets()
    }

    fn tag_of(&self, page: u64) -> u64 {
        page / self.config.n_sets()
    }

    fn sub_of(&self, addr: u64) -> u32 {
        u32::try_from(
            (addr % u64::from(self.config.page_bytes)) / u64::from(self.config.sub_block_bytes),
        )
        .expect("sub-block index fits u32")
    }

    fn page_addr(&self, tag: u64, set: u64) -> u64 {
        (tag * self.config.n_sets() + set) * u64::from(self.config.page_bytes)
    }

    /// Evicts `page`, recording its footprint and writing back dirty data.
    fn retire_page(&mut self, page: Page, set_idx: u64, at: Cycle, mem: &mut MemorySystem) -> u64 {
        let _span = span::enter(SpanId::Writeback);
        self.stats.evictions += 1;
        let base = self.page_addr(page.tag, set_idx);
        let page_id = base / u64::from(self.config.page_bytes);
        self.predictor.record(page_id, page.referenced);
        let sub = u64::from(self.config.sub_block_bytes);
        let mut offchip = 0u64;
        for s in 0..self.config.sub_blocks() {
            if page.dirty & (1 << s) != 0 {
                mem.defer(
                    at,
                    DeferredOp::MainWrite {
                        addr: base + u64::from(s) * sub,
                        bytes: self.config.sub_block_bytes,
                        class: TrafficClass::Writeback,
                    },
                );
                self.stats.writebacks += 1;
                self.stats.offchip_writeback_bytes += sub;
                offchip += sub;
            }
        }
        // Fetched-but-never-referenced sub-blocks were wasted bandwidth.
        let wasted = (page.fetched & !page.referenced).count_ones();
        self.stats.offchip_wasted_bytes += u64::from(wasted) * sub;
        offchip
    }

    /// SECDED detection for every ledgered fault of `set_idx`: the SRAM
    /// tag lookup that just ran decoded the protected entry. Single-bit
    /// flips are corrected in place; multi-bit flips are detected but
    /// uncorrectable, so the page is dropped (dirty sub-blocks written
    /// back first). The predictor is *not* trained from a dropped page —
    /// its footprint metadata was lost with the tag.
    fn scrub_set(&mut self, set_idx: u64, at: Cycle, mem: &mut MemorySystem) {
        for fault in self.ledger.drain_set(set_idx) {
            if fault.multi_bit {
                self.stats.ecc_detected_uncorrected += 1;
                let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
                if let Some(pos) = set.iter().position(|p| p.tag == fault.orig_tag) {
                    let page = set.remove(pos);
                    let base = self.page_addr(page.tag, set_idx);
                    let sub = u64::from(self.config.sub_block_bytes);
                    for s in 0..self.config.sub_blocks() {
                        if page.dirty & (1 << s) != 0 {
                            mem.defer(
                                at,
                                DeferredOp::MainWrite {
                                    addr: base + u64::from(s) * sub,
                                    bytes: self.config.sub_block_bytes,
                                    class: TrafficClass::Writeback,
                                },
                            );
                            self.stats.writebacks += 1;
                            self.stats.offchip_writeback_bytes += sub;
                        }
                    }
                }
            } else {
                self.stats.ecc_corrected += 1;
            }
            // SRAM scrub: the corrected word is rewritten in place, no
            // DRAM traffic.
        }
    }
}

impl FaultTarget for FootprintCache {
    fn inject_metadata_flip(
        &mut self,
        rng: &mut SmallRng,
        multi_bit: bool,
    ) -> Option<MetadataFault> {
        // Probe page sets from a random start for a non-empty one.
        let n = usize::try_from(self.config.n_sets()).expect("set count fits usize");
        let start = rng.gen_range(0..n);
        for probe in 0..n {
            let idx = (start + probe) % n;
            if self.sets[idx].is_empty() {
                continue;
            }
            let way = rng.gen_range(0..self.sets[idx].len());
            let xor = random_tag_xor(rng, multi_bit);
            let apply = !self.config.metadata_ecc;
            let page = &mut self.sets[idx][way];
            let (orig_tag, new_tag) = (page.tag, page.tag ^ xor);
            if apply {
                page.tag = new_tag;
            }
            let fault = MetadataFault {
                set: idx as u64,
                big: true, // page-grain allocation unit
                way: way.min(usize::from(u8::MAX)) as u8,
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

    fn inject_locator_flip(&mut self, _rng: &mut SmallRng) -> bool {
        false // tags are the only locator, covered by metadata flips
    }

    fn inject_predictor_upset(&mut self, rng: &mut SmallRng) -> bool {
        self.predictor.upset_entry(rng);
        true
    }

    fn contents_digest(&self) -> u64 {
        let mut d = ContentsDigest::new();
        for (s, set) in self.sets.iter().enumerate() {
            for page in set {
                d.mix(s as u64);
                d.mix(page.tag);
                d.mix(u64::from(page.fetched));
                d.mix(u64::from(page.referenced));
                d.mix(u64::from(page.dirty));
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
                let set = &mut self.sets[usize::try_from(fault.set).expect("set fits usize")];
                if let Some(pos) = set.iter().position(|p| p.tag == fault.orig_tag) {
                    set.remove(pos);
                }
            } else {
                corrected += 1;
                self.stats.ecc_corrected += 1;
            }
        }
        (corrected, uncorrected)
    }
}

impl DramCacheScheme for FootprintCache {
    fn name(&self) -> &str {
        "FootprintCache"
    }

    #[allow(clippy::too_many_lines)]
    fn access(&mut self, access: CacheAccess, mem: &mut MemorySystem) -> AccessOutcome {
        mem.drain_deferred(access.now);
        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
            AccessKind::Prefetch => self.stats.prefetches += 1,
        }
        let page = self.page_of(access.addr);
        let set_idx = self.set_of(page);
        let tag = self.tag_of(page);
        let sub = self.sub_of(access.addr);
        let op = if access.is_write() {
            Op::Write
        } else {
            Op::Read
        };
        let mapper = *self
            .mapper
            .get_or_insert_with(|| RowMapper::new(mem.cache_dram.config()));
        // A page's data occupies one DRAM row; associativity is handled in
        // the SRAM tags, the row is chosen by (set, way) — for timing we
        // map by set, which preserves row-locality behaviour.
        let loc = mapper.location(set_idx);

        // Tags are in SRAM: the check always costs the SRAM latency first.
        // (Profiled as tag.read even though no DRAM burst is involved —
        // it is this scheme's tag-check phase.)
        let span_tag = span::enter(SpanId::TagRead);
        span::add_cycles(SpanId::TagRead, self.tag_sram_cycles);
        let tags_checked = access.now + self.tag_sram_cycles;
        self.stats.breakdown.sram += self.tag_sram_cycles;
        self.stats.locator_hits += 1; // tags always answered by SRAM
        if !self.ledger.is_empty() {
            // The lookup just decoded the protected entry: SECDED scrub.
            self.scrub_set(set_idx, tags_checked, mem);
        }

        let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
        let pos = set.iter().position(|p| p.tag == tag);
        drop(span_tag);
        if anatomy::active() {
            // SRAM tag check: every downstream path starts at tags_checked.
            anatomy::add(Component::TagProbe, self.tag_sram_cycles);
        }

        let mut offchip_bytes = 0u64;
        if let Some(pos) = pos {
            let mut pg = set.remove(pos);
            let have = pg.fetched & (1 << sub) != 0;
            if have {
                // True hit: one DRAM data access after the SRAM tag check.
                pg.referenced |= 1 << sub;
                if access.is_write() {
                    pg.dirty |= 1 << sub;
                }
                set.insert(0, pg);
                mem.cache_dram.set_class(TrafficClass::DataHit);
                let data = mem.cache_dram.column_access(
                    loc,
                    self.config.sub_block_bytes,
                    op,
                    tags_checked,
                );
                self.stats.data_accesses += 1;
                if data.row_event == RowEvent::Hit {
                    self.stats.data_row_hits += 1;
                }
                self.stats.hits += 1;
                self.stats.big_hits += 1;
                if anatomy::active() {
                    anatomy::charge_dram(Component::DataBurst);
                }
                self.stats.breakdown.dram_data += data.done.saturating_sub(tags_checked);
                self.stats.total_latency += data.done.saturating_sub(access.now);
                return AccessOutcome {
                    complete: data.done,
                    hit: true,
                    offchip_bytes: 0,
                    small_block: false,
                };
            }
            // Sub-block miss within a resident page: fetch just this line.
            let _span_fill = span::enter(SpanId::Fill);
            pg.fetched |= 1 << sub;
            pg.referenced |= 1 << sub;
            if access.is_write() {
                pg.dirty |= 1 << sub;
            }
            set.insert(0, pg);
            self.stats.misses += 1;
            let bytes = self.config.sub_block_bytes;
            let base = access.addr & !u64::from(bytes - 1);
            mem.main.set_class(TrafficClass::MainMemRefill);
            let fetch = mem.main.read(base, bytes, tags_checked);
            self.stats.offchip_fetched_bytes += u64::from(bytes);
            offchip_bytes += u64::from(bytes);
            mem.defer(
                fetch.done,
                DeferredOp::CacheWrite {
                    loc,
                    bytes,
                    class: TrafficClass::DataFill,
                },
            );
            span::add_cycles(SpanId::Fill, fetch.done.saturating_sub(tags_checked));
            if anatomy::active() {
                let _ = anatomy::take_dram();
                anatomy::add(Component::OffChip, fetch.done.saturating_sub(tags_checked));
            }
            self.stats.breakdown.offchip += fetch.done.saturating_sub(tags_checked);
            self.stats.total_latency += fetch.done.saturating_sub(access.now);
            return AccessOutcome {
                complete: fetch.done,
                hit: false,
                offchip_bytes,
                small_block: false,
            };
        }

        // ------------------------------------------------- page miss
        self.stats.misses += 1;
        let predicted = {
            let _g = span::enter(SpanId::PredictorLookup);
            self.predictor.predict(page, sub)
        };
        let predicted_count = predicted.count_ones();
        let bytes = self.config.sub_block_bytes;
        let base = access.addr & !u64::from(bytes - 1);

        // A line that was bypassed before and is referenced again shows
        // reuse: allocate it this time instead of bypassing forever.
        let seen_before = self.predictor.saw_touch(page, sub);
        if self.config.single_use_bypass && predicted_count <= 1 && !seen_before {
            // Predicted single-use: bypass the cache.
            self.predictor.record_bypass_touch(page, sub);
            mem.main.set_class(TrafficClass::MainMemRefill);
            let fetch = mem.main.read(base, bytes, tags_checked);
            self.stats.offchip_fetched_bytes += u64::from(bytes);
            offchip_bytes += u64::from(bytes);
            self.stats.prefetch_bypasses += 1; // reused counter: bypasses
            if anatomy::active() {
                let _ = anatomy::take_dram();
                anatomy::add(Component::OffChip, fetch.done.saturating_sub(tags_checked));
            }
            self.stats.breakdown.offchip += fetch.done.saturating_sub(tags_checked);
            self.stats.total_latency += fetch.done.saturating_sub(access.now);
            return AccessOutcome {
                complete: fetch.done,
                hit: false,
                offchip_bytes,
                small_block: false,
            };
        }

        // Fetch the predicted footprint (the demanded line first; the rest
        // streams behind it).
        let span_fill = span::enter(SpanId::Fill);
        let page_base = page * u64::from(self.config.page_bytes);
        mem.main.set_class(TrafficClass::MainMemRefill);
        let demand = mem.main.read(base, bytes, tags_checked);
        let mut fill_done = demand.done;
        if predicted_count > 1 {
            let rest_bytes = (predicted_count - 1) * bytes;
            // Non-demand remainder of the predicted footprint.
            mem.main.set_class(TrafficClass::PredictorOverfetch);
            let rest = mem.main.read(page_base, rest_bytes, demand.done);
            fill_done = rest.done;
        }
        self.stats.offchip_fetched_bytes += u64::from(predicted_count * bytes);
        offchip_bytes += u64::from(predicted_count * bytes);
        self.stats.fills_big += 1;

        let mut pg = Page {
            tag,
            fetched: predicted,
            referenced: 1 << sub,
            dirty: 0,
        };
        if access.is_write() {
            pg.dirty |= 1 << sub;
        }
        let assoc = self.config.assoc;
        let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
        set.insert(0, pg);
        let victim = if set.len() > assoc { set.pop() } else { None };
        if let Some(v) = victim {
            offchip_bytes += self.retire_page(v, set_idx, fill_done, mem);
        }
        // Fill the fetched sub-blocks into the row (off the critical path).
        mem.defer(
            fill_done,
            DeferredOp::CacheWrite {
                loc,
                bytes: predicted_count * bytes,
                class: TrafficClass::DataFill,
            },
        );

        span::add_cycles(SpanId::Fill, fill_done.saturating_sub(tags_checked));
        drop(span_fill);
        if anatomy::active() {
            // The "rest" stream rides behind the demand fetch, off the
            // critical path; the access completes at demand.done.
            let _ = anatomy::take_dram();
            anatomy::add(Component::OffChip, demand.done.saturating_sub(tags_checked));
        }
        self.stats.breakdown.offchip += demand.done.saturating_sub(tags_checked);
        self.stats.total_latency += demand.done.saturating_sub(access.now);
        AccessOutcome {
            complete: demand.done,
            hit: false,
            offchip_bytes,
            small_block: false,
        }
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn fault_target(&mut self) -> Option<&mut dyn FaultTarget> {
        Some(self)
    }

    fn finalize(&mut self) {
        let sub = u64::from(self.config.sub_block_bytes);
        let mut wasted = 0u64;
        for set in &self.sets {
            for p in set {
                wasted += u64::from((p.fetched & !p.referenced).count_ones()) * sub;
            }
        }
        self.stats.offchip_wasted_bytes += wasted;
    }

    fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        w.u8(1);
        self.sets.save(w);
        self.predictor.table.save(w);
        self.ledger.save(w);
        self.stats.save(w);
    }

    fn restore_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        crate::alloy::expect_stateful_marker(r, "FootprintCache")?;
        let sets: Vec<Vec<Page>> = Snapshot::load(r)?;
        if sets.len() != self.sets.len() {
            return Err(r.corrupt(format!(
                "checkpoint has {} page sets, configuration expects {}",
                sets.len(),
                self.sets.len()
            )));
        }
        let table: Vec<(u64, u32)> = Snapshot::load(r)?;
        if table.len() != self.predictor.table.len() {
            return Err(r.corrupt(format!(
                "footprint predictor has {} entries in checkpoint, {} configured",
                table.len(),
                self.predictor.table.len()
            )));
        }
        self.sets = sets;
        self.predictor.table = table;
        self.ledger = Snapshot::load(r)?;
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

bimodal_ckpt::snapshot_fields! { Page { tag, fetched, referenced, dirty } }

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (FootprintCache, MemorySystem) {
        (
            FootprintCache::with_capacity_mb(1),
            MemorySystem::quad_core(),
        )
    }

    #[test]
    fn miss_then_miss_then_hit_with_bypass() {
        let (mut c, mut mem) = cache();
        // Cold: bypassed. Reuse: allocated. Third touch: hit.
        let a = c.access(CacheAccess::read(0x9040, 0), &mut mem);
        assert!(!a.hit);
        let b = c.access(CacheAccess::read(0x9040, a.complete), &mut mem);
        assert!(!b.hit);
        let d = c.access(CacheAccess::read(0x9040, b.complete), &mut mem);
        assert!(d.hit);
    }

    #[test]
    fn miss_then_hit_without_bypass() {
        let mut config = FootprintConfig::for_cache_mb(1);
        config.single_use_bypass = false;
        let mut c = FootprintCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let a = c.access(CacheAccess::read(0x9040, 0), &mut mem);
        assert!(!a.hit);
        let b = c.access(CacheAccess::read(0x9040, a.complete), &mut mem);
        assert!(b.hit);
    }

    #[test]
    fn cold_page_without_history_bypasses_when_single_use() {
        let (mut c, mut mem) = cache();
        // No history: prediction is single line -> bypass.
        let a = c.access(CacheAccess::read(0x9040, 0), &mut mem);
        assert!(!a.hit);
        assert_eq!(c.stats().prefetch_bypasses, 1);
        // Nothing was allocated.
        let b = c.access(CacheAccess::read(0x9040, a.complete), &mut mem);
        assert!(!b.hit);
    }

    #[test]
    fn footprint_history_drives_multi_line_fetch() {
        let mut config = FootprintConfig::for_cache_mb(1);
        config.single_use_bypass = false;
        let mut c = FootprintCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        // First residency: touch 4 lines of page 0.
        for k in 0..4u64 {
            let r = c.access(CacheAccess::read(k * 64, now), &mut mem);
            now = r.complete;
        }
        // Evict page 0 by filling its set with conflicting pages.
        let stride = c.config.n_sets() * 2048;
        for k in 1..=4u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        // Re-touch page 0: the predictor recalls the 4-line footprint, so
        // the other 3 lines hit without further fetches.
        let fetched_before = c.stats().offchip_fetched_bytes;
        let r = c.access(CacheAccess::read(0, now), &mut mem);
        now = r.complete;
        assert_eq!(c.stats().offchip_fetched_bytes - fetched_before, 4 * 64);
        for k in 1..4u64 {
            let r = c.access(CacheAccess::read(k * 64, now), &mut mem);
            assert!(r.hit, "line {k} was in the predicted footprint");
            now = r.complete;
        }
    }

    #[test]
    fn unpredicted_sub_block_fetches_individually() {
        let mut config = FootprintConfig::for_cache_mb(1);
        config.single_use_bypass = false;
        let mut c = FootprintCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let a = c.access(CacheAccess::read(0x0, 0), &mut mem);
        // Line 5 of the same page was not predicted: sub-block miss.
        let b = c.access(CacheAccess::read(5 * 64, a.complete), &mut mem);
        assert!(!b.hit);
        // But it is resident now.
        let d = c.access(CacheAccess::read(5 * 64, b.complete), &mut mem);
        assert!(d.hit);
    }

    #[test]
    fn dirty_sub_blocks_write_back_on_eviction() {
        let mut config = FootprintConfig::for_cache_mb(1);
        config.single_use_bypass = false;
        let mut c = FootprintCache::new(config);
        let mut mem = MemorySystem::quad_core();
        let mut now = 0;
        let w = c.access(CacheAccess::write(0, now), &mut mem);
        now = w.complete;
        let stride = c.config.n_sets() * 2048;
        for k in 1..=4u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn tag_sram_latency_scales_with_capacity() {
        let small = FootprintCache::with_capacity_mb(1);
        let big = FootprintCache::with_capacity_mb(512);
        assert!(big.tag_sram_cycles() > small.tag_sram_cycles());
    }

    #[test]
    fn finalize_accounts_resident_waste() {
        let mut config = FootprintConfig::for_cache_mb(1);
        config.single_use_bypass = false;
        let mut c = FootprintCache::new(config);
        let mut mem = MemorySystem::quad_core();
        // Build 2-line history for page 0, then refetch it but touch only
        // one line.
        let mut now = 0;
        for k in 0..2u64 {
            let r = c.access(CacheAccess::read(k * 64, now), &mut mem);
            now = r.complete;
        }
        let stride = c.config.n_sets() * 2048;
        for k in 1..=4u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        let r = c.access(CacheAccess::read(0, now), &mut mem);
        let _ = r;
        let wasted_before = c.stats().offchip_wasted_bytes;
        c.finalize();
        assert!(c.stats().offchip_wasted_bytes > wasted_before);
    }
}
