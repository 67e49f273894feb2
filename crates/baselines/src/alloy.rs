//! AlloyCache (Qureshi & Loh, MICRO 2012) — the paper's baseline.
//!
//! A direct-mapped, 64 B-block DRAM cache that *alloys* each tag with its
//! data into an 80-bit-wide TAD (tag-and-data) unit, read in one slightly
//! larger DRAM burst (72 B), so a hit needs exactly one DRAM access. A
//! memory-access predictor (MAP) guesses hit or miss before the cache is
//! probed: predicted misses overlap the cache probe with the off-chip
//! fetch; predicted hits probe the cache first and pay a serialization
//! penalty only when wrong.
//!
//! **Substitution note:** the original MAP-I indexes its counter table
//! with the *instruction address* of the miss-causing load. Our traces
//! carry no program counters, so the predictor ([`MissPredictor`], shared
//! with the Bi-Modal cache's optional predictor) indexes with the memory
//! region address instead (a MAP-G-style variant from the same paper);
//! both converge to the same steady-state behaviour for region-stable
//! hit/miss patterns. See DESIGN.md.

use bimodal_core::{
    random_tag_xor, AccessKind, AccessOutcome, CacheAccess, ContentsDigest, DramCacheScheme,
    EccLedger, FaultTarget, MetadataFault, MissPredictor, SchemeStats,
};
use bimodal_dram::{Cycle, DeferredOp, MemorySystem, Op, Request, TrafficClass};
use bimodal_obs::anatomy::{self, Component};
use bimodal_obs::span::{self, SpanId};
use bimodal_prng::SmallRng;

use crate::common::RowMapper;

/// Size of a TAD (tag-and-data) unit transferred per access.
const TAD_BYTES: u32 = 72;
/// TADs per 2 KB DRAM row (Section II-B cites 28-29 with metadata).
const TADS_PER_ROW: u64 = 28;

/// Configuration of an [`AlloyCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlloyConfig {
    /// Data capacity in bytes (tag overhead comes on top, inside the rows).
    pub cache_bytes: u64,
    /// Block (and LLSC line) size; the design requires 64 B.
    pub block_bytes: u32,
    /// Cycles to compare the tag after the TAD burst arrives.
    pub tag_compare_cycles: Cycle,
    /// Whether the MAP predictor is used (the paper's baseline uses it).
    pub use_predictor: bool,
    /// Protect each TAD's tag with SECDED ECC: injected flips are
    /// ledgered and detected at the next probe of the entry instead of
    /// corrupting it, at the cost of a 12.5% wider TAD burst.
    pub metadata_ecc: bool,
}

impl AlloyConfig {
    /// Paper-default configuration for `mb` megabytes.
    #[must_use]
    pub fn for_cache_mb(mb: u64) -> Self {
        AlloyConfig {
            cache_bytes: mb << 20,
            block_bytes: 64,
            tag_compare_cycles: 1,
            use_predictor: true,
            metadata_ecc: false,
        }
    }

    /// Enables or disables SECDED ECC over the TAD tags.
    #[must_use]
    pub fn with_metadata_ecc(mut self, ecc: bool) -> Self {
        self.metadata_ecc = ecc;
        self
    }
}

/// One TAD's tag and dirty bit. The cache stores each entry packed into
/// one `u64` (see [`TadEntry::pack`]); checkpoints keep the
/// `Option<TadEntry>` layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TadEntry {
    tag: u64,
    dirty: bool,
}

impl TadEntry {
    /// The largest tag an entry stores. Packing needs `tag + 1 < 2^63`;
    /// this bound keeps one more bit spare, so an injected flip of a
    /// stored tag's low bits is storable too. Tags of real addresses are
    /// below 2^58.
    const MAX_TAG: u64 = u64::MAX >> 2;

    /// The stored word: 0 for an empty slot, otherwise
    /// `((tag + 1) << 1) | dirty`.
    fn pack(entry: Option<TadEntry>) -> u64 {
        entry.map_or(0, |e| {
            assert!(e.tag <= Self::MAX_TAG, "tag {:#x} is unstorable", e.tag);
            ((e.tag + 1) << 1) | u64::from(e.dirty)
        })
    }

    /// Decodes a word written by [`TadEntry::pack`].
    fn unpack(word: u64) -> Option<TadEntry> {
        (word != 0).then(|| TadEntry {
            tag: (word >> 1) - 1,
            dirty: word & 1 != 0,
        })
    }
}

/// The AlloyCache organization.
#[derive(Debug)]
pub struct AlloyCache {
    config: AlloyConfig,
    n_blocks: u64,
    /// One packed [`TadEntry`] per block slot; all zeros is an empty cache.
    entries: Vec<u64>,
    predictor: MissPredictor,
    mapper: Option<RowMapper>,
    ledger: EccLedger,
    stats: SchemeStats,
}

impl AlloyCache {
    /// Builds an AlloyCache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a multiple of the block size.
    #[must_use]
    pub fn new(config: AlloyConfig) -> Self {
        assert!(
            config
                .cache_bytes
                .is_multiple_of(u64::from(config.block_bytes)),
            "capacity must be a whole number of blocks"
        );
        let n_blocks = config.cache_bytes / u64::from(config.block_bytes);
        AlloyCache {
            entries: vec![0; usize::try_from(n_blocks).expect("block count fits usize")],
            n_blocks,
            predictor: MissPredictor::new(),
            mapper: None,
            ledger: EccLedger::new(),
            stats: SchemeStats::default(),
            config,
        }
    }

    /// Paper-default AlloyCache of `mb` megabytes.
    #[must_use]
    pub fn with_capacity_mb(mb: u64) -> Self {
        AlloyCache::new(AlloyConfig::for_cache_mb(mb))
    }

    /// The hit/miss predictor.
    #[must_use]
    pub fn predictor(&self) -> &MissPredictor {
        &self.predictor
    }

    fn index_of(&self, addr: u64) -> u64 {
        (addr / u64::from(self.config.block_bytes)) % self.n_blocks
    }

    fn tag_of(&self, addr: u64) -> u64 {
        (addr / u64::from(self.config.block_bytes)) / self.n_blocks
    }

    fn block_addr(&self, tag: u64, index: u64) -> u64 {
        (tag * self.n_blocks + index) * u64::from(self.config.block_bytes)
    }

    fn tad_location(&mut self, index: u64, mem: &MemorySystem) -> bimodal_dram::Location {
        let mapper = *self
            .mapper
            .get_or_insert_with(|| RowMapper::new(mem.cache_dram.config()));
        mapper.location(index / TADS_PER_ROW)
    }

    /// Bytes moved per TAD access: SECDED check bits widen the burst by
    /// one byte per eight (72 B -> 81 B).
    fn tad_bytes(&self) -> u32 {
        if self.config.metadata_ecc {
            TAD_BYTES + TAD_BYTES.div_ceil(8)
        } else {
            TAD_BYTES
        }
    }

    /// Issues the TAD probe for `index` and returns its completion.
    fn probe_tad(
        &mut self,
        index: u64,
        op: Op,
        at: Cycle,
        mem: &mut MemorySystem,
    ) -> bimodal_dram::Completion {
        let loc = self.tad_location(index, mem);
        mem.cache_dram.set_class(TrafficClass::TagProbe);
        let comp = mem.cache_dram.access(Request {
            loc,
            bytes: self.tad_bytes(),
            op,
            arrival: at,
        });
        self.stats.data_accesses += 1;
        if comp.row_event == bimodal_dram::RowEvent::Hit {
            self.stats.data_row_hits += 1;
        }
        comp
    }

    /// SECDED detection for every ledgered fault of `index`: the TAD
    /// probe that just completed decoded the protected entry. Single-bit
    /// flips are corrected in place; multi-bit flips are detected but
    /// uncorrectable, so the entry is dropped (the data block it
    /// described became unreachable — dirty data is written back first,
    /// exactly as an eviction would).
    fn scrub_index(&mut self, index: u64, at: Cycle, mem: &mut MemorySystem) {
        for fault in self.ledger.drain_set(index) {
            if fault.multi_bit {
                self.stats.ecc_detected_uncorrected += 1;
                let slot = usize::try_from(fault.set).expect("index fits usize");
                let entry = TadEntry::unpack(self.entries[slot]);
                if let Some(entry) = entry.filter(|e| e.tag == fault.orig_tag) {
                    self.entries[slot] = 0;
                    if entry.dirty {
                        let bytes = self.config.block_bytes;
                        mem.defer(
                            at,
                            DeferredOp::MainWrite {
                                addr: self.block_addr(entry.tag, fault.set),
                                bytes,
                                class: TrafficClass::Writeback,
                            },
                        );
                        self.stats.writebacks += 1;
                        self.stats.offchip_writeback_bytes += u64::from(bytes);
                    }
                }
            } else {
                self.stats.ecc_corrected += 1;
            }
            // Scrub write of the repaired TAD, off the critical path.
            let bytes = self.tad_bytes();
            let loc = self.tad_location(fault.set, mem);
            mem.defer(
                at,
                DeferredOp::CacheWrite {
                    loc,
                    bytes,
                    class: TrafficClass::Scrub,
                },
            );
        }
    }
}

impl FaultTarget for AlloyCache {
    fn inject_metadata_flip(
        &mut self,
        rng: &mut SmallRng,
        multi_bit: bool,
    ) -> Option<MetadataFault> {
        // Probe TAD slots from a random start for a resident entry; a
        // warmed cache finds one immediately.
        let n = self.entries.len();
        let start = rng.gen_range(0..n);
        for probe in 0..n {
            let idx = (start + probe) % n;
            let Some(entry) = TadEntry::unpack(self.entries[idx]) else {
                continue;
            };
            let xor = random_tag_xor(rng, multi_bit);
            let apply = !self.config.metadata_ecc;
            let (orig_tag, new_tag) = (entry.tag, entry.tag ^ xor);
            if apply {
                self.entries[idx] = TadEntry::pack(Some(TadEntry {
                    tag: new_tag,
                    ..entry
                }));
            }
            let fault = MetadataFault {
                set: idx as u64,
                big: false,
                way: 0,
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
        false // direct-mapped: no way locator to disturb
    }

    fn inject_predictor_upset(&mut self, rng: &mut SmallRng) -> bool {
        if !self.config.use_predictor {
            return false;
        }
        self.predictor.upset_counter(rng);
        true
    }

    fn contents_digest(&self) -> u64 {
        let mut d = ContentsDigest::new();
        for (i, &word) in self.entries.iter().enumerate() {
            if let Some(e) = TadEntry::unpack(word) {
                d.mix(i as u64);
                d.mix(e.tag);
                d.mix(u64::from(e.dirty));
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
                // End-of-campaign accounting scrub: just drop the entry.
                let slot = usize::try_from(fault.set).expect("index fits usize");
                if TadEntry::unpack(self.entries[slot]).is_some_and(|e| e.tag == fault.orig_tag) {
                    self.entries[slot] = 0;
                }
            } else {
                corrected += 1;
                self.stats.ecc_corrected += 1;
            }
        }
        (corrected, uncorrected)
    }
}

impl DramCacheScheme for AlloyCache {
    fn name(&self) -> &str {
        "AlloyCache"
    }

    fn access(&mut self, access: CacheAccess, mem: &mut MemorySystem) -> AccessOutcome {
        mem.drain_deferred(access.now);
        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
            AccessKind::Prefetch => self.stats.prefetches += 1,
        }
        let index = self.index_of(access.addr);
        let tag = self.tag_of(access.addr);
        let op = if access.is_write() {
            Op::Write
        } else {
            Op::Read
        };
        let predicted_hit = !self.config.use_predictor || {
            let _g = span::enter(SpanId::PredictorLookup);
            self.predictor.predict_hit(access.addr)
        };

        // The TAD probe always happens (it is both tag check and data).
        let span_tag = span::enter(SpanId::TagRead);
        let tad = self.probe_tad(index, Op::Read, access.now, mem);
        let tag_known = tad.done + self.config.tag_compare_cycles;
        span::add_cycles(SpanId::TagRead, tag_known.saturating_sub(access.now));
        drop(span_tag);
        if anatomy::active() {
            // The TAD probe is tag check and data in one burst; every
            // path completes no earlier than tag_known, so it is always
            // on the critical path.
            anatomy::charge_dram(Component::TagProbe);
            anatomy::add(Component::TagProbe, self.config.tag_compare_cycles);
        }
        if !self.ledger.is_empty() {
            // The probe just decoded the protected TAD: SECDED scrub.
            self.scrub_index(index, tad.done, mem);
        }
        let slot = usize::try_from(index).expect("index fits");
        let entry = TadEntry::unpack(self.entries[slot]);
        let is_hit = entry.is_some_and(|e| e.tag == tag);

        let mut offchip_bytes = 0u64;
        let complete;
        if is_hit {
            if !predicted_hit && self.config.use_predictor {
                // Predicted miss: a useless off-chip fetch was launched in
                // parallel (wasted bandwidth, but no extra latency).
                let bytes = self.config.block_bytes;
                mem.main
                    .read(access.addr & !u64::from(bytes - 1), bytes, access.now);
                if anatomy::active() {
                    // The wasted fetch is off the critical path.
                    let _ = anatomy::take_dram();
                }
                self.stats.offchip_fetched_bytes += u64::from(bytes);
                self.stats.offchip_wasted_bytes += u64::from(bytes);
                offchip_bytes += u64::from(bytes);
            }
            self.stats.hits += 1;
            self.stats.big_hits += 1;
            if access.is_write() {
                self.entries[slot] = TadEntry::pack(Some(TadEntry { tag, dirty: true }));
                // The dirty TAD is rewritten in place, off the critical path.
                let bytes = self.tad_bytes();
                let loc = self.tad_location(index, mem);
                mem.defer(
                    tag_known,
                    DeferredOp::CacheWrite {
                        loc,
                        bytes,
                        class: TrafficClass::MetadataWrite,
                    },
                );
            }
            complete = tag_known;
            self.stats.breakdown.dram_data += complete.saturating_sub(access.now);
        } else {
            let _span_fill = span::enter(SpanId::Fill);
            self.stats.misses += 1;
            let bytes = self.config.block_bytes;
            let base = access.addr & !u64::from(bytes - 1);
            // Predicted miss overlaps the fetch with the probe; predicted
            // hit pays the serialization.
            let fetch_start = if predicted_hit { tag_known } else { access.now };
            mem.main.set_class(TrafficClass::MainMemRefill);
            let fetch = mem.main.read(base, bytes, fetch_start);
            self.stats.offchip_fetched_bytes += u64::from(bytes);
            offchip_bytes += u64::from(bytes);
            // Evict the old entry, writing back dirty data.
            if let Some(old) = entry {
                self.stats.evictions += 1;
                if old.dirty {
                    let _g = span::enter(SpanId::Writeback);
                    let victim_addr = self.block_addr(old.tag, index);
                    mem.defer(
                        fetch.done,
                        DeferredOp::MainWrite {
                            addr: victim_addr,
                            bytes,
                            class: TrafficClass::Writeback,
                        },
                    );
                    self.stats.writebacks += 1;
                    self.stats.offchip_writeback_bytes += u64::from(bytes);
                    offchip_bytes += u64::from(bytes);
                }
            }
            self.entries[slot] = TadEntry::pack(Some(TadEntry {
                tag,
                dirty: access.is_write(),
            }));
            self.stats.fills_big += 1;
            // Fill the TAD (write, off the critical path).
            let tad_w = self.tad_bytes();
            let loc = self.tad_location(index, mem);
            mem.defer(
                fetch.done,
                DeferredOp::CacheWrite {
                    loc,
                    bytes: tad_w,
                    class: TrafficClass::DataFill,
                },
            );
            let _ = op;
            complete = fetch.done.max(tag_known);
            if anatomy::active() {
                let _ = anatomy::take_dram();
                anatomy::add(Component::OffChip, complete.saturating_sub(tag_known));
            }
            span::add_cycles(SpanId::Fill, complete.saturating_sub(tag_known));
            self.stats.breakdown.dram_data += tag_known.saturating_sub(access.now);
            self.stats.breakdown.offchip += complete.saturating_sub(tag_known);
        }

        if self.config.use_predictor {
            self.predictor.update(access.addr, is_hit);
        }
        self.stats.total_latency += complete.saturating_sub(access.now);
        AccessOutcome {
            complete,
            hit: is_hit,
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

    fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        w.u8(1);
        // The `Vec<Option<TadEntry>>` layout.
        w.usize(self.entries.len());
        for &word in &self.entries {
            TadEntry::unpack(word).save(w);
        }
        self.predictor.save_state(w);
        self.ledger.save(w);
        self.stats.save(w);
    }

    fn restore_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        expect_stateful_marker(r, "AlloyCache")?;
        let n = r.bounded_len()?;
        if n != self.entries.len() {
            return Err(r.corrupt(format!(
                "checkpoint has {n} TAD entries, configuration expects {}",
                self.entries.len()
            )));
        }
        let mut entries = vec![0; n];
        for (slot, word) in entries.iter_mut().enumerate() {
            let entry: Option<TadEntry> = Snapshot::load(r)?;
            if let Some(e) = entry.filter(|e| e.tag > TadEntry::MAX_TAG) {
                return Err(r.corrupt(format!(
                    "TAD slot {slot} holds tag {:#x}, above the largest storable tag {:#x}",
                    e.tag,
                    TadEntry::MAX_TAG
                )));
            }
            *word = TadEntry::pack(entry);
        }
        self.entries = entries;
        self.predictor.load_state(r)?;
        self.ledger = Snapshot::load(r)?;
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

bimodal_ckpt::snapshot_fields! { TadEntry { tag, dirty } }

/// Shared check for the leading marker byte every stateful baseline writes.
pub(crate) fn expect_stateful_marker(
    r: &mut bimodal_ckpt::SnapshotReader<'_>,
    scheme: &str,
) -> Result<(), bimodal_ckpt::CkptError> {
    match r.u8()? {
        1 => Ok(()),
        b => Err(r.corrupt(format!("{scheme} expects stateful marker 1, found {b}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (AlloyCache, MemorySystem) {
        (AlloyCache::with_capacity_mb(1), MemorySystem::quad_core())
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x4000, 0), &mut mem);
        assert!(!a.hit);
        assert_eq!(a.offchip_bytes, 64);
        let b = c.access(CacheAccess::read(0x4000, a.complete), &mut mem);
        assert!(b.hit);
        assert_eq!(b.offchip_bytes, 0);
    }

    #[test]
    fn no_spatial_locality_beyond_64b() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x4000, 0), &mut mem);
        // The adjacent 64 B line misses: AlloyCache fetches only 64 B.
        let b = c.access(CacheAccess::read(0x4040, a.complete), &mut mem);
        assert!(!b.hit);
    }

    #[test]
    fn direct_mapping_conflicts() {
        let (mut c, mut mem) = cache();
        let stride = c.n_blocks * 64;
        let a = c.access(CacheAccess::read(0x1000, 0), &mut mem);
        let b = c.access(CacheAccess::read(0x1000 + stride, a.complete), &mut mem);
        assert!(!b.hit);
        // The original block was evicted by the conflicting fill.
        let again = c.access(CacheAccess::read(0x1000, b.complete), &mut mem);
        assert!(!again.hit);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut c, mut mem) = cache();
        let stride = c.n_blocks * 64;
        let w = c.access(CacheAccess::write(0x2000, 0), &mut mem);
        let _ = c.access(CacheAccess::read(0x2000 + stride, w.complete), &mut mem);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().offchip_writeback_bytes, 64);
    }

    #[test]
    fn predictor_learns_miss_streams() {
        let mut p = MissPredictor::new();
        for _ in 0..4 {
            p.update(0x4_0000, false);
        }
        assert!(!p.predict_hit(0x4_0000));
        for _ in 0..4 {
            p.update(0x4_0000, true);
        }
        assert!(p.predict_hit(0x4_0000));
        assert!(p.accuracy() > 0.0);
    }

    #[test]
    fn predicted_miss_wastes_fetch_on_actual_hit() {
        let (mut c, mut mem) = cache();
        // Prime the predictor to say miss for this region.
        for k in 0..8u64 {
            let _ = c.access(CacheAccess::read(0x10_0000 + k * 64, k * 10_000), &mut mem);
        }
        // Now access a line that *is* resident while prediction says miss.
        let wasted_before = c.stats().offchip_wasted_bytes;
        let r = c.access(CacheAccess::read(0x10_0000, 1_000_000), &mut mem);
        assert!(r.hit);
        assert!(c.stats().offchip_wasted_bytes > wasted_before);
    }

    #[test]
    fn without_predictor_misses_are_serialized() {
        let mut config = AlloyConfig::for_cache_mb(1);
        config.use_predictor = false;
        let mut c = AlloyCache::new(config);
        let mut stacked = bimodal_dram::DramConfig::stacked(2, 8);
        stacked.timing = stacked.timing.without_refresh();
        let mut offchip = bimodal_dram::DramConfig::ddr3(1, 2);
        offchip.timing = offchip.timing.without_refresh();
        let mut mem = MemorySystem::new(stacked, offchip);
        // Without MAP, a miss probes the TAD first and only then fetches:
        // the latency must exceed the bare off-chip fetch.
        let probe_floor = mem.cache_dram.config().timing.row_empty_latency();
        let a = c.access(CacheAccess::read(0x5000, 0), &mut mem);
        assert!(!a.hit);
        assert!(
            a.complete > probe_floor + 20,
            "serialized miss: {}",
            a.complete
        );
        assert_eq!(
            c.stats().offchip_wasted_bytes,
            0,
            "no speculation, no waste"
        );
    }

    #[test]
    fn packed_entries_round_trip() {
        assert_eq!(TadEntry::pack(None), 0);
        assert_eq!(TadEntry::unpack(0), None);
        for tag in [0, 1, 0x1234_5678, TadEntry::MAX_TAG - 1, TadEntry::MAX_TAG] {
            for dirty in [false, true] {
                let e = TadEntry { tag, dirty };
                let word = TadEntry::pack(Some(e));
                assert_ne!(word, 0, "a resident entry never reads as empty");
                assert_eq!(TadEntry::unpack(word), Some(e));
            }
        }
        // An injected 20-bit flip of the largest tag still packs.
        let flipped = TadEntry::MAX_TAG ^ ((1 << 20) - 1);
        assert!(flipped <= TadEntry::MAX_TAG);
    }

    fn state_bytes(c: &AlloyCache) -> Vec<u8> {
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        c.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_keeps_the_option_entry_layout() {
        use bimodal_ckpt::Snapshot;
        let (mut c, mut mem) = cache();
        // A dirty entry with tag 0, a clean one with tag 3 and a clean one
        // with the largest storable tag.
        let w = c.access(CacheAccess::write(0x2000, 0), &mut mem);
        let tag3 = 0x4000 + c.n_blocks * 64 * 3;
        let _ = c.access(CacheAccess::read(tag3, w.complete), &mut mem);
        let last = c.entries.len() - 1;
        c.entries[last] = TadEntry::pack(Some(TadEntry {
            tag: TadEntry::MAX_TAG,
            dirty: false,
        }));

        // The same bytes the `Vec<Option<TadEntry>>` field wrote.
        let mut old = vec![None; c.entries.len()];
        old[0x2000 / 64] = Some(TadEntry {
            tag: 0,
            dirty: true,
        });
        old[0x4000 / 64] = Some(TadEntry {
            tag: 3,
            dirty: false,
        });
        old[last] = Some(TadEntry {
            tag: TadEntry::MAX_TAG,
            dirty: false,
        });
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        w.u8(1);
        old.save(&mut w);
        c.predictor.save_state(&mut w);
        c.ledger.save(&mut w);
        c.stats.save(&mut w);
        let expected = w.into_bytes();
        assert_eq!(state_bytes(&c), expected);

        let (mut d, _) = cache();
        let mut r = bimodal_ckpt::SnapshotReader::new(&expected, "scheme");
        d.restore_state(&mut r).expect("restore");
        assert!(r.is_exhausted());
        assert_eq!(d.entries, c.entries);
        assert_eq!(state_bytes(&d), expected);
    }

    #[test]
    fn restore_rejects_unstorable_tags() {
        use bimodal_ckpt::Snapshot;
        let (c, _) = cache();
        for tag in [TadEntry::MAX_TAG + 1, u64::MAX] {
            let mut entries = vec![None; c.entries.len()];
            entries[7] = Some(TadEntry { tag, dirty: true });
            let mut w = bimodal_ckpt::SnapshotWriter::new();
            w.u8(1);
            entries.save(&mut w);
            c.predictor.save_state(&mut w);
            c.ledger.save(&mut w);
            c.stats.save(&mut w);
            let bytes = w.into_bytes();
            let (mut d, _) = cache();
            let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "scheme");
            match d.restore_state(&mut r) {
                Err(bimodal_ckpt::CkptError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("TAD slot 7"), "{detail}");
                }
                other => panic!("expected a Corrupt error naming slot 7, got {other:?}"),
            }
            assert!(
                d.entries.iter().all(|&w| w == 0),
                "a failed restore keeps the old entries"
            );
        }
    }

    #[test]
    fn hit_latency_is_one_dram_access() {
        // Refresh-free memory so the bound is exact.
        let mut stacked = bimodal_dram::DramConfig::stacked(2, 8);
        stacked.timing = stacked.timing.without_refresh();
        let mut offchip = bimodal_dram::DramConfig::ddr3(1, 2);
        offchip.timing = offchip.timing.without_refresh();
        let mut mem = MemorySystem::new(stacked, offchip);
        let mut c = AlloyCache::with_capacity_mb(1);
        let a = c.access(CacheAccess::read(0x4000, 0), &mut mem);
        let b = c.access(CacheAccess::read(0x4000, a.complete + 50_000), &mut mem);
        // Row miss worst case: PRE + ACT + CAS + burst + compare.
        let t = mem.cache_dram.config().timing;
        let burst = mem.cache_dram.config().burst_cycles(TAD_BYTES);
        assert!(b.complete - (a.complete + 50_000) <= t.rp + t.rcd + t.cl + burst + 1);
    }
}
