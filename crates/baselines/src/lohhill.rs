//! Loh-Hill cache (MICRO 2011): 29-way sets embedded in DRAM rows.
//!
//! Each 2 KB DRAM row is one set: three 64 B blocks hold the tags
//! (metadata) of the remaining 29 data blocks. *Compound access
//! scheduling* keeps the row open across the tag read and the subsequent
//! data column access, so a hit costs one activation plus two column
//! accesses (tags, then data) on the same row.

use bimodal_core::{
    random_tag_xor, AccessKind, AccessOutcome, CacheAccess, ContentsDigest, DramCacheScheme,
    EccLedger, FaultTarget, MetadataFault, SchemeStats,
};
use bimodal_dram::{Cycle, DeferredOp, MemorySystem, Op, Request, RowEvent, TrafficClass};
use bimodal_obs::anatomy::{self, Component};
use bimodal_obs::span::{self, SpanId};
use bimodal_prng::SmallRng;

use crate::common::RowMapper;

/// Data ways per set (per 2 KB row): 32 slots minus 3 tag blocks.
const WAYS: usize = 29;
/// Bytes of tag metadata read per lookup (the paper reads the tag blocks
/// as column accesses after the activation; two bursts cover 29 tags).
const TAG_READ_BYTES: u32 = 128;

/// Configuration of a [`LohHillCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LohHillConfig {
    /// Total capacity in bytes devoted to the structure (rows).
    pub cache_bytes: u64,
    /// Block size (64 B).
    pub block_bytes: u32,
    /// Cycles to compare the 29 tags after the burst arrives.
    pub tag_compare_cycles: Cycle,
    /// Protect the in-row tag blocks with SECDED ECC: injected flips are
    /// ledgered and detected at the next tag read of the set instead of
    /// corrupting it, at the cost of a 12.5% wider tag burst.
    pub metadata_ecc: bool,
}

impl LohHillConfig {
    /// Paper-style configuration for `mb` megabytes.
    #[must_use]
    pub fn for_cache_mb(mb: u64) -> Self {
        LohHillConfig {
            cache_bytes: mb << 20,
            block_bytes: 64,
            tag_compare_cycles: 2,
            metadata_ecc: false,
        }
    }

    /// Enables or disables SECDED ECC over the tag blocks.
    #[must_use]
    pub fn with_metadata_ecc(mut self, ecc: bool) -> Self {
        self.metadata_ecc = ecc;
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// The Loh-Hill organization.
#[derive(Debug)]
pub struct LohHillCache {
    config: LohHillConfig,
    n_sets: u64,
    /// Per set: resident lines in LRU order (front = MRU).
    sets: Vec<Vec<Line>>,
    mapper: Option<RowMapper>,
    ledger: EccLedger,
    stats: SchemeStats,
}

impl LohHillCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete set.
    #[must_use]
    pub fn new(config: LohHillConfig) -> Self {
        let n_sets = config.cache_bytes / 2048;
        assert!(n_sets > 0, "capacity must hold at least one 2 KB set");
        LohHillCache {
            sets: vec![Vec::new(); usize::try_from(n_sets).expect("set count fits usize")],
            n_sets,
            mapper: None,
            ledger: EccLedger::new(),
            stats: SchemeStats::default(),
            config,
        }
    }

    /// Paper-style Loh-Hill cache of `mb` megabytes.
    #[must_use]
    pub fn with_capacity_mb(mb: u64) -> Self {
        LohHillCache::new(LohHillConfig::for_cache_mb(mb))
    }

    fn set_of(&self, addr: u64) -> u64 {
        (addr / u64::from(self.config.block_bytes)) % self.n_sets
    }

    fn tag_of(&self, addr: u64) -> u64 {
        (addr / u64::from(self.config.block_bytes)) / self.n_sets
    }

    fn line_addr(&self, tag: u64, set: u64) -> u64 {
        (tag * self.n_sets + set) * u64::from(self.config.block_bytes)
    }

    /// Bytes moved per tag lookup: SECDED check bits widen the two tag
    /// bursts by one byte per eight (128 B -> 144 B).
    fn tag_read_bytes(&self) -> u32 {
        if self.config.metadata_ecc {
            TAG_READ_BYTES + TAG_READ_BYTES.div_ceil(8)
        } else {
            TAG_READ_BYTES
        }
    }

    /// SECDED detection for every ledgered fault of `set_idx`: the tag
    /// read that just completed decoded the protected tag blocks.
    /// Single-bit flips are corrected in place; multi-bit flips are
    /// detected but uncorrectable, so the described line is dropped
    /// (dirty data written back first, like an eviction).
    fn scrub_set(
        &mut self,
        set_idx: u64,
        loc: bimodal_dram::Location,
        at: Cycle,
        mem: &mut MemorySystem,
    ) {
        for fault in self.ledger.drain_set(set_idx) {
            if fault.multi_bit {
                self.stats.ecc_detected_uncorrected += 1;
                let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
                if let Some(pos) = set.iter().position(|l| l.tag == fault.orig_tag) {
                    let line = set.remove(pos);
                    if line.dirty {
                        let bytes = self.config.block_bytes;
                        mem.defer(
                            at,
                            DeferredOp::MainWrite {
                                addr: self.line_addr(line.tag, set_idx),
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
            // Scrub write of one repaired tag block, off the critical path.
            mem.defer(
                at,
                DeferredOp::CacheWrite {
                    loc,
                    bytes: 64,
                    class: TrafficClass::Scrub,
                },
            );
        }
    }
}

impl FaultTarget for LohHillCache {
    fn inject_metadata_flip(
        &mut self,
        rng: &mut SmallRng,
        multi_bit: bool,
    ) -> Option<MetadataFault> {
        // Probe sets from a random start for a non-empty one.
        let n = usize::try_from(self.n_sets).expect("set count fits usize");
        let start = rng.gen_range(0..n);
        for probe in 0..n {
            let idx = (start + probe) % n;
            if self.sets[idx].is_empty() {
                continue;
            }
            let way = rng.gen_range(0..self.sets[idx].len());
            let xor = random_tag_xor(rng, multi_bit);
            let apply = !self.config.metadata_ecc;
            let line = &mut self.sets[idx][way];
            let (orig_tag, new_tag) = (line.tag, line.tag ^ xor);
            if apply {
                line.tag = new_tag;
            }
            let fault = MetadataFault {
                set: idx as u64,
                big: false,
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
        false // tags live in the row itself: no separate locator
    }

    fn inject_predictor_upset(&mut self, _rng: &mut SmallRng) -> bool {
        false // no predictor state
    }

    fn contents_digest(&self) -> u64 {
        let mut d = ContentsDigest::new();
        for (s, set) in self.sets.iter().enumerate() {
            for line in set {
                d.mix(s as u64);
                d.mix(line.tag);
                d.mix(u64::from(line.dirty));
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
                if let Some(pos) = set.iter().position(|l| l.tag == fault.orig_tag) {
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

impl DramCacheScheme for LohHillCache {
    fn name(&self) -> &str {
        "Loh-Hill"
    }

    fn access(&mut self, access: CacheAccess, mem: &mut MemorySystem) -> AccessOutcome {
        mem.drain_deferred(access.now);
        self.stats.accesses += 1;
        match access.kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
            AccessKind::Prefetch => self.stats.prefetches += 1,
        }
        let set_idx = self.set_of(access.addr);
        let tag = self.tag_of(access.addr);
        let op = if access.is_write() {
            Op::Write
        } else {
            Op::Read
        };
        let mapper = *self
            .mapper
            .get_or_insert_with(|| RowMapper::new(mem.cache_dram.config()));
        let loc = mapper.location(set_idx);

        // Compound access: activate the row, read the tag blocks. On a
        // fused tag+data substrate (TDRAM-style) the burst also carries
        // the candidate block, so a read hit needs no second access.
        let fused = mem.fused_tag_data();
        let tag_bytes = self.tag_read_bytes() + if fused { self.config.block_bytes } else { 0 };
        let span_tag = span::enter(SpanId::TagRead);
        mem.cache_dram.set_class(TrafficClass::MetadataRead);
        let tags = mem.cache_dram.access(Request {
            loc,
            bytes: tag_bytes,
            op: Op::Read,
            arrival: access.now,
        });
        self.stats.md_accesses += 1;
        if tags.row_event == RowEvent::Hit {
            self.stats.md_row_hits += 1;
        }
        let tags_checked = tags.done + self.config.tag_compare_cycles;
        span::add_cycles(SpanId::TagRead, tags_checked.saturating_sub(access.now));
        drop(span_tag);
        if anatomy::active() {
            // Every downstream path starts at tags_checked, so the probe
            // is unconditionally on the critical path.
            anatomy::charge_dram(Component::TagProbe);
            anatomy::add(Component::TagProbe, self.config.tag_compare_cycles);
        }
        if !self.ledger.is_empty() {
            // The tag read just decoded the protected blocks: SECDED scrub.
            self.scrub_set(set_idx, loc, tags.done, mem);
        }

        let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
        let hit_pos = set.iter().position(|l| l.tag == tag);

        let mut offchip_bytes = 0u64;
        let complete;
        let is_hit = hit_pos.is_some();
        if let Some(pos) = hit_pos {
            // Data column access on the still-open row.
            let line = set.remove(pos);
            set.insert(
                0,
                Line {
                    dirty: line.dirty || access.is_write(),
                    ..line
                },
            );
            complete = if fused && op == Op::Read {
                // Data rode the fused tag burst.
                if anatomy::active() {
                    anatomy::fused_saved(mem.cache_dram.column_cost(self.config.block_bytes));
                }
                tags_checked
            } else {
                mem.cache_dram.set_class(TrafficClass::DataHit);
                let data =
                    mem.cache_dram
                        .column_access(loc, self.config.block_bytes, op, tags_checked);
                self.stats.data_accesses += 1;
                if data.row_event == RowEvent::Hit {
                    self.stats.data_row_hits += 1;
                }
                if anatomy::active() {
                    anatomy::charge_dram(Component::DataBurst);
                }
                data.done
            };
            self.stats.hits += 1;
            self.stats.big_hits += 1;
            self.stats.breakdown.dram_tag += tags_checked.saturating_sub(access.now);
            self.stats.breakdown.dram_data += complete.saturating_sub(tags_checked);
        } else {
            let _span_fill = span::enter(SpanId::Fill);
            self.stats.misses += 1;
            let bytes = self.config.block_bytes;
            let base = access.addr & !u64::from(bytes - 1);
            mem.main.set_class(TrafficClass::MainMemRefill);
            let fetch = mem.main.read(base, bytes, tags_checked);
            self.stats.offchip_fetched_bytes += u64::from(bytes);
            offchip_bytes += u64::from(bytes);
            set.insert(
                0,
                Line {
                    tag,
                    dirty: access.is_write(),
                },
            );
            if set.len() > WAYS {
                let victim = set.pop().expect("set overflowed");
                self.stats.evictions += 1;
                if victim.dirty {
                    let _g = span::enter(SpanId::Writeback);
                    let victim_addr = self.line_addr(victim.tag, set_idx);
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
            self.stats.fills_big += 1;
            // Fill + tag update on the row, off the critical path.
            mem.defer(
                fetch.done,
                DeferredOp::CacheWrite {
                    loc,
                    bytes,
                    class: TrafficClass::DataFill,
                },
            );
            mem.defer(
                fetch.done,
                DeferredOp::CacheWrite {
                    loc,
                    bytes: 64,
                    class: TrafficClass::MetadataWrite,
                },
            );
            complete = fetch.done;
            if anatomy::active() {
                let _ = anatomy::take_dram();
                anatomy::add(Component::OffChip, complete.saturating_sub(tags_checked));
            }
            span::add_cycles(SpanId::Fill, complete.saturating_sub(tags_checked));
            self.stats.breakdown.dram_tag += tags_checked.saturating_sub(access.now);
            self.stats.breakdown.offchip += complete.saturating_sub(tags_checked);
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
        self.sets.save(w);
        self.ledger.save(w);
        self.stats.save(w);
    }

    fn restore_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        crate::alloy::expect_stateful_marker(r, "LohHillCache")?;
        let sets: Vec<Vec<Line>> = Snapshot::load(r)?;
        if sets.len() != self.sets.len() {
            return Err(r.corrupt(format!(
                "checkpoint has {} sets, configuration expects {}",
                sets.len(),
                self.sets.len()
            )));
        }
        self.sets = sets;
        self.ledger = Snapshot::load(r)?;
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

bimodal_ckpt::snapshot_fields! { Line { tag, dirty } }

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> (LohHillCache, MemorySystem) {
        (LohHillCache::with_capacity_mb(1), MemorySystem::quad_core())
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x9000, 0), &mut mem);
        assert!(!a.hit);
        let b = c.access(CacheAccess::read(0x9000, a.complete), &mut mem);
        assert!(b.hit);
    }

    #[test]
    fn hit_needs_tag_then_data_on_one_row() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x9000, 0), &mut mem);
        let b = c.access(CacheAccess::read(0x9000, a.complete + 10), &mut mem);
        // Both column accesses hit the open row.
        assert!(b.hit);
        assert!(c.stats().md_row_hits >= 1);
        assert!(c.stats().data_row_hits >= 1);
    }

    #[test]
    fn twenty_nine_way_associativity() {
        let (mut c, mut mem) = cache();
        let stride = c.n_sets * 64;
        let mut now = 0;
        // Fill 29 conflicting lines; all must be resident afterwards.
        for k in 0..29u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        for k in 0..29u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            assert!(r.hit, "way {k} should be resident");
            now = r.complete;
        }
        // The 30th conflicting line evicts the LRU.
        let r = c.access(CacheAccess::read(29 * stride, now), &mut mem);
        assert!(!r.hit);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let (mut c, mut mem) = cache();
        let stride = c.n_sets * 64;
        let mut now = 0;
        for k in 0..30u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        // Line 0 was LRU and evicted; line 1 survives.
        let r0 = c.access(CacheAccess::read(0, now), &mut mem);
        assert!(!r0.hit);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut c, mut mem) = cache();
        let stride = c.n_sets * 64;
        let mut now = 0;
        let w = c.access(CacheAccess::write(0, now), &mut mem);
        now = w.complete;
        for k in 1..=29u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        assert_eq!(c.stats().writebacks, 1);
    }
}
