//! ATCache (Huang & Nagarajan, PACT 2014): tags-in-DRAM with an SRAM tag
//! cache.
//!
//! The DRAM organization is Loh-Hill-style (tags co-located with data in
//! the set's row, 64 B blocks, 16-way sets), but the tags of recently
//! accessed sets are cached in a small SRAM *tag cache*. A tag-cache hit
//! answers the tag check in SRAM and needs a single DRAM access for data;
//! a tag-cache miss reads the tags from DRAM first (like Loh-Hill) and
//! refills the tag cache, prefetching the tags of `PG` neighbouring sets
//! (the paper and our reproduction use `PG = 8`).
//!
//! **Modelling note:** in the original design the tags of a PG-group share
//! a DRAM row, so the group prefetch costs one extra burst. Our layout
//! keeps one set per row, so the group prefetch is modelled as one extra
//! 64 B tag burst on the accessed row — same timing, same warming effect.

use bimodal_core::{
    random_tag_xor, AccessKind, AccessOutcome, CacheAccess, ContentsDigest, DramCacheScheme,
    EccLedger, FaultTarget, MetadataFault, SchemeStats, SramModel,
};
use bimodal_dram::{Cycle, DeferredOp, MemorySystem, Op, Request, RowEvent, TrafficClass};
use bimodal_obs::anatomy::{self, Component};
use bimodal_obs::span::{self, SpanId};
use bimodal_prng::SmallRng;

use crate::common::RowMapper;

/// Ways per set.
const WAYS: usize = 16;
/// Bytes read for a DRAM tag lookup (16 tags in one burst).
const TAG_READ_BYTES: u32 = 64;

/// Configuration of an [`AtCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtCacheConfig {
    /// Capacity in bytes.
    pub cache_bytes: u64,
    /// Block size (64 B).
    pub block_bytes: u32,
    /// Number of sets whose tags the SRAM tag cache can hold.
    pub tag_cache_sets: usize,
    /// Tag-prefetch group size `PG`.
    pub prefetch_group: u64,
    /// Cycles to compare tags after they arrive.
    pub tag_compare_cycles: Cycle,
    /// Protect the DRAM tag blocks with SECDED ECC: injected flips are
    /// ledgered and detected at the next DRAM tag read of the set instead
    /// of corrupting it, at the cost of a 12.5% wider tag burst. The SRAM
    /// tag cache is parity-protected: a locator upset invalidates the
    /// entry, and the next access re-reads the tags from DRAM.
    pub metadata_ecc: bool,
}

impl AtCacheConfig {
    /// Paper-style configuration for `mb` megabytes: 4 K-set tag cache
    /// (~64 KB of SRAM) and `PG = 8`.
    #[must_use]
    pub fn for_cache_mb(mb: u64) -> Self {
        AtCacheConfig {
            cache_bytes: mb << 20,
            block_bytes: 64,
            tag_cache_sets: 4096,
            prefetch_group: 8,
            tag_compare_cycles: 1,
            metadata_ecc: false,
        }
    }

    /// Enables or disables SECDED ECC over the DRAM tag blocks.
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

/// End of the tag cache's recency list.
const NIL: u32 = u32::MAX;

/// One tag-cache entry: a cached set and its recency-list neighbours.
#[derive(Debug, Clone, Copy)]
struct Node {
    set: u64,
    /// Neighbour towards MRU, or [`NIL`].
    prev: u32,
    /// Neighbour towards LRU, or [`NIL`].
    next: u32,
}

/// The sets whose tags the SRAM tag cache holds, most recently used first.
///
/// A doubly-linked recency list over a fixed slab of nodes (head = MRU),
/// beside a dense per-set index, so probing a set, moving it to MRU,
/// pushing a set at MRU and evicting at LRU all take constant time at any
/// tag-cache size.
#[derive(Debug)]
struct TagCache {
    n_sets: u64,
    /// Entries kept once a group fill has evicted.
    capacity: usize,
    /// Prefetch group size `PG`.
    group: u64,
    /// Per cache set: its slab slot plus one, or 0 when not cached.
    index: Vec<u32>,
    /// `capacity + group` nodes: a fill pushes the whole group before it
    /// evicts.
    nodes: Vec<Node>,
    /// Unused slab slots.
    free: Vec<u32>,
    /// MRU slot, or [`NIL`] when empty.
    head: u32,
    /// LRU slot, or [`NIL`] when empty.
    tail: u32,
    len: usize,
}

impl TagCache {
    /// An empty tag cache of `capacity` entries over `n_sets` cache sets,
    /// filled in prefetch groups of `group` sets.
    fn new(n_sets: u64, capacity: usize, group: u64) -> Self {
        let slots = usize::try_from(group)
            .ok()
            .and_then(|g| capacity.checked_add(g))
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n < NIL)
            .expect("tag cache slab fits u32 links");
        let empty = Node {
            set: 0,
            prev: NIL,
            next: NIL,
        };
        TagCache {
            n_sets,
            capacity,
            group,
            index: vec![0; usize::try_from(n_sets).expect("set count fits usize")],
            nodes: vec![empty; slots as usize],
            free: (0..slots).rev().collect(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The slab slot holding `set`, if it is cached.
    fn slot(&self, set: u64) -> Option<u32> {
        self.index[usize::try_from(set).expect("set fits usize")].checked_sub(1)
    }

    /// Probes for `set`; a hit moves it to MRU.
    fn touch(&mut self, set: u64) -> bool {
        let Some(slot) = self.slot(set) else {
            return false;
        };
        if slot != self.head {
            self.unlink(slot);
            self.link_mru(slot);
        }
        true
    }

    /// Caches `set`'s prefetch group: pushes each absent set of the group
    /// at MRU in ascending order (sets already cached keep their place),
    /// then evicts from the LRU end down to capacity.
    fn fill_group(&mut self, set: u64) {
        let base = set / self.group * self.group;
        for s in base..(base + self.group).min(self.n_sets) {
            if self.slot(s).is_none() {
                self.push_mru(s);
            }
        }
        while self.len > self.capacity {
            self.remove(self.tail);
        }
    }

    /// Removes the entry `rank` places from MRU (rank 0 is MRU). Walks
    /// the list, which only fault injection needs.
    fn remove_at_rank(&mut self, rank: usize) {
        assert!(rank < self.len, "rank {rank} past {} entries", self.len);
        let mut slot = self.head;
        for _ in 0..rank {
            slot = self.nodes[slot as usize].next;
        }
        self.remove(slot);
    }

    /// The cached sets, MRU first.
    fn mru_order(&self) -> impl Iterator<Item = u64> + '_ {
        let first = (self.head != NIL).then_some(self.head);
        std::iter::successors(first, |&slot| {
            let next = self.nodes[slot as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|slot| self.nodes[slot as usize].set)
    }

    /// Writes the cached sets MRU first, as a `Vec<u64>`.
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        self.mru_order().collect::<Vec<u64>>().save(w);
    }

    /// Replaces the contents with what [`TagCache::save`] wrote. A list
    /// this tag cache could not hold (too long, naming a set past
    /// `n_sets`, or naming a set twice) is rejected and leaves it as it
    /// was.
    fn restore(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        let order: Vec<u64> = Snapshot::load(r)?;
        if order.len() > self.capacity {
            return Err(r.corrupt(format!(
                "tag cache holds {} sets, capacity is {}",
                order.len(),
                self.capacity
            )));
        }
        let mut tc = TagCache::new(self.n_sets, self.capacity, self.group);
        for (rank, &set) in order.iter().enumerate().rev() {
            if set >= self.n_sets {
                return Err(r.corrupt(format!(
                    "tag cache entry {rank} is set {set}, but the cache has {} sets",
                    self.n_sets
                )));
            }
            if tc.slot(set).is_some() {
                return Err(r.corrupt(format!("tag cache entry {rank} repeats set {set}")));
            }
            tc.push_mru(set);
        }
        *self = tc;
        Ok(())
    }

    fn push_mru(&mut self, set: u64) {
        let slot = self
            .free
            .pop()
            .expect("slab holds capacity plus one prefetch group");
        self.nodes[slot as usize].set = set;
        self.index[usize::try_from(set).expect("set fits usize")] = slot + 1;
        self.link_mru(slot);
    }

    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        let set = self.nodes[slot as usize].set;
        self.index[usize::try_from(set).expect("set fits usize")] = 0;
        self.free.push(slot);
    }

    fn link_mru(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.nodes[self.head as usize].prev = slot;
        }
        self.head = slot;
        self.len += 1;
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        self.len -= 1;
    }
}

/// The ATCache organization.
#[derive(Debug)]
pub struct AtCache {
    config: AtCacheConfig,
    n_sets: u64,
    sets: Vec<Vec<Line>>,
    /// Sets whose tags are cached in SRAM.
    tag_cache: TagCache,
    tag_cache_cycles: Cycle,
    mapper: Option<RowMapper>,
    ledger: EccLedger,
    stats: SchemeStats,
}

impl AtCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds no complete set.
    #[must_use]
    pub fn new(config: AtCacheConfig) -> Self {
        // Each set: 16 ways x 64 B data + one tag block, filling a 2 KB row
        // with some slack.
        let n_sets = config.cache_bytes / (u64::from(config.block_bytes) * WAYS as u64);
        assert!(n_sets > 0, "capacity must hold at least one set");
        let sram = SramModel::new();
        // Tag-cache entry: ~16 tags x 4 B.
        let tag_cache_bytes = config.tag_cache_sets as u64 * 64;
        AtCache {
            sets: vec![Vec::new(); usize::try_from(n_sets).expect("set count fits usize")],
            n_sets,
            tag_cache: TagCache::new(n_sets, config.tag_cache_sets, config.prefetch_group),
            tag_cache_cycles: sram.access_cycles(tag_cache_bytes),
            mapper: None,
            ledger: EccLedger::new(),
            stats: SchemeStats::default(),
            config,
        }
    }

    /// Paper-style ATCache of `mb` megabytes.
    #[must_use]
    pub fn with_capacity_mb(mb: u64) -> Self {
        AtCache::new(AtCacheConfig::for_cache_mb(mb))
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

    /// Bytes moved per DRAM tag lookup (target set + PG-group burst):
    /// SECDED check bits widen each burst by one byte per eight.
    fn dram_tag_bytes(&self) -> u32 {
        let per_burst = if self.config.metadata_ecc {
            TAG_READ_BYTES + TAG_READ_BYTES.div_ceil(8)
        } else {
            TAG_READ_BYTES
        };
        per_burst * 2
    }

    /// SECDED detection for every ledgered fault of `set_idx`: the DRAM
    /// tag read that just completed decoded the protected tag block.
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
            // Scrub write of the repaired tag block, off the critical path.
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

impl FaultTarget for AtCache {
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

    fn inject_locator_flip(&mut self, rng: &mut SmallRng) -> bool {
        // The SRAM tag cache is parity-protected: an upset entry is
        // detected and invalidated, so the next access to that set pays a
        // DRAM tag read instead of consulting a stale copy. Pure timing,
        // never correctness.
        if self.tag_cache.len() == 0 {
            return false;
        }
        let rank = rng.gen_range(0..self.tag_cache.len());
        self.tag_cache.remove_at_rank(rank);
        self.stats.locator_heals += 1;
        true
    }

    fn inject_predictor_upset(&mut self, _rng: &mut SmallRng) -> bool {
        false // no predictor state
    }

    fn contents_digest(&self) -> u64 {
        // The SRAM tag cache is deliberately excluded: it is a hint
        // structure whose contents only shift timing.
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

impl DramCacheScheme for AtCache {
    fn name(&self) -> &str {
        "ATCache"
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

        let tc_hit = {
            let _g = span::enter(SpanId::LocatorProbe);
            span::add_cycles(SpanId::LocatorProbe, self.tag_cache_cycles);
            self.tag_cache.touch(set_idx)
        };
        // A fused tag+data substrate (TDRAM-style) only helps the DRAM
        // tag-read path: the widened burst carries the candidate block, so
        // a read hit after a tag-cache miss needs no second column access.
        let fused = mem.fused_tag_data() && !tc_hit;
        let tags_checked = if tc_hit {
            self.stats.locator_hits += 1;
            self.stats.breakdown.sram += self.tag_cache_cycles;
            access.now + self.tag_cache_cycles
        } else {
            self.stats.locator_misses += 1;
            // DRAM tag read: target set's tags plus the PG-group burst.
            let span_tag = span::enter(SpanId::TagRead);
            mem.cache_dram.set_class(TrafficClass::MetadataRead);
            let t = mem.cache_dram.access(Request {
                loc,
                bytes: self.dram_tag_bytes() + if fused { self.config.block_bytes } else { 0 },
                op: Op::Read,
                arrival: access.now + self.tag_cache_cycles,
            });
            self.stats.md_accesses += 1;
            if t.row_event == RowEvent::Hit {
                self.stats.md_row_hits += 1;
            }
            if !self.ledger.is_empty() {
                // The DRAM read just decoded the protected tags: scrub.
                self.scrub_set(set_idx, loc, t.done, mem);
            }
            self.tag_cache.fill_group(set_idx);
            self.stats.breakdown.sram += self.tag_cache_cycles;
            self.stats.breakdown.dram_tag += (t.done + self.config.tag_compare_cycles)
                .saturating_sub(access.now + self.tag_cache_cycles);
            span::add_cycles(
                SpanId::TagRead,
                (t.done + self.config.tag_compare_cycles)
                    .saturating_sub(access.now + self.tag_cache_cycles),
            );
            drop(span_tag);
            if anatomy::active() {
                anatomy::charge_dram(Component::TagProbe);
                anatomy::add(Component::TagProbe, self.config.tag_compare_cycles);
            }
            t.done + self.config.tag_compare_cycles
        };
        if anatomy::active() {
            // The SRAM tag cache is ATCache's locator analogue; both the
            // tc-hit and tc-miss paths serialize behind it.
            anatomy::add(Component::Locator, self.tag_cache_cycles);
        }

        let set = &mut self.sets[usize::try_from(set_idx).expect("set fits usize")];
        let hit_pos = set.iter().position(|l| l.tag == tag);
        let is_hit = hit_pos.is_some();
        let mut offchip_bytes = 0u64;
        let complete;
        if let Some(pos) = hit_pos {
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
        self.tag_cache.save(w);
        self.ledger.save(w);
        self.stats.save(w);
    }

    fn restore_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        crate::alloy::expect_stateful_marker(r, "AtCache")?;
        let sets: Vec<Vec<Line>> = Snapshot::load(r)?;
        if sets.len() != self.sets.len() {
            return Err(r.corrupt(format!(
                "checkpoint has {} sets, configuration expects {}",
                sets.len(),
                self.sets.len()
            )));
        }
        self.tag_cache.restore(r)?;
        self.sets = sets;
        self.ledger = Snapshot::load(r)?;
        self.stats = Snapshot::load(r)?;
        Ok(())
    }
}

impl bimodal_ckpt::Snapshot for Line {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.u64(self.tag);
        w.bool(self.dirty);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        Ok(Line {
            tag: r.u64()?,
            dirty: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_ckpt::{CkptError, Snapshot, SnapshotReader, SnapshotWriter};

    fn cache() -> (AtCache, MemorySystem) {
        (AtCache::with_capacity_mb(1), MemorySystem::quad_core())
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x6000, 0), &mut mem);
        assert!(!a.hit);
        let b = c.access(CacheAccess::read(0x6000, a.complete), &mut mem);
        assert!(b.hit);
    }

    #[test]
    fn tag_cache_hit_after_first_touch_of_a_set() {
        let (mut c, mut mem) = cache();
        let a = c.access(CacheAccess::read(0x6000, 0), &mut mem);
        assert_eq!(c.stats().locator_misses, 1);
        let _ = c.access(CacheAccess::read(0x6000, a.complete), &mut mem);
        assert_eq!(c.stats().locator_hits, 1);
    }

    #[test]
    fn group_prefetch_warms_neighbouring_sets() {
        let (mut c, mut mem) = cache();
        // Touch set 0; its PG-group (sets 0..8) tags are now cached.
        let a = c.access(CacheAccess::read(0, 0), &mut mem);
        // An access to set 3 hits the tag cache without a DRAM tag read.
        let _ = c.access(CacheAccess::read(3 * 64, a.complete), &mut mem);
        assert_eq!(c.stats().locator_hits, 1);
        assert_eq!(
            c.stats().md_accesses,
            1,
            "only the first access read tags from DRAM"
        );
    }

    #[test]
    fn tag_cache_hit_is_faster_than_tag_cache_miss() {
        // Refresh-free memory so the comparison is not skewed by a stall.
        let mut stacked = bimodal_dram::DramConfig::stacked(2, 8);
        stacked.timing = stacked.timing.without_refresh();
        let mut offchip = bimodal_dram::DramConfig::ddr3(1, 2);
        offchip.timing = offchip.timing.without_refresh();
        let mut mem = MemorySystem::new(stacked, offchip);
        let mut c = AtCache::with_capacity_mb(1);
        let a = c.access(CacheAccess::read(0x6000, 0), &mut mem);
        // Same line again (tag cache hit, row may have closed — use a long
        // gap for both to equalize row state).
        let b = c.access(CacheAccess::read(0x6000, a.complete + 100_000), &mut mem);
        // A far set whose tags are not cached (tag cache miss).
        let far = 64 * c.n_sets / 2;
        let d = c.access(CacheAccess::read(far, b.complete + 100_000), &mut mem);
        let b_lat = b.complete - (a.complete + 100_000);
        let d_lat = d.complete - (b.complete + 100_000);
        assert!(
            b_lat < d_lat,
            "tag-cache hit {b_lat} must beat miss {d_lat}"
        );
    }

    #[test]
    fn sixteen_way_lru() {
        let (mut c, mut mem) = cache();
        let stride = c.n_sets * 64;
        let mut now = 0;
        for k in 0..17u64 {
            let r = c.access(CacheAccess::read(k * stride, now), &mut mem);
            now = r.complete;
        }
        assert_eq!(c.stats().evictions, 1);
        let r = c.access(CacheAccess::read(0, now), &mut mem);
        assert!(!r.hit, "LRU way 0 was evicted");
    }

    #[test]
    fn tag_cache_capacity_is_bounded() {
        let (mut c, mut mem) = cache();
        let mut now = 0;
        for set in 0..(c.config.tag_cache_sets as u64 + 100) {
            let r = c.access(CacheAccess::read(set * 64, now), &mut mem);
            now = r.complete;
        }
        assert!(c.tag_cache.len() <= c.config.tag_cache_sets);
    }

    /// The tag cache as first written: a most-recent-first `Vec` with a
    /// linear scan and `insert(0)` shifts. Reports depend on the tag
    /// cache's exact order, so `TagCache` must match it op for op.
    struct VecTagCache {
        sets: Vec<u64>,
        capacity: usize,
    }

    impl VecTagCache {
        fn lookup(&mut self, set: u64) -> bool {
            if let Some(pos) = self.sets.iter().position(|&s| s == set) {
                let s = self.sets.remove(pos);
                self.sets.insert(0, s);
                true
            } else {
                false
            }
        }

        fn fill_group(&mut self, set: u64, pg: u64, n_sets: u64) {
            let group_base = (set / pg) * pg;
            for s in group_base..(group_base + pg).min(n_sets) {
                if !self.sets.contains(&s) {
                    self.sets.insert(0, s);
                }
            }
            while self.sets.len() > self.capacity {
                self.sets.pop();
            }
        }
    }

    /// Drives `TagCache` and the `Vec` reference through one seeded
    /// sequence of probes (a group fill on each miss), removals at a
    /// random recency rank and checkpoint round trips, comparing the hit
    /// answer and the MRU-to-LRU order after every op.
    fn matches_vec_reference(n_sets: u64, capacity: usize, ops: u32, seed: u64) {
        const PG: u64 = 8;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reference = VecTagCache {
            sets: Vec::new(),
            capacity,
        };
        let mut tc = TagCache::new(n_sets, capacity, PG);
        // Half the probes stay within twice the tag cache's reach, so hits
        // are common; the rest roam every set.
        let hot = (2 * capacity as u64).min(n_sets);
        let (mut hits, mut removals, mut round_trips, mut full) = (0, 0, 0, false);
        for op in 0..ops {
            match rng.gen_range(0..100u32) {
                0 | 1 if !reference.sets.is_empty() => {
                    // The single draw `inject_locator_flip` makes.
                    let rank = rng.gen_range(0..reference.sets.len());
                    reference.sets.remove(rank);
                    tc.remove_at_rank(rank);
                    removals += 1;
                }
                2 => {
                    // The reference's checkpoint is what the `Vec` wrote.
                    let mut w = SnapshotWriter::new();
                    reference.sets.save(&mut w);
                    let old_bytes = w.into_bytes();
                    let mut w = SnapshotWriter::new();
                    tc.save(&mut w);
                    assert_eq!(w.into_bytes(), old_bytes, "op {op}: checkpoint bytes");
                    tc.restore(&mut SnapshotReader::new(&old_bytes, "scheme"))
                        .expect("a saved tag cache restores");
                    round_trips += 1;
                }
                roll => {
                    let set = rng.gen_range(0..if roll % 2 == 0 { hot } else { n_sets });
                    let hit = tc.touch(set);
                    assert_eq!(hit, reference.lookup(set), "op {op}: probe of set {set}");
                    if hit {
                        hits += 1;
                    } else {
                        tc.fill_group(set);
                        reference.fill_group(set, PG, n_sets);
                    }
                }
            }
            assert!(
                tc.mru_order().eq(reference.sets.iter().copied()),
                "op {op}: recency order differs"
            );
            assert_eq!(tc.len(), reference.sets.len(), "op {op}: length");
            full |= tc.len() == capacity;
        }
        assert!(
            hits > ops / 10 && removals > ops / 100 && round_trips > ops / 200 && full,
            "weak coverage: {hits} hits, {removals} removals, {round_trips} round trips, \
             full: {full}"
        );
    }

    #[test]
    fn tag_cache_matches_vec_reference_at_1mb() {
        matches_vec_reference(1_024, 64, 20_000, 1);
    }

    #[test]
    fn tag_cache_matches_vec_reference_at_8mb() {
        matches_vec_reference(8_192, 256, 20_000, 2);
    }

    #[test]
    fn tag_cache_matches_vec_reference_at_128mb() {
        matches_vec_reference(131_072, 4_096, 5_000, 3);
    }

    #[test]
    fn tag_cache_matches_vec_reference_with_a_truncated_last_group() {
        // 100 sets: the last prefetch group is 96..100, not 96..104.
        matches_vec_reference(100, 64, 20_000, 4);
    }

    /// The corrupt-section detail a fresh 1 MB cache reports when it
    /// restores a checkpoint whose tag cache lists `order`.
    fn restore_error(order: &[u64]) -> String {
        let mut c = AtCache::with_capacity_mb(1);
        let mut w = SnapshotWriter::new();
        w.u8(1);
        c.sets.save(&mut w);
        order.to_vec().save(&mut w);
        c.ledger.save(&mut w);
        c.stats.save(&mut w);
        let bytes = w.into_bytes();
        match c.restore_state(&mut SnapshotReader::new(&bytes, "scheme")) {
            Err(CkptError::Corrupt { detail, .. }) => detail,
            other => panic!("expected a corrupt-section error, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_tag_cache_entry_past_the_last_set() {
        let n_sets = AtCache::with_capacity_mb(1).n_sets;
        let detail = restore_error(&[0, n_sets]);
        assert!(
            detail.contains(&format!("entry 1 is set {n_sets}")),
            "{detail}"
        );
    }

    #[test]
    fn restore_rejects_a_repeated_tag_cache_entry() {
        let detail = restore_error(&[3, 5, 3]);
        assert!(detail.contains("repeats set 3"), "{detail}");
    }

    #[test]
    fn restore_rejects_an_overfull_tag_cache() {
        let capacity = AtCacheConfig::for_cache_mb(1).tag_cache_sets;
        let detail = restore_error(&(0..=capacity as u64).collect::<Vec<_>>());
        assert!(detail.contains("capacity is"), "{detail}");
    }
}
