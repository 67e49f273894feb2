//! The SRAM way locator (Section III-C).
//!
//! A small 2-way set-associative table that remembers, for recently
//! accessed cache sets, *where* (which way) the last-touched blocks live.
//! It stores **all** remaining address bits, so a hit is always correct —
//! there are no mispredictions and hence no wasted DRAM accesses. A hit
//! turns a DRAM cache read into a single DRAM data access with no metadata
//! access at all.

use crate::geometry::BlockSize;
use crate::sram::SramModel;
use bimodal_dram::Cycle;

/// Configuration of the way locator table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayLocatorConfig {
    /// `K`: number of index bits; the table has `2^K` indices with two
    /// entries each.
    pub index_bits: u32,
    /// Physical address width `A` in bits (used only for storage-size
    /// accounting, Table III).
    pub addr_bits: u32,
    /// Offset bits below the set-index/tag portion (9 for 512 B blocks).
    pub offset_bits: u32,
}

impl WayLocatorConfig {
    /// The paper's preferred configuration: `K = 14` (32 K entries).
    #[must_use]
    pub fn paper_default(addr_bits: u32) -> Self {
        WayLocatorConfig {
            index_bits: 14,
            addr_bits,
            offset_bits: 9,
        }
    }

    /// Number of entries (`2 x 2^K`).
    #[must_use]
    pub fn entries(&self) -> u64 {
        2 * (1u64 << self.index_bits)
    }

    /// Bits per entry: valid + size bit + remaining set/tag key bits +
    /// sub-block bits (3 for 512 B big blocks) + a 5-bit way id (enough
    /// for 18-way sets).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        let key_bits = self
            .addr_bits
            .saturating_sub(self.offset_bits + self.index_bits);
        let sub_bits = self.offset_bits.saturating_sub(6);
        1 + 1 + key_bits + sub_bits + 5
    }

    /// Total storage in bytes (Table III's "storage" column).
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.entries() * u64::from(self.entry_bits()) / 8
    }

    /// Lookup latency in cycles under the CACTI-like SRAM model
    /// (Table III's "latency" column).
    #[must_use]
    pub fn lookup_cycles(&self, sram: &SramModel) -> Cycle {
        sram.access_cycles(self.storage_bytes())
    }
}

/// One way-locator entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayLocatorEntry {
    /// Remaining set-index/tag bits above the table index.
    pub key: u64,
    /// Block granularity of the located way.
    pub size: BlockSize,
    /// Sub-block (3 leading offset bits); only meaningful for small blocks.
    pub sub_block: u8,
    /// Way number within the set (big and small ways number independently).
    pub way: u8,
}

/// Entry slot `e` holds a resident entry.
const F_VALID: u8 = 1;
/// Entry slot `e` locates a big block.
const F_BIG: u8 = 2;

/// The way locator table with hit/miss statistics.
///
/// # Example
///
/// ```
/// use bimodal_core::{BlockSize, WayLocator, WayLocatorConfig};
///
/// let mut wl = WayLocator::new(WayLocatorConfig::paper_default(32));
/// wl.insert(0x4000, BlockSize::Big, 2);
/// // Any line of the same 512 B block resolves to way 2 — and a lookup
/// // never returns a way that was not inserted (no mispredictions).
/// assert_eq!(wl.lookup(0x4000 + 448).map(|e| e.way), Some(2));
/// assert!(wl.lookup(0x9000).is_none());
/// ```
/// Stored structure-of-arrays: the probe compares dense `u64` keys and a
/// one-byte flag; the way/sub-block payload bytes are only touched on a
/// match. Entries of index `i` live at positions `2*i` and `2*i + 1`.
#[derive(Debug, Clone)]
pub struct WayLocator {
    config: WayLocatorConfig,
    /// Remaining set-index/tag bits, one per entry (2 per index).
    keys: Vec<u64>,
    /// `F_VALID` / `F_BIG` flag bits, one per entry.
    flags: Vec<u8>,
    /// Way id, one per entry.
    ways: Vec<u8>,
    /// Sub-block, one per entry.
    subs: Vec<u8>,
    /// Which of the two entries at each index is MRU (the other is the
    /// replacement victim). `1` on a fresh index: the legacy AoS layout
    /// victimized slot 0 when neither entry had ever been touched.
    mru: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl WayLocator {
    /// Builds an empty way locator.
    #[must_use]
    pub fn new(config: WayLocatorConfig) -> Self {
        let n = 1usize << config.index_bits;
        WayLocator {
            config,
            keys: vec![0; 2 * n],
            flags: vec![0; 2 * n],
            ways: vec![0; 2 * n],
            subs: vec![0; 2 * n],
            mru: vec![1; n],
            hits: 0,
            misses: 0,
        }
    }

    fn entry_at(&self, e: usize) -> WayLocatorEntry {
        WayLocatorEntry {
            key: self.keys[e],
            size: if self.flags[e] & F_BIG != 0 {
                BlockSize::Big
            } else {
                BlockSize::Small
            },
            sub_block: self.subs[e],
            way: self.ways[e],
        }
    }

    fn set_entry(&mut self, e: usize, entry: WayLocatorEntry) {
        self.keys[e] = entry.key;
        self.flags[e] = F_VALID
            | if entry.size == BlockSize::Big {
                F_BIG
            } else {
                0
            };
        self.ways[e] = entry.way;
        self.subs[e] = entry.sub_block;
    }

    #[inline]
    fn entry_matches(&self, e: usize, key: u64, sub: u8) -> bool {
        self.flags[e] & F_VALID != 0
            && self.keys[e] == key
            && (self.flags[e] & F_BIG != 0 || self.subs[e] == sub)
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &WayLocatorConfig {
        &self.config
    }

    fn index_of(&self, addr: u64) -> usize {
        usize::try_from((addr >> self.config.offset_bits) & ((1 << self.config.index_bits) - 1))
            .expect("index fits usize")
    }

    fn key_of(&self, addr: u64) -> u64 {
        addr >> (self.config.offset_bits + self.config.index_bits)
    }

    fn sub_block_of(&self, addr: u64) -> u8 {
        // The offset bits between the 64 B line and the big-block
        // boundary (3 for 512 B big blocks, more for larger ones — a
        // fixed 3-bit field would alias sub-blocks of 1024 B+ blocks and
        // break the no-misprediction guarantee).
        let sub_bits = self.config.offset_bits.saturating_sub(6);
        u8::try_from((addr >> 6) & ((1 << sub_bits) - 1)).expect("sub-block bits fit u8")
    }

    /// Looks up `addr`, recording a hit or miss and refreshing recency.
    pub fn lookup(&mut self, addr: u64) -> Option<WayLocatorEntry> {
        let idx = self.index_of(addr);
        let key = self.key_of(addr);
        let sub = self.sub_block_of(addr);
        for w in 0..2 {
            let e = 2 * idx + w;
            if self.entry_matches(e, key, sub) {
                self.hits += 1;
                self.mru[idx] = w as u8;
                return Some(self.entry_at(e));
            }
        }
        self.misses += 1;
        None
    }

    /// Checks membership without touching statistics or recency (used by
    /// the random-not-recent replacement to identify protected ways).
    #[must_use]
    pub fn peek(&self, addr: u64) -> Option<WayLocatorEntry> {
        let idx = self.index_of(addr);
        let key = self.key_of(addr);
        let sub = self.sub_block_of(addr);
        (0..2)
            .map(|w| 2 * idx + w)
            .find(|&e| self.entry_matches(e, key, sub))
            .map(|e| self.entry_at(e))
    }

    /// Records the location of the block containing `addr`, replacing the
    /// least recently used entry at its index if both are occupied.
    pub fn insert(&mut self, addr: u64, size: BlockSize, way: u8) {
        let idx = self.index_of(addr);
        let key = self.key_of(addr);
        let sub = self.sub_block_of(addr);
        let entry = WayLocatorEntry {
            key,
            size,
            sub_block: sub,
            way,
        };
        // Update in place if already present.
        for w in 0..2 {
            if self.entry_matches(2 * idx + w, key, sub) {
                self.set_entry(2 * idx + w, entry);
                self.mru[idx] = w as u8;
                return;
            }
        }
        // Otherwise fill an empty slot or evict the LRU one.
        let victim = (0..2)
            .find(|&w| self.flags[2 * idx + w] & F_VALID == 0)
            .unwrap_or_else(|| usize::from(1 - self.mru[idx]));
        self.set_entry(2 * idx + victim, entry);
        self.mru[idx] = victim as u8;
    }

    /// Removes the entry for the block containing `addr` (called when the
    /// cache evicts that block, so the locator never points at stale ways).
    pub fn invalidate(&mut self, addr: u64, size: BlockSize) {
        let idx = self.index_of(addr);
        let key = self.key_of(addr);
        let sub = self.sub_block_of(addr);
        let size_flag = if size == BlockSize::Big { F_BIG } else { 0 };
        for w in 0..2 {
            let e = 2 * idx + w;
            let matches = self.flags[e] & F_VALID != 0
                && self.keys[e] == key
                && self.flags[e] & F_BIG == size_flag
                && (size == BlockSize::Big || self.subs[e] == sub);
            if matches {
                self.flags[e] = 0;
            }
        }
    }

    /// XORs a nonzero pattern into the way id of a random occupied entry,
    /// modelling an SRAM bit upset in the hint structure. Returns `false`
    /// when the table is empty.
    ///
    /// Only the 5-bit way field is disturbed: key/sub-block corruption
    /// would make the entry miss (a pure perf event), whereas a wrong way
    /// id is the dangerous case the self-healing verify step must catch.
    pub fn corrupt_random_way(&mut self, rng: &mut bimodal_prng::SmallRng) -> bool {
        let occupied: Vec<usize> = (0..self.flags.len())
            .filter(|&e| self.flags[e] & F_VALID != 0)
            .collect();
        if occupied.is_empty() {
            return false;
        }
        let e = occupied[rng.gen_range(0..occupied.len())];
        let xor = rng.gen_range(1u8..32);
        self.ways[e] = (self.ways[e] ^ xor) & 0x1F;
        true
    }

    /// Reclassifies the most recent hit as a miss (used when the verify
    /// step finds the located way stale and the access falls back to a
    /// full tag probe).
    pub fn retract_hit(&mut self) {
        self.hits = self.hits.saturating_sub(1);
        self.misses += 1;
    }

    /// Way-locator hits since the last reset.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Way-locator misses since the last reset.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears statistics (table contents are preserved).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

bimodal_ckpt::snapshot_fields! { WayLocatorEntry { key, size, sub_block, way } }

impl WayLocator {
    /// Serializes the table contents and hit/miss counters (the
    /// configuration is rebuilt from the experiment setup).
    pub fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        w.usize(self.mru.len());
        self.keys.save(w);
        self.flags.save(w);
        self.ways.save(w);
        self.subs.save(w);
        self.mru.save(w);
        w.u64(self.hits);
        w.u64(self.misses);
    }

    /// Restores state written by [`WayLocator::save_state`], rejecting a
    /// snapshot taken under a different table size.
    pub fn load_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        let n = r.bounded_len()?;
        if n != self.mru.len() {
            return Err(r.corrupt(format!(
                "way locator has {n} indices in checkpoint, {} configured",
                self.mru.len()
            )));
        }
        let keys: Vec<u64> = Snapshot::load(r)?;
        let flags: Vec<u8> = Snapshot::load(r)?;
        let ways: Vec<u8> = Snapshot::load(r)?;
        let subs: Vec<u8> = Snapshot::load(r)?;
        let mru: Vec<u8> = Snapshot::load(r)?;
        if keys.len() != 2 * n
            || flags.len() != 2 * n
            || ways.len() != 2 * n
            || subs.len() != 2 * n
            || mru.len() != n
        {
            return Err(r.corrupt("way locator arrays disagree on entry count"));
        }
        self.keys = keys;
        self.flags = flags;
        self.ways = ways;
        self.subs = subs;
        self.mru = mru;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locator(k: u32) -> WayLocator {
        WayLocator::new(WayLocatorConfig {
            index_bits: k,
            addr_bits: 32,
            offset_bits: 9,
        })
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut wl = locator(6);
        wl.insert(0x1234_0000, BlockSize::Big, 2);
        let e = wl.lookup(0x1234_0000).expect("present");
        assert_eq!(e.way, 2);
        assert_eq!(e.size, BlockSize::Big);
        assert_eq!(wl.hits(), 1);
    }

    #[test]
    fn big_entry_matches_any_sub_block() {
        let mut wl = locator(6);
        wl.insert(0x1234_0000, BlockSize::Big, 1);
        // Different 64 B line of the same 512 B block still hits.
        assert!(wl.lookup(0x1234_0000 + 448).is_some());
    }

    #[test]
    fn small_entry_matches_only_its_sub_block() {
        let mut wl = locator(6);
        wl.insert(0x1234_0040, BlockSize::Small, 3);
        assert!(wl.lookup(0x1234_0040).is_some());
        assert!(wl.lookup(0x1234_0080).is_none());
    }

    #[test]
    fn never_mispredicts_on_conflicting_keys() {
        let mut wl = locator(4);
        // Two addresses that share an index but have different keys.
        let a = 0x0000_0200u64; // index bits from addr >> 9
        let b = a + (1u64 << (9 + 4)) * 7;
        wl.insert(a, BlockSize::Big, 0);
        assert!(
            wl.lookup(b).is_none(),
            "different key must miss, never mispredict"
        );
    }

    #[test]
    fn lru_replacement_within_index() {
        let mut wl = locator(4);
        let step = 1u64 << (9 + 4); // same index, different keys
        let a = 0x200u64;
        let b = a + step;
        let c = a + 2 * step;
        wl.insert(a, BlockSize::Big, 0);
        wl.insert(b, BlockSize::Big, 1);
        wl.lookup(a); // refresh a
        wl.insert(c, BlockSize::Big, 2); // evicts b (LRU)
        assert!(wl.peek(a).is_some());
        assert!(wl.peek(b).is_none());
        assert!(wl.peek(c).is_some());
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut wl = locator(6);
        wl.insert(0x8000, BlockSize::Big, 0);
        wl.invalidate(0x8000, BlockSize::Big);
        assert!(wl.peek(0x8000).is_none());
    }

    #[test]
    fn invalidate_is_size_specific() {
        let mut wl = locator(6);
        wl.insert(0x8000, BlockSize::Small, 0);
        // Invalidate of a big block with the same base must not remove the
        // small entry.
        wl.invalidate(0x8000, BlockSize::Big);
        assert!(wl.peek(0x8000).is_some());
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut wl = locator(6);
        wl.insert(0x8000, BlockSize::Big, 0);
        let _ = wl.peek(0x8000);
        let _ = wl.peek(0x9000);
        assert_eq!(wl.hits() + wl.misses(), 0);
    }

    #[test]
    fn update_in_place_changes_way() {
        let mut wl = locator(6);
        wl.insert(0x8000, BlockSize::Big, 0);
        wl.insert(0x8000, BlockSize::Big, 3);
        assert_eq!(wl.peek(0x8000).unwrap().way, 3);
    }

    #[test]
    fn table_iii_storage_sizes_are_close_to_paper() {
        // K=14, 128 MB cache over a 32-bit (4 GB) address space: the paper
        // reports 77.8 KB; our formula gives 76 KB.
        let c = WayLocatorConfig {
            index_bits: 14,
            addr_bits: 32,
            offset_bits: 9,
        };
        let kb = c.storage_bytes() as f64 / 1024.0;
        assert!((kb - 77.8).abs() < 5.0, "got {kb} KB");
        // K=10 configurations are about 6 KB.
        let c = WayLocatorConfig {
            index_bits: 10,
            addr_bits: 32,
            offset_bits: 9,
        };
        let kb = c.storage_bytes() as f64 / 1024.0;
        assert!((kb - 5.9).abs() < 1.5, "got {kb} KB");
    }

    #[test]
    fn large_big_blocks_use_enough_sub_block_bits() {
        // 1024 B big blocks: 16 sub-blocks need 4 bits; sub-blocks 3 and
        // 11 must not alias (a 3-bit field would fold them together).
        let mut wl = WayLocator::new(WayLocatorConfig {
            index_bits: 6,
            addr_bits: 32,
            offset_bits: 10,
        });
        wl.insert(0x8000 + 3 * 64, BlockSize::Small, 1);
        assert!(wl.lookup(0x8000 + 3 * 64).is_some());
        assert!(
            wl.lookup(0x8000 + 11 * 64).is_none(),
            "sub-block 11 must not alias sub-block 3"
        );
    }

    #[test]
    fn corrupt_random_way_changes_a_way_id() {
        use bimodal_prng::SmallRng;
        let mut wl = locator(6);
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(
            !wl.corrupt_random_way(&mut rng),
            "empty table: nothing to corrupt"
        );
        wl.insert(0x8000, BlockSize::Big, 3);
        assert!(wl.corrupt_random_way(&mut rng));
        let way = wl.peek(0x8000).expect("entry survives corruption").way;
        assert_ne!(way, 3, "the way id must actually change");
        assert!(way < 32);
    }

    #[test]
    fn retract_hit_reclassifies() {
        let mut wl = locator(6);
        wl.insert(0x4000, BlockSize::Big, 0);
        wl.lookup(0x4000);
        assert_eq!((wl.hits(), wl.misses()), (1, 0));
        wl.retract_hit();
        assert_eq!((wl.hits(), wl.misses()), (0, 1));
        wl.retract_hit(); // saturates rather than underflowing
        assert_eq!((wl.hits(), wl.misses()), (0, 2));
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let mut wl = locator(8);
        wl.insert(0x4000, BlockSize::Big, 0);
        wl.lookup(0x4000);
        wl.lookup(0xF_F000);
        assert!((wl.hit_rate() - 0.5).abs() < 1e-12);
        wl.reset_stats();
        assert_eq!(wl.hit_rate(), 0.0);
    }
}
