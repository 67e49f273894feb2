//! The bi-modal cache sets and the Table II replacement rules.
//!
//! Each set holds `X` big ways and `Y` small ways, `(X, Y)` being one of
//! the geometry's allowed states. Big ways are numbered left-to-right from
//! column 0 of the DRAM page; small ways right-to-left from the page end,
//! so big way `x` occupies the same bytes as small ways
//! `[(B-1-x)*r, (B-x)*r)` (with `B` the all-big associativity and `r` the
//! size ratio). State changes therefore always evict the highest-numbered
//! ways of the shrinking kind.

use bimodal_ckpt::{CkptError, Snapshot, SnapshotReader, SnapshotWriter};

use crate::geometry::{BlockSize, CacheGeometry, SetState};

/// A reference to a way within a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayRef {
    /// Big or small way.
    pub size: BlockSize,
    /// Way number within its kind.
    pub index: u8,
}

/// An evicted block, reported so the controller can write back dirty data,
/// invalidate the way locator, train the predictor and account waste.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Granularity of the evicted block.
    pub size: BlockSize,
    /// Its tag.
    pub tag: u64,
    /// Sub-block index (meaningful for small blocks; 0 for big).
    pub sub_block: u8,
    /// Dirty mask: bit per sub-block for big blocks, bit 0 for small.
    pub dirty_mask: u16,
    /// Referenced mask: bit per sub-block for big, bit 0 for small.
    pub referenced_mask: u16,
}

impl Victim {
    /// Number of dirty 64 B sub-blocks to write back.
    #[must_use]
    pub fn dirty_sub_blocks(&self) -> u32 {
        self.dirty_mask.count_ones()
    }

    /// Number of fetched-but-never-referenced sub-blocks (for big blocks;
    /// small blocks are always referenced).
    #[must_use]
    pub fn unreferenced_sub_blocks(&self, sub_blocks: u32) -> u32 {
        match self.size {
            BlockSize::Big => sub_blocks - self.referenced_mask.count_ones().min(sub_blocks),
            BlockSize::Small => 0,
        }
    }
}

/// Result of inserting a block into a set. The blocks the insertion
/// displaced are in [`SetArena::evicted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The way the new block landed in.
    pub way: WayRef,
    /// Sub-blocks whose small blocks were absorbed into the incoming big
    /// block (bit per sub-block).
    pub absorbed_mask: u16,
    /// Small blocks whose dirty data was merged into the incoming big
    /// block rather than written back.
    pub absorbed_dirty: u16,
    /// Whether the set changed `(X, Y)` state.
    pub state_changed: bool,
}

// Indices of the four words of a set's `meta` header.
/// Occupancy mask of the big ways.
const BIG_VALID: usize = 0;
/// Occupancy mask of the small ways.
const SMALL_VALID: usize = 1;
/// Dirty mask of the small ways.
const SMALL_DIRTY: usize = 2;
/// Big ways converted to small ways, `k`: the set is in state
/// `(B - k, k * ratio)`.
const CONVERTED: usize = 3;

/// Every bi-modal set of one cache.
///
/// Way metadata lives in flat structure-of-arrays storage indexed by set:
/// big-way arrays have stride `B`, small-way arrays stride
/// `(B - B/2) * ratio`, the most small ways any allowed state has. The tag
/// probe — the hottest loop in the whole simulator — scans a dense `u64`
/// run with occupancy tested against a bitmask. Every array starts zeroed,
/// and all-zero bytes are an empty all-big set, so building a cache is a
/// handful of zeroed allocations however many sets it has.
#[derive(Debug, Clone)]
pub struct SetArena {
    base_assoc: u8,
    ratio: u8,
    /// Small-way slots per set.
    small_slots: usize,
    /// Per set: the `BIG_VALID`, `SMALL_VALID`, `SMALL_DIRTY` and
    /// `CONVERTED` words, in one 32-byte header.
    meta: Vec<[u64; 4]>,
    big_tag: Vec<u64>,
    /// Bit per 64 B sub-block the CPU touched, per big way.
    big_ref: Vec<u16>,
    /// Bit per dirty 64 B sub-block, per big way.
    big_dirty: Vec<u16>,
    small_tag: Vec<u64>,
    /// Which sub-block of the big-block-aligned region each small way is.
    small_sub: Vec<u8>,
    /// Blocks displaced by the latest insert, kept so fills do not
    /// allocate.
    evicted: Vec<Victim>,
}

impl SetArena {
    /// Creates every set of `geometry`, all-big and empty.
    ///
    /// # Panics
    ///
    /// Panics if either kind of way needs more than 64 slots per set (the
    /// occupancy masks are `u64`).
    #[must_use]
    pub fn new(geometry: &CacheGeometry) -> Self {
        let b = geometry.base_assoc();
        let ratio = u8::try_from(geometry.sub_blocks()).expect("ratio fits u8");
        // The most-small allowed state is (B/2, (B - B/2) * ratio).
        let small_slots = usize::from(b - b / 2) * usize::from(ratio);
        assert!(
            usize::from(b) <= 64 && small_slots <= 64,
            "way occupancy masks hold at most 64 ways per kind"
        );
        let n = usize::try_from(geometry.n_sets()).expect("set count fits usize");
        let big = n * usize::from(b);
        let small = n * small_slots;
        SetArena {
            base_assoc: b,
            ratio,
            small_slots,
            meta: vec![[0; 4]; n],
            big_tag: vec![0; big],
            big_ref: vec![0; big],
            big_dirty: vec![0; big],
            small_tag: vec![0; small],
            small_sub: vec![0; small],
            evicted: Vec::new(),
        }
    }

    /// Number of sets.
    pub(crate) fn len(&self) -> usize {
        self.meta.len()
    }

    /// Current `(X, Y)` state of `set`.
    #[inline]
    #[must_use]
    pub fn state(&self, set: usize) -> SetState {
        let k = self.meta[set][CONVERTED] as u8;
        SetState {
            big: self.base_assoc - k,
            small: k * self.ratio,
        }
    }

    #[inline]
    fn big_base(&self, set: usize) -> usize {
        set * usize::from(self.base_assoc)
    }

    #[inline]
    fn small_base(&self, set: usize) -> usize {
        set * self.small_slots
    }

    /// Finds the resident block of `set` servicing `(tag, sub_block)`, if
    /// any.
    #[must_use]
    pub fn lookup(&self, set: usize, tag: u64, sub_block: u8) -> Option<WayRef> {
        let state = self.state(set);
        let meta = &self.meta[set];
        let big = self.big_base(set);
        let big_tags = &self.big_tag[big..big + usize::from(state.big)];
        for (i, &t) in big_tags.iter().enumerate() {
            if has(meta[BIG_VALID], i) && t == tag {
                return Some(WayRef {
                    size: BlockSize::Big,
                    index: i as u8,
                });
            }
        }
        let small = self.small_base(set);
        let small_ways = small..small + usize::from(state.small);
        let small_tags = &self.small_tag[small_ways.clone()];
        let small_subs = &self.small_sub[small_ways];
        for (i, (&t, &s)) in small_tags.iter().zip(small_subs).enumerate() {
            if has(meta[SMALL_VALID], i) && t == tag && s == sub_block {
                return Some(WayRef {
                    size: BlockSize::Small,
                    index: i as u8,
                });
            }
        }
        None
    }

    /// Marks a resident block of `set` referenced (and optionally dirty)
    /// at `sub_block`.
    ///
    /// # Panics
    ///
    /// Panics if `way` does not refer to an occupied way (a locator hit
    /// that bypassed `lookup` must still reference a real block).
    pub fn touch(&mut self, set: usize, way: WayRef, sub_block: u8, write: bool) {
        let i = usize::from(way.index);
        match way.size {
            BlockSize::Big => {
                assert!(
                    has(self.meta[set][BIG_VALID], i),
                    "touch of an empty big way"
                );
                let slot = self.big_base(set) + i;
                self.big_ref[slot] |= 1u16 << sub_block;
                if write {
                    self.big_dirty[slot] |= 1u16 << sub_block;
                }
            }
            BlockSize::Small => {
                assert!(
                    has(self.meta[set][SMALL_VALID], i),
                    "touch of an empty small way"
                );
                if write {
                    self.meta[set][SMALL_DIRTY] |= 1 << i;
                }
            }
        }
    }

    /// Tag stored in `way` of `set`, with its sub-block for small ways.
    #[must_use]
    pub fn way_tag(&self, set: usize, way: WayRef) -> Option<(u64, u8)> {
        let i = usize::from(way.index);
        match way.size {
            BlockSize::Big => {
                has(self.meta[set][BIG_VALID], i).then(|| (self.big_tag[self.big_base(set) + i], 0))
            }
            BlockSize::Small => has(self.meta[set][SMALL_VALID], i).then(|| {
                let slot = self.small_base(set) + i;
                (self.small_tag[slot], self.small_sub[slot])
            }),
        }
    }

    /// Inserts a block of granularity `size` into `set` with the Table II
    /// rules; the blocks it displaces are then in [`SetArena::evicted`].
    ///
    /// `global` is the cache-wide target state; `pick` chooses a victim
    /// index among `n` same-kind candidate ways (the controller implements
    /// random-not-recent there). Empty ways are used before any eviction.
    pub fn insert(
        &mut self,
        set: usize,
        size: BlockSize,
        tag: u64,
        sub_block: u8,
        global: SetState,
        pick: &mut dyn FnMut(u8) -> u8,
    ) -> InsertOutcome {
        self.evicted.clear();
        match size {
            BlockSize::Big => self.insert_big(set, tag, global, pick),
            BlockSize::Small => self.insert_small(set, tag, sub_block, global, pick),
        }
    }

    /// Blocks displaced by the latest [`SetArena::insert`]: state-change
    /// victims and replaced blocks, but not small blocks absorbed into an
    /// incoming big block.
    #[must_use]
    pub fn evicted(&self) -> &[Victim] {
        &self.evicted
    }

    fn big_victim(&self, set: usize, i: usize) -> Victim {
        let slot = self.big_base(set) + i;
        Victim {
            size: BlockSize::Big,
            tag: self.big_tag[slot],
            sub_block: 0,
            dirty_mask: self.big_dirty[slot],
            referenced_mask: self.big_ref[slot],
        }
    }

    fn small_victim(&self, set: usize, i: usize) -> Victim {
        let slot = self.small_base(set) + i;
        Victim {
            size: BlockSize::Small,
            tag: self.small_tag[slot],
            sub_block: self.small_sub[slot],
            dirty_mask: u16::from(has(self.meta[set][SMALL_DIRTY], i)),
            referenced_mask: 1,
        }
    }

    /// Removes the small block in slot `i`, returning it as a victim.
    /// Caller must have checked occupancy.
    fn take_small(&mut self, set: usize, i: usize) -> Victim {
        let v = self.small_victim(set, i);
        self.meta[set][SMALL_VALID] &= !(1 << i);
        self.meta[set][SMALL_DIRTY] &= !(1 << i);
        v
    }

    /// Removes the big block in slot `i`, returning it as a victim.
    /// Caller must have checked occupancy.
    fn take_big(&mut self, set: usize, i: usize) -> Victim {
        let v = self.big_victim(set, i);
        self.meta[set][BIG_VALID] &= !(1 << i);
        v
    }

    fn insert_big(
        &mut self,
        set: usize,
        tag: u64,
        global: SetState,
        pick: &mut dyn FnMut(u8) -> u8,
    ) -> InsertOutcome {
        let state = self.state(set);
        let small = self.small_base(set);
        let mut absorbed_dirty = 0u16;
        let mut referenced = 0u16;
        // Absorb any resident small blocks of the same region: their data
        // is newer than memory, so merge their dirty state instead of
        // refetching it.
        for i in 0..usize::from(state.small) {
            let meta = &mut self.meta[set];
            if has(meta[SMALL_VALID], i) && self.small_tag[small + i] == tag {
                let sub = 1u16 << self.small_sub[small + i];
                referenced |= sub;
                if has(meta[SMALL_DIRTY], i) {
                    absorbed_dirty |= sub;
                }
                meta[SMALL_VALID] &= !(1 << i);
                meta[SMALL_DIRTY] &= !(1 << i);
            }
        }

        let mut state_changed = false;
        let way_index = if state.big < global.big && state.big < self.base_assoc {
            // Table II, row "X_s < X_glob / predicted big": evict the
            // highest-numbered small ways and grow the big quota.
            let new_small = state.small - self.ratio;
            for j in (usize::from(new_small)..usize::from(state.small)).rev() {
                if has(self.meta[set][SMALL_VALID], j) {
                    let v = self.take_small(set, j);
                    self.evicted.push(v);
                }
            }
            self.meta[set][CONVERTED] -= 1;
            state_changed = true;
            state.big
        } else {
            // Replace (or fill) a big way.
            let valid = self.meta[set][BIG_VALID];
            match (0..state.big).find(|&i| !has(valid, usize::from(i))) {
                Some(empty) => empty,
                None => {
                    let victim_idx = pick(state.big);
                    assert!(victim_idx < state.big, "picked big way out of range");
                    let v = self.take_big(set, usize::from(victim_idx));
                    self.evicted.push(v);
                    victim_idx
                }
            }
        };
        let i = usize::from(way_index);
        let slot = self.big_base(set) + i;
        self.meta[set][BIG_VALID] |= 1 << i;
        self.big_tag[slot] = tag;
        self.big_ref[slot] = referenced;
        self.big_dirty[slot] = absorbed_dirty;
        InsertOutcome {
            way: WayRef {
                size: BlockSize::Big,
                index: way_index,
            },
            absorbed_mask: referenced,
            absorbed_dirty,
            state_changed,
        }
    }

    fn insert_small(
        &mut self,
        set: usize,
        tag: u64,
        sub_block: u8,
        global: SetState,
        pick: &mut dyn FnMut(u8) -> u8,
    ) -> InsertOutcome {
        let state = self.state(set);
        debug_assert!(
            !(0..usize::from(state.big)).any(|i| has(self.meta[set][BIG_VALID], i)
                && self.big_tag[self.big_base(set) + i] == tag),
            "inserting a small block shadowed by a resident big block"
        );
        let mut state_changed = false;

        if state.big > global.big && state.big > self.base_assoc / 2 {
            // Table II, row "X_s > X_glob / predicted small": evict the
            // highest-numbered big way, converting its space to small ways.
            let big_idx = usize::from(state.big) - 1;
            if has(self.meta[set][BIG_VALID], big_idx) {
                let v = self.take_big(set, big_idx);
                self.evicted.push(v);
            }
            self.meta[set][CONVERTED] += 1;
            state_changed = true;
        } else if state.small == 0 {
            // Neither the set nor the global target has small ways: fall
            // back to a big fill so the request can still be cached. (The
            // paper's Table II implicitly assumes Y > 0 when a small block
            // is predicted; all-big is the (4, 0) degenerate case.)
            return self.insert_big(set, tag, global, pick);
        }

        let limit = self.state(set).small;
        let valid = self.meta[set][SMALL_VALID];
        let way_index = match (0..limit).find(|&i| !has(valid, usize::from(i))) {
            Some(empty) => empty,
            None => {
                let victim_idx = pick(limit);
                assert!(victim_idx < limit, "picked small way out of range");
                let v = self.take_small(set, usize::from(victim_idx));
                self.evicted.push(v);
                victim_idx
            }
        };
        let i = usize::from(way_index);
        let slot = self.small_base(set) + i;
        self.meta[set][SMALL_VALID] |= 1 << i;
        self.meta[set][SMALL_DIRTY] &= !(1 << i);
        self.small_tag[slot] = tag;
        self.small_sub[slot] = sub_block;
        InsertOutcome {
            way: WayRef {
                size: BlockSize::Small,
                index: way_index,
            },
            absorbed_mask: 0,
            absorbed_dirty: 0,
            state_changed,
        }
    }

    /// Occupancy masks of `set`'s big and small ways.
    fn valid_masks(&self, set: usize) -> (u64, u64) {
        let state = self.state(set);
        let meta = &self.meta[set];
        (
            meta[BIG_VALID] & mask_below(state.big),
            meta[SMALL_VALID] & mask_below(state.small),
        )
    }

    /// All resident blocks of `set`, big ways first, as victims *without*
    /// removing them — used at the end of a run to account leftover
    /// unreferenced fetch bytes.
    pub fn residents(&self, set: usize) -> impl Iterator<Item = Victim> + '_ {
        let (big, small) = self.valid_masks(set);
        ones(big)
            .map(move |i| self.big_victim(set, i))
            .chain(ones(small).map(move |i| self.small_victim(set, i)))
    }

    /// Number of occupied ways (big + small) of `set`.
    #[must_use]
    pub fn occupancy(&self, set: usize) -> usize {
        let (big, small) = self.valid_masks(set);
        (big.count_ones() + small.count_ones()) as usize
    }

    /// Every occupied way of `set` in its current state, big ways first.
    pub fn occupied_ways(&self, set: usize) -> impl Iterator<Item = WayRef> {
        let (big, small) = self.valid_masks(set);
        ones(big)
            .map(|i| WayRef {
                size: BlockSize::Big,
                index: i as u8,
            })
            .chain(ones(small).map(|i| WayRef {
                size: BlockSize::Small,
                index: i as u8,
            }))
    }

    /// XORs `xor` into the tag stored in `way` of `set`, modelling a
    /// metadata-entry bit flip. Returns the `(original, corrupted)` tag
    /// pair, or `None` when the way is empty.
    pub fn corrupt_tag(&mut self, set: usize, way: WayRef, xor: u64) -> Option<(u64, u64)> {
        let i = usize::from(way.index);
        let (valid, slot, tags) = match way.size {
            BlockSize::Big => (BIG_VALID, self.big_base(set) + i, &mut self.big_tag),
            BlockSize::Small => (SMALL_VALID, self.small_base(set) + i, &mut self.small_tag),
        };
        has(self.meta[set][valid], i).then(|| {
            let orig = tags[slot];
            tags[slot] ^= xor;
            (orig, tags[slot])
        })
    }

    /// Removes the block in `way` of `set`, returning it as a victim (used
    /// when ECC detects an uncorrectable metadata error). `None` when
    /// already empty.
    pub fn invalidate_way(&mut self, set: usize, way: WayRef) -> Option<Victim> {
        let i = usize::from(way.index);
        match way.size {
            BlockSize::Big => has(self.meta[set][BIG_VALID], i).then(|| self.take_big(set, i)),
            BlockSize::Small => {
                has(self.meta[set][SMALL_VALID], i).then(|| self.take_small(set, i))
            }
        }
    }

    /// Number of resident small blocks of `set` belonging to the region
    /// `tag` (used to detect sparse-filled regions that turn out spatial).
    #[must_use]
    pub fn small_sibling_count(&self, set: usize, tag: u64) -> u32 {
        let small = self.small_base(set);
        let (_, valid) = self.valid_masks(set);
        ones(valid)
            .filter(|&i| self.small_tag[small + i] == tag)
            .count() as u32
    }

    /// Referenced-mask of the big way of `set` holding `tag`, if resident.
    #[must_use]
    pub fn big_utilization(&self, set: usize, tag: u64) -> Option<u16> {
        let big = self.big_base(set);
        let (valid, _) = self.valid_masks(set);
        ones(valid)
            .find(|&i| self.big_tag[big + i] == tag)
            .map(|i| self.big_ref[big + i])
    }

    /// Writes every set in the checkpoint layout of a `Vec` of per-set
    /// records: the set count, then per set its state, `B`, the ratio,
    /// the big-way occupancy mask, the big tag / referenced / dirty
    /// arrays, the small-way occupancy and dirty masks, and the small tag
    /// and sub-block arrays (each array length-prefixed).
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for set in 0..self.len() {
            self.save_set(set, w);
        }
    }

    fn save_set(&self, set: usize, w: &mut SnapshotWriter) {
        let meta = &self.meta[set];
        let big = self.big_base(set)..self.big_base(set) + usize::from(self.base_assoc);
        let small = self.small_base(set)..self.small_base(set) + self.small_slots;
        self.state(set).save(w);
        w.u8(self.base_assoc);
        w.u8(self.ratio);
        w.u64(meta[BIG_VALID]);
        save_slots(w, &self.big_tag[big.clone()]);
        save_slots(w, &self.big_ref[big.clone()]);
        save_slots(w, &self.big_dirty[big]);
        w.u64(meta[SMALL_VALID]);
        w.u64(meta[SMALL_DIRTY]);
        save_slots(w, &self.small_tag[small.clone()]);
        save_slots(w, &self.small_sub[small]);
    }

    /// Reads sets written by [`SetArena::save`] into a fresh arena for
    /// `geometry`.
    ///
    /// # Errors
    ///
    /// Decode errors from the reader, and [`CkptError::Corrupt`] naming
    /// the set when the set count, a set's associativity, ratio or slot
    /// counts differ from `geometry`, its state is not one of the
    /// geometry's allowed states, or its masks mark ways outside that
    /// state.
    pub fn load(geometry: &CacheGeometry, r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        let mut arena = SetArena::new(geometry);
        let n = r.bounded_len()?;
        if n != arena.len() {
            return Err(r.corrupt(format!(
                "checkpoint has {n} sets, geometry expects {}",
                arena.len()
            )));
        }
        for set in 0..n {
            arena.load_set(set, r)?;
        }
        Ok(arena)
    }

    fn load_set(&mut self, set: usize, r: &mut SnapshotReader<'_>) -> Result<(), CkptError> {
        let b = self.base_assoc;
        let state = SetState::load(r)?;
        let base_assoc = r.u8()?;
        let ratio = r.u8()?;
        if (base_assoc, ratio) != (b, self.ratio) {
            return Err(r.corrupt(format!(
                "set {set} has associativity {base_assoc} and ratio {ratio}; the geometry \
                 has {b} and {}",
                self.ratio
            )));
        }
        // The legal states are (X, (B - X) * ratio) with B/2 <= X <= B.
        let legal = (b / 2..=b).contains(&state.big)
            && u16::from(state.small) == u16::from(b - state.big) * u16::from(self.ratio);
        if !legal {
            return Err(r.corrupt(format!(
                "set {set} has state {state}, not an allowed state of associativity {b} \
                 and ratio {}",
                self.ratio
            )));
        }
        let big_valid = r.u64()?;
        let big = self.big_base(set)..self.big_base(set) + usize::from(b);
        load_slots(r, set, "big tag", &mut self.big_tag[big.clone()])?;
        load_slots(r, set, "big referenced", &mut self.big_ref[big.clone()])?;
        load_slots(r, set, "big dirty", &mut self.big_dirty[big])?;
        let small_valid = r.u64()?;
        let small_dirty = r.u64()?;
        let small = self.small_base(set)..self.small_base(set) + self.small_slots;
        load_slots(r, set, "small tag", &mut self.small_tag[small.clone()])?;
        load_slots(r, set, "small sub-block", &mut self.small_sub[small])?;
        if big_valid & !mask_below(state.big) != 0
            || small_valid & !mask_below(state.small) != 0
            || small_dirty & !small_valid != 0
        {
            return Err(r.corrupt(format!(
                "set {set} in state {state} marks ways it does not have: big {big_valid:#x}, \
                 small {small_valid:#x}, small dirty {small_dirty:#x}"
            )));
        }
        self.meta[set] = [
            big_valid,
            small_valid,
            small_dirty,
            u64::from(b - state.big),
        ];
        Ok(())
    }
}

/// Whether bit `i` of `mask` is set (false beyond bit 63, so a way index
/// no set can have reads as empty).
#[inline]
fn has(mask: u64, i: usize) -> bool {
    i < 64 && mask & (1 << i) != 0
}

/// Bitmask selecting way slots `0..n` (`n <= 64`).
#[inline]
fn mask_below(n: u8) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Indices of the set bits of `mask`, ascending.
fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Writes `slots` as a length-prefixed `Vec`.
fn save_slots<T: Snapshot>(w: &mut SnapshotWriter, slots: &[T]) {
    w.usize(slots.len());
    for v in slots {
        v.save(w);
    }
}

/// Reads a length-prefixed `Vec` written by [`save_slots`] into `slots`,
/// which it must exactly fill.
fn load_slots<T: Snapshot>(
    r: &mut SnapshotReader<'_>,
    set: usize,
    what: &str,
    slots: &mut [T],
) -> Result<(), CkptError> {
    let n = r.bounded_len()?;
    if n != slots.len() {
        return Err(r.corrupt(format!(
            "set {set} has {n} {what} slots, the geometry {}",
            slots.len()
        )));
    }
    for v in slots {
        *v = T::load(r)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_prng::SmallRng;

    fn geometry() -> CacheGeometry {
        CacheGeometry::paper_default(1 << 20)
    }

    fn all_big() -> SetState {
        SetState { big: 4, small: 0 }
    }

    fn mixed() -> SetState {
        SetState { big: 3, small: 8 }
    }

    fn first_pick() -> Box<dyn FnMut(u8) -> u8> {
        Box::new(|_| 0)
    }

    /// The set the single-set tests use: not set 0, so a stride slip
    /// shows.
    const S: usize = 5;

    #[test]
    fn fresh_set_is_all_big_and_empty() {
        let s = SetArena::new(&geometry());
        assert_eq!(s.len(), 512);
        assert_eq!(s.state(S), all_big());
        assert_eq!(s.occupancy(S), 0);
    }

    #[test]
    fn insert_and_lookup_big() {
        let mut s = SetArena::new(&geometry());
        let out = s.insert(S, BlockSize::Big, 42, 0, all_big(), &mut *first_pick());
        assert!(s.evicted().is_empty());
        assert_eq!(out.way.size, BlockSize::Big);
        // Any sub-block of the big block hits.
        assert!(s.lookup(S, 42, 0).is_some());
        assert!(s.lookup(S, 42, 7).is_some());
        assert!(s.lookup(S, 43, 0).is_none());
        // Neighbouring sets stay empty.
        assert!(s.lookup(S - 1, 42, 0).is_none());
        assert!(s.lookup(S + 1, 42, 0).is_none());
    }

    #[test]
    fn fills_use_empty_ways_before_evicting() {
        let mut s = SetArena::new(&geometry());
        for t in 0..4 {
            s.insert(S, BlockSize::Big, t, 0, all_big(), &mut *first_pick());
            assert!(s.evicted().is_empty(), "way {t} should be a cold fill");
        }
        s.insert(S, BlockSize::Big, 99, 0, all_big(), &mut *first_pick());
        assert_eq!(s.evicted().len(), 1);
    }

    #[test]
    fn table_ii_same_state_replaces_same_kind() {
        let mut s = SetArena::new(&geometry());
        for t in 0..4 {
            s.insert(S, BlockSize::Big, t, 0, all_big(), &mut *first_pick());
        }
        let out = s.insert(S, BlockSize::Big, 50, 0, all_big(), &mut *first_pick());
        assert_eq!(s.evicted()[0].size, BlockSize::Big);
        assert!(!out.state_changed);
        assert_eq!(s.state(S), all_big());
    }

    #[test]
    fn table_ii_small_predicted_with_bigger_set_state_converts_a_big_way() {
        let mut s = SetArena::new(&geometry());
        for t in 0..4 {
            s.insert(S, BlockSize::Big, t, 0, all_big(), &mut *first_pick());
        }
        // Global wants (3, 8); predicted small: evict the highest big way.
        let out = s.insert(S, BlockSize::Small, 100, 3, mixed(), &mut *first_pick());
        assert!(out.state_changed);
        assert_eq!(s.state(S), mixed());
        assert_eq!(out.way.size, BlockSize::Small);
        let big_victims: Vec<_> = s
            .evicted()
            .iter()
            .filter(|v| v.size == BlockSize::Big)
            .collect();
        assert_eq!(big_victims.len(), 1);
        assert_eq!(big_victims[0].tag, 3, "highest-numbered big way is evicted");
        assert!(s.lookup(S, 100, 3).is_some());
    }

    #[test]
    fn table_ii_big_predicted_with_smaller_set_state_reclaims_small_ways() {
        let mut s = SetArena::new(&geometry());
        // Drive the set to (3, 8) and fill the small ways.
        s.insert(S, BlockSize::Small, 100, 0, mixed(), &mut *first_pick());
        for k in 0..8u64 {
            s.insert(S, BlockSize::Small, 200 + k, 1, mixed(), &mut *first_pick());
        }
        assert_eq!(s.state(S), mixed());
        // Global back at (4, 0); predicted big: all 8 small ways go.
        let out = s.insert(S, BlockSize::Big, 300, 0, all_big(), &mut *first_pick());
        assert!(out.state_changed);
        assert_eq!(s.state(S), all_big());
        let small_victims = s
            .evicted()
            .iter()
            .filter(|v| v.size == BlockSize::Small)
            .count();
        assert_eq!(small_victims, 8);
    }

    #[test]
    fn big_insert_absorbs_matching_dirty_small_blocks() {
        let mut s = SetArena::new(&geometry());
        let out = s.insert(S, BlockSize::Small, 7, 2, mixed(), &mut *first_pick());
        s.touch(S, out.way, 2, true); // dirty small block of region 7
        let out = s.insert(S, BlockSize::Big, 7, 0, mixed(), &mut *first_pick());
        assert_eq!(out.absorbed_dirty, 1 << 2);
        // The small block is gone but not listed as an (off-chip) victim.
        assert!(s.evicted().iter().all(|v| v.tag != 7));
        // And the big block now covers its sub-block with dirty data.
        let way = s.lookup(S, 7, 2).expect("big block resident");
        assert_eq!(way.size, BlockSize::Big);
    }

    #[test]
    fn small_predicted_all_big_global_falls_back_to_big_fill() {
        let mut s = SetArena::new(&geometry());
        let out = s.insert(S, BlockSize::Small, 11, 5, all_big(), &mut *first_pick());
        assert_eq!(
            out.way.size,
            BlockSize::Big,
            "degenerate (4,0) case fills big"
        );
        assert!(s.lookup(S, 11, 5).is_some());
    }

    #[test]
    fn touch_sets_referenced_and_dirty_masks() {
        let mut s = SetArena::new(&geometry());
        let out = s.insert(S, BlockSize::Big, 9, 0, all_big(), &mut *first_pick());
        s.touch(S, out.way, 1, false);
        s.touch(S, out.way, 6, true);
        assert_eq!(s.big_utilization(S, 9), Some((1 << 1) | (1 << 6)));
        let residents: Vec<_> = s.residents(S).collect();
        assert_eq!(residents[0].dirty_mask, 1 << 6);
    }

    #[test]
    fn victim_accounting_helpers() {
        let v = Victim {
            size: BlockSize::Big,
            tag: 0,
            sub_block: 0,
            dirty_mask: 0b101,
            referenced_mask: 0b111,
        };
        assert_eq!(v.dirty_sub_blocks(), 2);
        assert_eq!(v.unreferenced_sub_blocks(8), 5);
        let small = Victim {
            size: BlockSize::Small,
            tag: 0,
            sub_block: 3,
            dirty_mask: 1,
            referenced_mask: 1,
        };
        assert_eq!(small.unreferenced_sub_blocks(8), 0);
    }

    #[test]
    fn state_changes_round_trip_preserving_residents() {
        let mut s = SetArena::new(&geometry());
        for t in 0..4 {
            s.insert(S, BlockSize::Big, t, 0, all_big(), &mut *first_pick());
        }
        // Convert to (3, 8): big tag 3 leaves, tags 0-2 stay.
        s.insert(S, BlockSize::Small, 100, 0, mixed(), &mut *first_pick());
        for t in 0..3 {
            assert!(s.lookup(S, t, 0).is_some(), "big tag {t} must survive");
        }
        assert!(s.lookup(S, 3, 0).is_none());
        // Convert back to (4, 0): small ways leave, bigs stay.
        s.insert(S, BlockSize::Big, 5, 0, all_big(), &mut *first_pick());
        for t in 0..3 {
            assert!(s.lookup(S, t, 0).is_some());
        }
        assert!(s.lookup(S, 5, 0).is_some());
        assert!(s.lookup(S, 100, 0).is_none());
    }

    #[test]
    fn occupancy_counts_both_kinds() {
        let mut s = SetArena::new(&geometry());
        s.insert(S, BlockSize::Big, 1, 0, mixed(), &mut *first_pick());
        s.insert(S, BlockSize::Small, 2, 0, mixed(), &mut *first_pick());
        assert_eq!(s.occupancy(S), 2);
    }

    #[test]
    fn corrupt_and_invalidate_target_resident_ways() {
        let mut s = SetArena::new(&geometry());
        s.insert(S, BlockSize::Big, 42, 0, mixed(), &mut *first_pick());
        s.insert(S, BlockSize::Small, 77, 1, mixed(), &mut *first_pick());
        let ways: Vec<_> = s.occupied_ways(S).collect();
        assert_eq!(ways.len(), 2);
        let (orig, new) = s.corrupt_tag(S, ways[0], 0b100).expect("occupied");
        assert_eq!(orig, 42);
        assert_eq!(new, 42 ^ 0b100);
        assert!(
            s.lookup(S, 42, 0).is_none(),
            "corrupted tag no longer matches"
        );
        assert!(s.lookup(S, new, 0).is_some(), "the flipped tag aliases");
        let v = s.invalidate_way(S, ways[1]).expect("occupied");
        assert_eq!(v.tag, 77);
        assert!(s.lookup(S, 77, 1).is_none());
        assert_eq!(s.occupied_ways(S).count(), 1);
        // Empty ways report None for both operations.
        assert!(s.invalidate_way(S, ways[1]).is_none());
        assert!(s.corrupt_tag(S, ways[1], 1).is_none());
    }

    #[test]
    fn pick_chooses_the_victim() {
        let mut s = SetArena::new(&geometry());
        for t in 0..4 {
            s.insert(S, BlockSize::Big, t, 0, all_big(), &mut *first_pick());
        }
        let mut pick_last: Box<dyn FnMut(u8) -> u8> = Box::new(|n| n - 1);
        s.insert(S, BlockSize::Big, 50, 0, all_big(), &mut *pick_last);
        assert_eq!(s.evicted()[0].tag, 3);
    }

    // ---------------------------------------------------------------
    // Reference model: the layout before the arena, one heap `Vec` per
    // field per set. The logic is unchanged except that `insert` returns
    // its victims instead of leaving them in the arena.

    #[derive(Debug, Clone)]
    struct RefSet {
        state: SetState,
        base_assoc: u8,
        ratio: u8,
        big_valid: u64,
        big_tag: Vec<u64>,
        big_ref: Vec<u16>,
        big_dirty: Vec<u16>,
        small_valid: u64,
        small_dirty: u64,
        small_tag: Vec<u64>,
        small_sub: Vec<u8>,
    }

    impl RefSet {
        fn new(geometry: &CacheGeometry) -> Self {
            let b = geometry.base_assoc();
            let ratio = u8::try_from(geometry.sub_blocks()).expect("ratio fits u8");
            let max_small = usize::from(b - b / 2) * usize::from(ratio);
            RefSet {
                state: SetState { big: b, small: 0 },
                base_assoc: b,
                ratio,
                big_valid: 0,
                big_tag: vec![0; usize::from(b)],
                big_ref: vec![0; usize::from(b)],
                big_dirty: vec![0; usize::from(b)],
                small_valid: 0,
                small_dirty: 0,
                small_tag: vec![0; max_small],
                small_sub: vec![0; max_small],
            }
        }

        fn big_occupied(&self, i: usize) -> bool {
            self.big_valid & (1 << i) != 0
        }

        fn small_occupied(&self, i: usize) -> bool {
            self.small_valid & (1 << i) != 0
        }

        fn lookup(&self, tag: u64, sub_block: u8) -> Option<WayRef> {
            for i in 0..usize::from(self.state.big) {
                if self.big_occupied(i) && self.big_tag[i] == tag {
                    return Some(WayRef {
                        size: BlockSize::Big,
                        index: i as u8,
                    });
                }
            }
            for i in 0..usize::from(self.state.small) {
                if self.small_occupied(i)
                    && self.small_tag[i] == tag
                    && self.small_sub[i] == sub_block
                {
                    return Some(WayRef {
                        size: BlockSize::Small,
                        index: i as u8,
                    });
                }
            }
            None
        }

        fn touch(&mut self, way: WayRef, sub_block: u8, write: bool) {
            let i = usize::from(way.index);
            match way.size {
                BlockSize::Big => {
                    assert!(self.big_occupied(i), "touch of an empty big way");
                    self.big_ref[i] |= 1u16 << sub_block;
                    if write {
                        self.big_dirty[i] |= 1u16 << sub_block;
                    }
                }
                BlockSize::Small => {
                    assert!(self.small_occupied(i), "touch of an empty small way");
                    if write {
                        self.small_dirty |= 1 << i;
                    }
                }
            }
        }

        fn way_tag(&self, way: WayRef) -> Option<(u64, u8)> {
            let i = usize::from(way.index);
            match way.size {
                BlockSize::Big => self.big_occupied(i).then(|| (self.big_tag[i], 0)),
                BlockSize::Small => self
                    .small_occupied(i)
                    .then(|| (self.small_tag[i], self.small_sub[i])),
            }
        }

        fn insert(
            &mut self,
            size: BlockSize,
            tag: u64,
            sub_block: u8,
            global: SetState,
            pick: &mut dyn FnMut(u8) -> u8,
        ) -> (InsertOutcome, Vec<Victim>) {
            match size {
                BlockSize::Big => self.insert_big(tag, global, pick),
                BlockSize::Small => self.insert_small(tag, sub_block, global, pick),
            }
        }

        fn take_small(&mut self, i: usize) -> Victim {
            let dirty = self.small_dirty & (1 << i) != 0;
            self.small_valid &= !(1 << i);
            self.small_dirty &= !(1 << i);
            Victim {
                size: BlockSize::Small,
                tag: self.small_tag[i],
                sub_block: self.small_sub[i],
                dirty_mask: u16::from(dirty),
                referenced_mask: 1,
            }
        }

        fn take_big(&mut self, i: usize) -> Victim {
            self.big_valid &= !(1 << i);
            Victim {
                size: BlockSize::Big,
                tag: self.big_tag[i],
                sub_block: 0,
                dirty_mask: self.big_dirty[i],
                referenced_mask: self.big_ref[i],
            }
        }

        fn insert_big(
            &mut self,
            tag: u64,
            global: SetState,
            pick: &mut dyn FnMut(u8) -> u8,
        ) -> (InsertOutcome, Vec<Victim>) {
            let mut evicted = Vec::new();
            let mut absorbed_dirty = 0u16;
            let mut referenced = 0u16;
            for i in 0..usize::from(self.state.small) {
                if self.small_occupied(i) && self.small_tag[i] == tag {
                    referenced |= 1u16 << self.small_sub[i];
                    if self.small_dirty & (1 << i) != 0 {
                        absorbed_dirty |= 1u16 << self.small_sub[i];
                    }
                    self.small_valid &= !(1 << i);
                    self.small_dirty &= !(1 << i);
                }
            }

            let mut state_changed = false;
            let way_index = if self.state.big < global.big && self.state.big < self.base_assoc {
                let new_small = self.state.small - self.ratio;
                for j in (usize::from(new_small)..usize::from(self.state.small)).rev() {
                    if self.small_occupied(j) {
                        let v = self.take_small(j);
                        evicted.push(v);
                    }
                }
                let idx = self.state.big;
                self.state = SetState {
                    big: self.state.big + 1,
                    small: new_small,
                };
                state_changed = true;
                idx
            } else {
                let limit = self.state.big;
                match (0..limit).find(|&i| !self.big_occupied(usize::from(i))) {
                    Some(empty) => empty,
                    None => {
                        let victim_idx = pick(self.state.big);
                        assert!(victim_idx < self.state.big, "picked big way out of range");
                        let v = self.take_big(usize::from(victim_idx));
                        evicted.push(v);
                        victim_idx
                    }
                }
            };
            let i = usize::from(way_index);
            self.big_valid |= 1 << i;
            self.big_tag[i] = tag;
            self.big_ref[i] = referenced;
            self.big_dirty[i] = absorbed_dirty;
            let outcome = InsertOutcome {
                way: WayRef {
                    size: BlockSize::Big,
                    index: way_index,
                },
                absorbed_mask: referenced,
                absorbed_dirty,
                state_changed,
            };
            (outcome, evicted)
        }

        fn insert_small(
            &mut self,
            tag: u64,
            sub_block: u8,
            global: SetState,
            pick: &mut dyn FnMut(u8) -> u8,
        ) -> (InsertOutcome, Vec<Victim>) {
            let mut evicted = Vec::new();
            let mut state_changed = false;

            if self.state.big > global.big && self.state.big > self.base_assoc / 2 {
                let big_idx = usize::from(self.state.big) - 1;
                if self.big_occupied(big_idx) {
                    let v = self.take_big(big_idx);
                    evicted.push(v);
                }
                self.state = SetState {
                    big: self.state.big - 1,
                    small: self.state.small + self.ratio,
                };
                state_changed = true;
            }

            if self.state.small == 0 {
                let (mut out, mut big_evicted) = self.insert_big(tag, global, pick);
                big_evicted.extend(evicted);
                out.state_changed |= state_changed;
                return (out, big_evicted);
            }

            let limit = self.state.small;
            let way_index = match (0..limit).find(|&i| !self.small_occupied(usize::from(i))) {
                Some(empty) => empty,
                None => {
                    let victim_idx = pick(self.state.small);
                    assert!(
                        victim_idx < self.state.small,
                        "picked small way out of range"
                    );
                    let v = self.take_small(usize::from(victim_idx));
                    evicted.push(v);
                    victim_idx
                }
            };
            let i = usize::from(way_index);
            self.small_valid |= 1 << i;
            self.small_dirty &= !(1 << i);
            self.small_tag[i] = tag;
            self.small_sub[i] = sub_block;
            let outcome = InsertOutcome {
                way: WayRef {
                    size: BlockSize::Small,
                    index: way_index,
                },
                absorbed_mask: 0,
                absorbed_dirty: 0,
                state_changed,
            };
            (outcome, evicted)
        }

        fn residents(&self) -> Vec<Victim> {
            let mut v = Vec::new();
            for i in 0..usize::from(self.state.big) {
                if self.big_occupied(i) {
                    v.push(Victim {
                        size: BlockSize::Big,
                        tag: self.big_tag[i],
                        sub_block: 0,
                        dirty_mask: self.big_dirty[i],
                        referenced_mask: self.big_ref[i],
                    });
                }
            }
            for i in 0..usize::from(self.state.small) {
                if self.small_occupied(i) {
                    v.push(Victim {
                        size: BlockSize::Small,
                        tag: self.small_tag[i],
                        sub_block: self.small_sub[i],
                        dirty_mask: u16::from(self.small_dirty & (1 << i) != 0),
                        referenced_mask: 1,
                    });
                }
            }
            v
        }

        fn occupancy(&self) -> usize {
            let big_mask = mask_below(self.state.big);
            let small_mask = mask_below(self.state.small);
            ((self.big_valid & big_mask).count_ones()
                + (self.small_valid & small_mask).count_ones()) as usize
        }

        fn occupied_ways(&self) -> Vec<WayRef> {
            let mut ways = Vec::new();
            for i in 0..self.state.big {
                if self.big_occupied(usize::from(i)) {
                    ways.push(WayRef {
                        size: BlockSize::Big,
                        index: i,
                    });
                }
            }
            for i in 0..self.state.small {
                if self.small_occupied(usize::from(i)) {
                    ways.push(WayRef {
                        size: BlockSize::Small,
                        index: i,
                    });
                }
            }
            ways
        }

        fn corrupt_tag(&mut self, way: WayRef, xor: u64) -> Option<(u64, u64)> {
            let i = usize::from(way.index);
            match way.size {
                BlockSize::Big => self.big_occupied(i).then(|| {
                    let orig = self.big_tag[i];
                    self.big_tag[i] ^= xor;
                    (orig, self.big_tag[i])
                }),
                BlockSize::Small => self.small_occupied(i).then(|| {
                    let orig = self.small_tag[i];
                    self.small_tag[i] ^= xor;
                    (orig, self.small_tag[i])
                }),
            }
        }

        fn invalidate_way(&mut self, way: WayRef) -> Option<Victim> {
            let i = usize::from(way.index);
            match way.size {
                BlockSize::Big => self.big_occupied(i).then(|| self.take_big(i)),
                BlockSize::Small => self.small_occupied(i).then(|| self.take_small(i)),
            }
        }

        fn small_sibling_count(&self, tag: u64) -> u32 {
            (0..usize::from(self.state.small))
                .filter(|&i| self.small_occupied(i) && self.small_tag[i] == tag)
                .count() as u32
        }

        fn big_utilization(&self, tag: u64) -> Option<u16> {
            (0..usize::from(self.state.big))
                .find(|&i| self.big_occupied(i) && self.big_tag[i] == tag)
                .map(|i| self.big_ref[i])
        }
    }

    impl Snapshot for RefSet {
        fn save(&self, w: &mut SnapshotWriter) {
            self.state.save(w);
            w.u8(self.base_assoc);
            w.u8(self.ratio);
            w.u64(self.big_valid);
            self.big_tag.save(w);
            self.big_ref.save(w);
            self.big_dirty.save(w);
            w.u64(self.small_valid);
            w.u64(self.small_dirty);
            self.small_tag.save(w);
            self.small_sub.save(w);
        }

        fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
            Ok(RefSet {
                state: Snapshot::load(r)?,
                base_assoc: r.u8()?,
                ratio: r.u8()?,
                big_valid: r.u64()?,
                big_tag: Snapshot::load(r)?,
                big_ref: Snapshot::load(r)?,
                big_dirty: Snapshot::load(r)?,
                small_valid: r.u64()?,
                small_dirty: r.u64()?,
                small_tag: Snapshot::load(r)?,
                small_sub: Snapshot::load(r)?,
            })
        }
    }

    fn bytes_of(save: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    /// A way of either kind anywhere in the slot range, so empty ways and
    /// ways outside the current state are drawn too.
    fn any_way(rng: &mut SmallRng, geometry: &CacheGeometry, small_slots: usize) -> WayRef {
        if rng.gen_bool(0.5) {
            WayRef {
                size: BlockSize::Big,
                index: rng.gen_range(0..geometry.base_assoc()),
            }
        } else {
            WayRef {
                size: BlockSize::Small,
                index: rng.gen_range(0..small_slots as u8),
            }
        }
    }

    /// Drives the arena and one reference set per arena set through the
    /// same seeded op sequence, asserting identical answers, victims,
    /// `pick` requests and snapshot bytes after every op.
    fn differential(geometry: &CacheGeometry, seed: u64, ops: usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = SetArena::new(geometry);
        let mut reference: Vec<RefSet> = (0..arena.len()).map(|_| RefSet::new(geometry)).collect();
        let allowed = geometry.allowed_states();
        let ratio = u8::try_from(geometry.sub_blocks()).expect("ratio fits u8");
        let small_slots = arena.small_slots;
        let mut state_changes = 0;
        let mut seen = std::collections::HashSet::new();
        for op in 0..ops {
            let set = rng.gen_range(0..arena.len());
            let ctx = format!("seed {seed}, op {op}, set {set}");
            let r = &mut reference[set];
            let tag = rng.gen_range(0u64..3 * u64::from(geometry.base_assoc()));
            let sub = rng.gen_range(0..ratio);
            match rng.gen_range(0u32..100) {
                0..=49 => {
                    let size = if rng.gen_bool(0.5) {
                        BlockSize::Big
                    } else {
                        BlockSize::Small
                    };
                    let global = allowed[rng.gen_range(0..allowed.len())];
                    let draw = rng.next_u64();
                    let write = rng.gen_bool(0.3);
                    if let Some(way) = r.lookup(tag, sub) {
                        // The controller never re-inserts a resident block.
                        r.touch(way, sub, write);
                        arena.touch(set, way, sub, write);
                    } else {
                        let mut want_picks = Vec::new();
                        let (want, want_evicted) = r.insert(size, tag, sub, global, &mut |n| {
                            want_picks.push(n);
                            (draw % u64::from(n)) as u8
                        });
                        let mut picks = Vec::new();
                        let got = arena.insert(set, size, tag, sub, global, &mut |n| {
                            picks.push(n);
                            (draw % u64::from(n)) as u8
                        });
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(arena.evicted(), &want_evicted[..], "{ctx}");
                        assert_eq!(picks, want_picks, "{ctx}");
                        state_changes += u32::from(got.state_changed);
                        r.touch(want.way, sub, write);
                        arena.touch(set, got.way, sub, write);
                    }
                }
                50..=59 => assert_eq!(arena.lookup(set, tag, sub), r.lookup(tag, sub), "{ctx}"),
                60..=69 => {
                    let ways = r.occupied_ways();
                    if !ways.is_empty() {
                        let way = ways[rng.gen_range(0..ways.len())];
                        let write = rng.gen_bool(0.5);
                        r.touch(way, sub, write);
                        arena.touch(set, way, sub, write);
                    }
                }
                70..=74 => {
                    let way = any_way(&mut rng, geometry, small_slots);
                    let xor = 1u64 << rng.gen_range(0u32..20);
                    let want = r.corrupt_tag(way, xor);
                    assert_eq!(arena.corrupt_tag(set, way, xor), want, "{ctx}");
                }
                75..=79 => {
                    let way = any_way(&mut rng, geometry, small_slots);
                    let want = r.invalidate_way(way);
                    assert_eq!(arena.invalidate_way(set, way), want, "{ctx}");
                }
                80..=89 => {
                    assert_eq!(
                        arena.small_sibling_count(set, tag),
                        r.small_sibling_count(tag),
                        "{ctx}"
                    );
                    assert_eq!(
                        arena.big_utilization(set, tag),
                        r.big_utilization(tag),
                        "{ctx}"
                    );
                }
                90..=94 => {
                    let way = any_way(&mut rng, geometry, small_slots);
                    assert_eq!(arena.way_tag(set, way), r.way_tag(way), "{ctx}");
                }
                _ => {
                    // Snapshot round trip: each side reloads from the
                    // other's bytes, which must be identical.
                    let a = bytes_of(|w| arena.save(w));
                    let b = bytes_of(|w| reference.save(w));
                    assert_eq!(a, b, "{ctx}");
                    arena = SetArena::load(geometry, &mut SnapshotReader::new(&b, "sets"))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    reference = Snapshot::load(&mut SnapshotReader::new(&a, "sets"))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
            }
            let r = &reference[set];
            seen.insert(r.state);
            assert_eq!(arena.state(set), r.state, "{ctx}");
            assert_eq!(arena.occupancy(set), r.occupancy(), "{ctx}");
            assert_eq!(
                arena.residents(set).collect::<Vec<_>>(),
                r.residents(),
                "{ctx}"
            );
            assert_eq!(
                arena.occupied_ways(set).collect::<Vec<_>>(),
                r.occupied_ways(),
                "{ctx}"
            );
            assert_eq!(
                bytes_of(|w| arena.save(w)),
                bytes_of(|w| reference.save(w)),
                "{ctx}"
            );
        }
        // The sequence moved sets through every allowed state, many times.
        assert!(state_changes > 50, "only {state_changes} state changes");
        for state in allowed {
            assert!(seen.contains(&state), "state {state} never reached");
        }
    }

    #[test]
    fn arena_matches_the_vec_per_set_layout_op_for_op() {
        let geometries = [
            // The paper's 2 KB sets: B = 4, ratio 8.
            CacheGeometry::paper_default(8 * 2048),
            // 4 KB sets: B = 8, 32 small slots.
            CacheGeometry {
                cache_bytes: 8 * 4096,
                set_bytes: 4096,
                big_block: 512,
                small_block: 64,
            },
            // 1 KB big blocks: B = 2, ratio 16.
            CacheGeometry {
                cache_bytes: 8 * 2048,
                set_bytes: 2048,
                big_block: 1024,
                small_block: 64,
            },
        ];
        for g in &geometries {
            g.validate().expect("test geometry is valid");
            assert_eq!(g.n_sets(), 8);
            for seed in [1, 0xB10DA1] {
                differential(g, seed, 4000);
            }
        }
    }

    /// Loads a two-set snapshot whose set 1 was edited by `edit`.
    fn load_edited(edit: impl FnOnce(&mut RefSet)) -> Result<SetArena, CkptError> {
        let g = CacheGeometry::paper_default(2 * 2048);
        let mut sets = vec![RefSet::new(&g), RefSet::new(&g)];
        edit(&mut sets[1]);
        let bytes = bytes_of(|w| sets.save(w));
        SetArena::load(&g, &mut SnapshotReader::new(&bytes, "sets"))
    }

    fn corrupt_detail(result: Result<SetArena, CkptError>) -> String {
        match result {
            Err(CkptError::Corrupt { detail, .. }) => detail,
            other => panic!("expected a Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn load_accepts_every_legal_state_and_round_trips() {
        for (big, small) in [(4, 0), (3, 8), (2, 16)] {
            let arena = load_edited(|s| {
                s.state = SetState { big, small };
                s.big_valid = mask_below(big);
                s.small_valid = mask_below(small) & 0b1010_1010;
                s.small_dirty = s.small_valid & 0b10;
                s.big_tag[0] = 77;
                s.small_tag[1] = 99;
            })
            .expect("legal state loads");
            assert_eq!(arena.state(1), SetState { big, small });
            let g = CacheGeometry::paper_default(2 * 2048);
            let again = SetArena::load(
                &g,
                &mut SnapshotReader::new(&bytes_of(|w| arena.save(w)), "sets"),
            )
            .expect("re-saved arena loads");
            assert_eq!(
                bytes_of(|w| again.save(w)),
                bytes_of(|w| arena.save(w)),
                "state ({big}, {small})"
            );
        }
    }

    #[test]
    fn load_rejects_states_the_geometry_cannot_hold() {
        for (big, small) in [(4, 200), (3, 7), (1, 24), (5, 0), (2, 8)] {
            let detail = corrupt_detail(load_edited(|s| s.state = SetState { big, small }));
            assert!(
                detail.contains("set 1") && detail.contains(&format!("({big}, {small})")),
                "{detail}"
            );
        }
    }

    #[test]
    fn load_rejects_a_foreign_set_shape() {
        let detail = corrupt_detail(load_edited(|s| s.base_assoc = 8));
        assert!(detail.contains("set 1 has associativity 8"), "{detail}");
        let detail = corrupt_detail(load_edited(|s| s.ratio = 16));
        assert!(detail.contains("ratio 16"), "{detail}");
        let detail = corrupt_detail(load_edited(|s| s.small_tag.push(0)));
        assert!(detail.contains("set 1 has 17 small tag slots"), "{detail}");
        let detail = corrupt_detail(load_edited(|s| {
            s.big_ref.pop();
        }));
        assert!(
            detail.contains("set 1 has 3 big referenced slots"),
            "{detail}"
        );
    }

    #[test]
    fn load_rejects_masks_outside_the_state() {
        // Big way 3 does not exist in (3, 8).
        let detail = corrupt_detail(load_edited(|s| {
            s.state = SetState { big: 3, small: 8 };
            s.big_valid = 0b1000;
        }));
        assert!(detail.contains("set 1 in state (3, 8)"), "{detail}");
        // Small way 8 does not exist in (3, 8).
        corrupt_detail(load_edited(|s| {
            s.state = SetState { big: 3, small: 8 };
            s.small_valid = 1 << 8;
        }));
        // A dirty bit on an empty small way.
        corrupt_detail(load_edited(|s| {
            s.state = SetState { big: 3, small: 8 };
            s.small_dirty = 0b1;
        }));
    }

    #[test]
    fn load_rejects_a_set_count_mismatch() {
        let g = CacheGeometry::paper_default(2 * 2048);
        let sets = vec![RefSet::new(&g); 3];
        let bytes = bytes_of(|w| sets.save(w));
        let detail = corrupt_detail(SetArena::load(&g, &mut SnapshotReader::new(&bytes, "sets")));
        assert!(detail.contains("3 sets, geometry expects 2"), "{detail}");
    }
}
