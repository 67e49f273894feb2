//! The next-N-lines prefetcher of Section V-I.
//!
//! Observes LLSC misses and prefetches the next `N` spatially adjacent
//! 64 B lines, provided they are not already present in the LLSC. The
//! LLSC-presence check is modelled with a bounded set-associative filter
//! tracking recently fetched lines.
//!
//! The two DRAM-cache-side policies of Table VI are selected per scheme:
//! `PREF_NORMAL` treats prefetches like demand accesses; `PREF_BYPASS`
//! (configured on the Bi-Modal cache itself) sends prefetch misses around
//! the cache without allocating.

/// How the DRAM cache treats prefetch requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchMode {
    /// Prefetches allocate like demand accesses (PREF_NORMAL).
    Normal,
    /// Prefetch misses bypass the DRAM cache (PREF_BYPASS).
    Bypass,
}

const LINE: u64 = 64;
const FILTER_WAYS: usize = 8;

/// Next-N-lines prefetcher with an LLSC-presence filter.
///
/// # Example
///
/// ```
/// use bimodal_sim::{NextNPrefetcher, PrefetchMode};
///
/// let mut pf = NextNPrefetcher::new(2, PrefetchMode::Normal, 1024);
/// pf.observe(0x1000);
/// assert_eq!(pf.candidates(0x1000), vec![0x1040, 0x1080]);
/// ```
#[derive(Debug)]
pub struct NextNPrefetcher {
    n: u32,
    mode: PrefetchMode,
    /// Set-associative LRU filter of line addresses "in the LLSC".
    filter: Vec<Vec<u64>>,
    issued: u64,
    suppressed: u64,
}

impl NextNPrefetcher {
    /// Builds a prefetcher of depth `n` with an LLSC filter of
    /// `filter_lines` entries.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `filter_lines` is zero.
    #[must_use]
    pub fn new(n: u32, mode: PrefetchMode, filter_lines: usize) -> Self {
        assert!(n > 0, "prefetch depth must be positive");
        assert!(
            filter_lines >= FILTER_WAYS,
            "filter must hold at least one set"
        );
        let sets = (filter_lines / FILTER_WAYS).next_power_of_two();
        NextNPrefetcher {
            n,
            mode,
            filter: vec![Vec::new(); sets],
            issued: 0,
            suppressed: 0,
        }
    }

    /// The DRAM-cache-side policy.
    #[must_use]
    pub fn mode(&self) -> PrefetchMode {
        self.mode
    }

    fn set_of(&self, line: u64) -> usize {
        usize::try_from(line % self.filter.len() as u64).expect("fits usize")
    }

    /// Is `addr`'s line believed to be in the LLSC?
    #[must_use]
    pub fn in_llsc(&self, addr: u64) -> bool {
        let line = addr / LINE;
        self.filter[self.set_of(line)].contains(&line)
    }

    /// Records that `addr`'s line is now present in the LLSC.
    pub fn mark_present(&mut self, addr: u64) {
        let line = addr / LINE;
        let set = self.set_of(line);
        let ways = &mut self.filter[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            let l = ways.remove(pos);
            ways.insert(0, l);
        } else {
            ways.insert(0, line);
            if ways.len() > FILTER_WAYS {
                ways.pop();
            }
        }
    }

    /// Observes a demand LLSC miss (the line is being brought in).
    pub fn observe(&mut self, addr: u64) {
        self.mark_present(addr);
    }

    /// The next-N line addresses worth prefetching after a miss to `addr`
    /// (those not already present in the LLSC filter).
    pub fn candidates(&mut self, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.candidates_into(addr, &mut out);
        out
    }

    /// [`NextNPrefetcher::candidates`] into a caller-owned buffer, so the
    /// engine's issue loop reuses one scratch allocation across accesses.
    /// `out` is cleared first.
    pub fn candidates_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        out.clear();
        let base = addr & !(LINE - 1);
        for k in 1..=u64::from(self.n) {
            let line_addr = base + k * LINE;
            if self.in_llsc(line_addr) {
                self.suppressed += 1;
            } else {
                out.push(line_addr);
                self.issued += 1;
            }
        }
    }

    /// Prefetches issued and suppressed (already-present) so far.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.issued, self.suppressed)
    }

    /// Serializes the LLSC-presence filter and issue counters (depth and
    /// mode are rebuilt from the experiment setup).
    pub fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        self.filter.save(w);
        w.u64(self.issued);
        w.u64(self.suppressed);
    }

    /// Restores state written by [`NextNPrefetcher::save_state`],
    /// rejecting a snapshot taken under a different filter size.
    pub fn load_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        let filter: Vec<Vec<u64>> = Snapshot::load(r)?;
        if filter.len() != self.filter.len() {
            return Err(r.corrupt(format!(
                "prefetch filter has {} sets in checkpoint, {} configured",
                filter.len(),
                self.filter.len()
            )));
        }
        self.filter = filter;
        self.issued = r.u64()?;
        self.suppressed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetches_next_n_lines() {
        let mut p = NextNPrefetcher::new(3, PrefetchMode::Normal, 1024);
        p.observe(0x1000);
        let c = p.candidates(0x1000);
        assert_eq!(c, vec![0x1040, 0x1080, 0x10C0]);
    }

    #[test]
    fn present_lines_are_suppressed() {
        let mut p = NextNPrefetcher::new(2, PrefetchMode::Normal, 1024);
        p.mark_present(0x1040);
        let c = p.candidates(0x1000);
        assert_eq!(c, vec![0x1080]);
        assert_eq!(p.counts(), (1, 1));
    }

    #[test]
    fn filter_is_lru_and_bounded() {
        let mut p = NextNPrefetcher::new(1, PrefetchMode::Normal, 8);
        // One set of 8 ways (8 lines total): fill beyond capacity.
        for k in 0..20u64 {
            p.mark_present(k * 64 * 8); // force same set? stride by sets
        }
        let total: usize = p.filter.iter().map(Vec::len).sum();
        assert!(total <= 8 * p.filter.len());
    }

    #[test]
    fn unaligned_addresses_are_line_aligned() {
        let mut p = NextNPrefetcher::new(1, PrefetchMode::Bypass, 1024);
        let c = p.candidates(0x1007);
        assert_eq!(c, vec![0x1040]);
        assert_eq!(p.mode(), PrefetchMode::Bypass);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        let _ = NextNPrefetcher::new(0, PrefetchMode::Normal, 64);
    }
}
