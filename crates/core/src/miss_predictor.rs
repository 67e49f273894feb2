//! Optional DRAM-cache hit/miss predictor (the paper's footnote 11).
//!
//! The paper deliberately ships the Bi-Modal cache *without* a miss
//! predictor, noting that the SRAM-based predictors of Loh-Hill and
//! AlloyCache "could also be deployed" as an orthogonal optimization
//! aimed at miss latency. This module provides that extension: a
//! region-indexed table of 2-bit saturating counters (1 KB, like
//! AlloyCache's MAP budget). When it predicts a miss, the controller
//! launches the off-chip fetch in parallel with the DRAM tag check
//! instead of after it; a wrong prediction costs one wasted fetch.
//!
//! AlloyCache's memory-access predictor (MAP) is the same table, so the
//! AlloyCache baseline uses this type too.

/// Region-indexed hit/miss predictor.
///
/// # Example
///
/// ```
/// use bimodal_core::MissPredictor;
///
/// let mut mp = MissPredictor::new();
/// assert!(mp.predict_hit(0x80_0000)); // conservative: no speculation yet
/// for _ in 0..4 {
///     mp.update(0x80_0000, false);
/// }
/// assert!(!mp.predict_hit(0x80_0000)); // the region now predicts miss
/// ```
#[derive(Debug, Clone)]
pub struct MissPredictor {
    counters: Vec<u8>,
    region_shift: u32,
    correct: u64,
    wrong: u64,
}

impl MissPredictor {
    /// A 4096-entry (1 KB) predictor over 4 KB regions, initialized to
    /// predict hits (conservative: no speculative fetches until misses
    /// are observed).
    #[must_use]
    pub fn new() -> Self {
        MissPredictor {
            counters: vec![3; 4096],
            region_shift: 12,
            correct: 0,
            wrong: 0,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        (addr >> self.region_shift) as usize & (self.counters.len() - 1)
    }

    /// Predicts whether `addr` will hit in the DRAM cache.
    #[inline]
    #[must_use]
    pub fn predict_hit(&self, addr: u64) -> bool {
        self.counters[self.index(addr)] >= 2
    }

    /// Trains with the observed outcome and tracks accuracy.
    #[inline]
    pub fn update(&mut self, addr: u64, hit: bool) {
        // Index once: update sits on the miss path of every access.
        let i = self.index(addr);
        if (self.counters[i] >= 2) == hit {
            self.correct += 1;
        } else {
            self.wrong += 1;
        }
        if hit {
            self.counters[i] = (self.counters[i] + 1).min(3);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
    }

    /// Flips one bit of a randomly chosen counter — a predictor upset
    /// only ever disturbs a hint (a wrong prediction costs a wasted or
    /// serialized fetch, never correctness).
    pub fn upset_counter(&mut self, rng: &mut bimodal_prng::SmallRng) {
        let idx = rng.gen_range(0..self.counters.len());
        let bit = rng.gen_range(0u8..2);
        self.counters[idx] ^= 1 << bit;
    }

    /// Prediction accuracy so far (0 when untrained).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let t = self.correct + self.wrong;
        if t == 0 {
            0.0
        } else {
            self.correct as f64 / t as f64
        }
    }
}

impl Default for MissPredictor {
    fn default() -> Self {
        MissPredictor::new()
    }
}

impl MissPredictor {
    /// Serializes the counter table and accuracy counters.
    pub fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot;
        self.counters.save(w);
        w.u64(self.correct);
        w.u64(self.wrong);
    }

    /// Restores state written by [`MissPredictor::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        use bimodal_ckpt::Snapshot;
        let counters: Vec<u8> = Snapshot::load(r)?;
        if counters.len() != self.counters.len() {
            return Err(r.corrupt(format!(
                "miss predictor has {} counters in checkpoint, {} configured",
                counters.len(),
                self.counters.len()
            )));
        }
        if counters.iter().any(|&c| c > 3) {
            return Err(r.corrupt("miss predictor counter out of 2-bit range"));
        }
        self.counters = counters;
        self.correct = r.u64()?;
        self.wrong = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_predicting_hits() {
        let p = MissPredictor::new();
        assert!(p.predict_hit(0x1234_0000));
    }

    #[test]
    fn learns_miss_regions() {
        let mut p = MissPredictor::new();
        for _ in 0..3 {
            p.update(0x8_0000, false);
        }
        assert!(!p.predict_hit(0x8_0000));
        // A different region is unaffected.
        assert!(p.predict_hit(0x4000_0000));
    }

    #[test]
    fn relearns_hits() {
        let mut p = MissPredictor::new();
        for _ in 0..4 {
            p.update(0x8_0000, false);
        }
        for _ in 0..3 {
            p.update(0x8_0000, true);
        }
        assert!(p.predict_hit(0x8_0000));
    }

    #[test]
    fn accuracy_reflects_history() {
        let mut p = MissPredictor::new();
        p.update(0, true); // predicted hit, was hit: correct
        p.update(0, false); // predicted hit, was miss: wrong
        assert!((p.accuracy() - 0.5).abs() < 1e-12);
    }
}
