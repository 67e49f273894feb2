//! Epoch time-series: periodic snapshots of the simulation's vital signs.
//!
//! Aggregate numbers hide phase behaviour — a run whose hit rate climbs
//! from 40% to 95% as the working set loads prints the same average as a
//! steady 70% run, yet they stress the memory system completely
//! differently. The recorder closes an *epoch* every `epoch_cycles`
//! simulated cycles and stores the **deltas** of a small counter set, so
//! each snapshot describes that window alone (bandwidth over time,
//! Banshee-style bloat accounting, warm-up visibility).

use crate::json::Json;

/// The cumulative counters the engine feeds the recorder. The recorder
/// differences consecutive readings itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// DRAM-cache requests serviced.
    pub accesses: u64,
    /// Requests that hit.
    pub hits: u64,
    /// Stacked-DRAM row-buffer hits.
    pub row_hits: u64,
    /// Stacked-DRAM row events (hits + misses + empties).
    pub row_accesses: u64,
    /// Bytes moved over the off-chip bus.
    pub offchip_bytes: u64,
    /// Off-chip bytes fetched but never referenced (wasted).
    pub wasted_bytes: u64,
}

impl Counters {
    fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            row_hits: self.row_hits - earlier.row_hits,
            row_accesses: self.row_accesses - earlier.row_accesses,
            offchip_bytes: self.offchip_bytes - earlier.offchip_bytes,
            wasted_bytes: self.wasted_bytes - earlier.wasted_bytes,
        }
    }
}

/// One closed epoch: counter deltas over `[start_cycle, end_cycle)` plus
/// instantaneous gauges sampled at the close.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSnapshot {
    /// First cycle of the epoch.
    pub start_cycle: u64,
    /// Cycle the epoch closed at.
    pub end_cycle: u64,
    /// Counter deltas within the epoch.
    pub delta: Counters,
    /// Requests queued in the memory system when the epoch closed
    /// (controller queue + deferred background operations).
    pub queue_occupancy: u64,
}

impl EpochSnapshot {
    /// Hit rate within this epoch.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.delta.hits, self.delta.accesses)
    }

    /// Stacked-DRAM row-buffer hit rate within this epoch.
    #[must_use]
    pub fn row_buffer_hit_rate(&self) -> f64 {
        ratio(self.delta.row_hits, self.delta.row_accesses)
    }

    /// Off-chip bytes per cycle within this epoch.
    #[must_use]
    pub fn offchip_bytes_per_cycle(&self) -> f64 {
        ratio(
            self.delta.offchip_bytes,
            self.end_cycle.saturating_sub(self.start_cycle),
        )
    }

    /// Serializes the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("start_cycle", self.start_cycle)
            .set("end_cycle", self.end_cycle)
            .set("accesses", self.delta.accesses)
            .set("hits", self.delta.hits)
            .set("hit_rate", self.hit_rate())
            .set("row_buffer_hit_rate", self.row_buffer_hit_rate())
            .set("offchip_bytes", self.delta.offchip_bytes)
            .set("wasted_bytes", self.delta.wasted_bytes)
            .set("offchip_bytes_per_cycle", self.offchip_bytes_per_cycle())
            .set("queue_occupancy", self.queue_occupancy);
        o
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Closes epochs on a fixed simulated-cycle grid and stores the series.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecorder {
    epoch_cycles: u64,
    next_boundary: u64,
    epoch_start: u64,
    last: Counters,
    epochs: Vec<EpochSnapshot>,
}

impl EpochRecorder {
    /// A recorder sampling every `epoch_cycles` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is zero.
    #[must_use]
    pub fn new(epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "epoch length must be positive");
        EpochRecorder {
            epoch_cycles,
            next_boundary: epoch_cycles,
            epoch_start: 0,
            last: Counters::default(),
            epochs: Vec::new(),
        }
    }

    /// The configured epoch length in cycles.
    #[must_use]
    pub fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    /// Whether `now` has crossed the next epoch boundary, i.e. whether
    /// [`EpochRecorder::observe`] at `now` would close an epoch. Lets the
    /// caller build the counters only when they will be read.
    #[inline]
    #[must_use]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_boundary
    }

    /// Offers the current cumulative counters at simulated time `now`;
    /// closes (possibly several) epochs if `now` crossed a boundary.
    /// The first branch makes this O(1) and branch-predictable in the
    /// common no-boundary case.
    #[inline]
    pub fn observe(&mut self, now: u64, counters: &Counters, queue_occupancy: u64) {
        if !self.due(now) {
            return;
        }
        self.epochs.push(EpochSnapshot {
            start_cycle: self.epoch_start,
            end_cycle: now,
            delta: counters.delta(&self.last),
            queue_occupancy,
        });
        self.last = *counters;
        self.epoch_start = now;
        // Re-arm on the grid; skip boundaries the simulation jumped over.
        self.next_boundary = (now / self.epoch_cycles + 1) * self.epoch_cycles;
    }

    /// Closes the final, partial epoch (call once at end of run).
    pub fn finish(&mut self, now: u64, counters: &Counters, queue_occupancy: u64) {
        if now > self.epoch_start && counters.accesses > self.last.accesses {
            self.epochs.push(EpochSnapshot {
                start_cycle: self.epoch_start,
                end_cycle: now,
                delta: counters.delta(&self.last),
                queue_occupancy,
            });
            self.last = *counters;
            self.epoch_start = now;
        }
    }

    /// The recorded series.
    #[must_use]
    pub fn epochs(&self) -> &[EpochSnapshot] {
        &self.epochs
    }

    /// Serializes the whole series as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(self.epochs.iter().map(EpochSnapshot::to_json).collect())
    }
}

bimodal_ckpt::snapshot_fields! {
    Counters { accesses, hits, row_hits, row_accesses, offchip_bytes, wasted_bytes }
}

bimodal_ckpt::snapshot_fields! { EpochSnapshot { start_cycle, end_cycle, delta, queue_occupancy } }

impl bimodal_ckpt::Snapshot for EpochRecorder {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.u64(self.epoch_cycles);
        w.u64(self.next_boundary);
        w.u64(self.epoch_start);
        self.last.save(w);
        self.epochs.save(w);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        let epoch_cycles = r.u64()?;
        if epoch_cycles == 0 {
            return Err(r.corrupt("zero epoch length"));
        }
        Ok(EpochRecorder {
            epoch_cycles,
            next_boundary: r.u64()?,
            epoch_start: r.u64()?,
            last: bimodal_ckpt::Snapshot::load(r)?,
            epochs: bimodal_ckpt::Snapshot::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(accesses: u64, hits: u64, offchip: u64) -> Counters {
        Counters {
            accesses,
            hits,
            row_hits: hits / 2,
            row_accesses: accesses,
            offchip_bytes: offchip,
            wasted_bytes: offchip / 4,
        }
    }

    #[test]
    fn no_snapshot_before_first_boundary() {
        let mut r = EpochRecorder::new(1000);
        r.observe(10, &counters(5, 2, 64), 0);
        r.observe(999, &counters(50, 20, 640), 1);
        assert!(r.epochs().is_empty());
    }

    #[test]
    fn snapshots_store_deltas_not_cumulatives() {
        let mut r = EpochRecorder::new(1000);
        r.observe(1000, &counters(100, 60, 6400), 3);
        r.observe(2000, &counters(150, 90, 9600), 5);
        let e = r.epochs();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].delta.accesses, 100);
        assert_eq!(e[1].delta.accesses, 50);
        assert_eq!(e[1].delta.hits, 30);
        assert_eq!(e[1].delta.offchip_bytes, 3200);
        assert_eq!(e[1].start_cycle, 1000);
        assert_eq!(e[1].queue_occupancy, 5);
        assert!((e[1].hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn skipped_boundaries_collapse_into_one_epoch() {
        let mut r = EpochRecorder::new(100);
        // Simulation time jumps over 5 boundaries at once.
        r.observe(550, &counters(10, 5, 0), 0);
        assert_eq!(r.epochs().len(), 1);
        assert_eq!(r.epochs()[0].end_cycle, 550);
        // Next boundary re-armed on the grid.
        r.observe(599, &counters(11, 5, 0), 0);
        assert_eq!(r.epochs().len(), 1);
        r.observe(600, &counters(12, 6, 0), 0);
        assert_eq!(r.epochs().len(), 2);
    }

    #[test]
    fn finish_flushes_the_partial_tail() {
        let mut r = EpochRecorder::new(1000);
        r.observe(1000, &counters(100, 50, 0), 0);
        r.finish(1500, &counters(130, 70, 0), 2);
        let e = r.epochs();
        assert_eq!(e.len(), 2);
        assert_eq!(e[1].end_cycle, 1500);
        assert_eq!(e[1].delta.accesses, 30);
        // A finish with nothing new records nothing.
        let mut r2 = EpochRecorder::new(1000);
        r2.finish(0, &Counters::default(), 0);
        assert!(r2.epochs().is_empty());
    }

    #[test]
    fn json_series_has_expected_keys() {
        let mut r = EpochRecorder::new(10);
        r.observe(10, &counters(4, 2, 128), 1);
        let j = r.to_json();
        let arr = j.as_arr().expect("array");
        assert_eq!(arr.len(), 1);
        for key in [
            "start_cycle",
            "end_cycle",
            "accesses",
            "hit_rate",
            "row_buffer_hit_rate",
            "offchip_bytes",
            "wasted_bytes",
            "queue_occupancy",
        ] {
            assert!(arr[0].get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_length_panics() {
        let _ = EpochRecorder::new(0);
    }
}
