//! Off-chip main memory: a DRAM module addressed by physical address.

use crate::address::AddressMapping;
use crate::config::DramConfig;
use crate::controller::DramModule;
use crate::request::{Completion, Op, Request};
use crate::stats::DramStats;
use crate::timing::Cycle;

/// Off-chip DRAM main memory.
///
/// Wraps a [`DramModule`] with the paper's `row-rank-bank-mc-column`
/// address interleaving so callers issue transfers by physical address.
/// A transfer that spans multiple rows is split into per-row transactions
/// and the completion of the last one is returned.
/// # Example
///
/// ```
/// use bimodal_dram::{DramConfig, MainMemory};
///
/// let mut mem = MainMemory::new(DramConfig::ddr3(1, 2));
/// let first = mem.read(0x4000, 64, 0);
/// let second = mem.read(0x4040, 64, first.done); // same row: faster
/// assert!(second.latency() < first.latency());
/// ```
#[derive(Debug)]
pub struct MainMemory {
    module: DramModule,
    mapping: AddressMapping,
}

impl MainMemory {
    /// Creates main memory from a DRAM configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`DramModule::new`]).
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        let mapping = AddressMapping::new(&config);
        MainMemory {
            module: DramModule::new(config),
            mapping,
        }
    }

    /// Transfers `bytes` starting at physical address `addr`.
    ///
    /// Returns the completion of the final split transaction (row-crossing
    /// transfers pay for every row touched, which is how large-block
    /// fetches consume extra off-chip bandwidth).
    pub fn transfer(&mut self, addr: u64, bytes: u32, op: Op, at: Cycle) -> Completion {
        assert!(bytes > 0, "zero-byte main-memory transfer");
        let row_bytes = self.module.config().row_bytes;
        let mut remaining = bytes;
        let mut cursor = addr;
        let mut when = at;
        let mut first: Option<Completion> = None;
        let mut last: Completion;
        loop {
            let d = self.mapping.decode(cursor);
            // `column` is the offset within the row, already below it.
            let in_row = row_bytes - d.column;
            let chunk = remaining.min(in_row);
            last = self.module.access(Request {
                loc: d.loc,
                bytes: chunk,
                op,
                arrival: when,
            });
            first.get_or_insert(last);
            remaining -= chunk;
            if remaining == 0 {
                break;
            }
            cursor += u64::from(chunk);
            when = last.done;
        }
        Completion {
            arrival: at,
            start: first.map_or(last.start, |f| f.start),
            done: last.done,
            row_event: first.map_or(last.row_event, |f| f.row_event),
        }
    }

    /// Reads `bytes` at `addr`.
    pub fn read(&mut self, addr: u64, bytes: u32, at: Cycle) -> Completion {
        self.transfer(addr, bytes, Op::Read, at)
    }

    /// Writes `bytes` at `addr` (e.g. a dirty writeback).
    pub fn write(&mut self, addr: u64, bytes: u32, at: Cycle) -> Completion {
        self.transfer(addr, bytes, Op::Write, at)
    }

    /// Sets the traffic class attributed to subsequent transfers (see
    /// [`DramModule::set_class`]).
    #[inline]
    pub fn set_class(&mut self, class: bimodal_obs::TrafficClass) {
        self.module.set_class(class);
    }

    /// Marks subsequent transfers as drained background work (see
    /// [`DramModule::set_deferred_mode`]).
    #[inline]
    pub fn set_deferred_mode(&mut self, on: bool) {
        self.module.set_deferred_mode(on);
    }

    /// Per-class bandwidth and occupancy counters.
    #[must_use]
    pub fn bandwidth(&self) -> &bimodal_obs::BandwidthTracker {
        self.module.bandwidth()
    }

    /// Aggregate DRAM statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.module.stats()
    }

    /// Clears statistics, keeping timing state.
    pub fn reset_stats(&mut self) {
        self.module.reset_stats();
    }

    /// The underlying module (for tests and detailed inspection).
    #[must_use]
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// The address mapping in use.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Serializes the underlying module's mutable state. The address
    /// mapping is config-derived and not written.
    pub fn save_state(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        self.module.save_state(w);
    }

    /// Restores state written by [`MainMemory::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        self.module.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn memory() -> MainMemory {
        let mut c = DramConfig::ddr3(2, 2);
        c.timing = TimingParams::ddr3_1600h(2).without_refresh();
        MainMemory::new(c)
    }

    #[test]
    fn read_accounts_bytes() {
        let mut m = memory();
        m.read(0x1000, 64, 0);
        assert_eq!(m.stats().totals.bytes_read, 64);
    }

    #[test]
    fn sequential_64b_reads_in_one_row_hit_row_buffer() {
        let mut m = memory();
        let a = m.read(0x10000, 64, 0);
        let b = m.read(0x10040, 64, a.done);
        assert!(b.latency() < a.latency());
        assert_eq!(m.stats().totals.row_hits, 1);
    }

    #[test]
    fn row_crossing_transfer_splits() {
        let mut m = memory();
        // Start 64 bytes before the end of a row; 128-byte read spans two.
        let row_end = 2048 - 64;
        let c = m.read(row_end as u64, 128, 0);
        assert_eq!(m.stats().totals.accesses(), 2);
        assert_eq!(m.stats().totals.bytes_read, 128);
        assert!(c.done > 0);
    }

    #[test]
    fn write_counts_bytes_written() {
        let mut m = memory();
        m.write(0x2000, 64, 10);
        assert_eq!(m.stats().totals.bytes_written, 64);
        assert_eq!(m.stats().totals.writes, 1);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_transfer_panics() {
        let mut m = memory();
        m.read(0, 0, 0);
    }

    #[test]
    fn big_block_fetch_costs_more_than_small() {
        let mut m = memory();
        let small = m.read(0x100_0000, 64, 0);
        let mut m2 = memory();
        let big = m2.read(0x100_0000, 512, 0);
        assert!(big.latency() > small.latency());
    }
}
