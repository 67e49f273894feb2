//! Event counters collected by a DRAM module.

use crate::bank::RowEvent;
use crate::request::Op;

/// Counters for one bank (used e.g. to compare the metadata bank's
/// row-buffer hit rate against data banks, Fig. 9b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses that conflicted with a different open row.
    pub row_misses: u64,
    /// Accesses to a closed bank.
    pub row_empty: u64,
    /// Activate commands issued.
    pub activates: u64,
    /// Precharge commands issued.
    pub precharges: u64,
    /// Read transactions.
    pub reads: u64,
    /// Write transactions.
    pub writes: u64,
    /// Bytes read out of the bank.
    pub bytes_read: u64,
    /// Bytes written into the bank.
    pub bytes_written: u64,
}

impl BankStats {
    /// Total accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.row_hits + self.row_misses + self.row_empty
    }

    /// Row-buffer hit rate in `[0, 1]`; zero when no accesses were seen.
    #[must_use]
    pub fn row_buffer_hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total bytes moved in either direction.
    #[must_use]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Records a row-buffer event (hit/miss/empty) and the activate and
    /// precharge commands it implies.
    pub(crate) fn record_row_event(&mut self, event: RowEvent) {
        match event {
            RowEvent::Hit => self.row_hits += 1,
            RowEvent::Miss => {
                self.row_misses += 1;
                self.precharges += 1;
                self.activates += 1;
            }
            RowEvent::Empty => {
                self.row_empty += 1;
                self.activates += 1;
            }
        }
    }

    /// Records a column access (read or write) of `bytes`.
    pub(crate) fn record_op(&mut self, op: Op, bytes: u32) {
        match op {
            Op::Read => {
                self.reads += 1;
                self.bytes_read += u64::from(bytes);
            }
            Op::Write => {
                self.writes += 1;
                self.bytes_written += u64::from(bytes);
            }
        }
    }
}

/// Module-wide statistics: the sum over all banks plus refresh events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Aggregate of all per-bank counters.
    pub totals: BankStats,
    /// Refresh windows that delayed at least one request.
    pub refresh_stalls: u64,
}

impl DramStats {
    /// Row-buffer hit rate over the whole module.
    #[must_use]
    pub fn row_buffer_hit_rate(&self) -> f64 {
        self.totals.row_buffer_hit_rate()
    }
}

bimodal_ckpt::snapshot_fields! {
    BankStats {
        row_hits, row_misses, row_empty, activates, precharges, reads, writes,
        bytes_read, bytes_written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rbh_is_zero_without_accesses() {
        assert_eq!(BankStats::default().row_buffer_hit_rate(), 0.0);
    }

    #[test]
    fn record_counts_events_and_bytes() {
        let mut s = BankStats::default();
        s.record_row_event(RowEvent::Empty);
        s.record_op(Op::Read, 64);
        s.record_row_event(RowEvent::Hit);
        s.record_op(Op::Read, 64);
        s.record_row_event(RowEvent::Miss);
        s.record_op(Op::Write, 128);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.activates, 2);
        assert_eq!(s.precharges, 1);
        assert_eq!(s.bytes_read, 128);
        assert_eq!(s.bytes_written, 128);
        assert!((s.row_buffer_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
