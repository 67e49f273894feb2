//! Time-ordered deferral of background DRAM operations.
//!
//! Cache fills, metadata updates and dirty writebacks happen *after* the
//! demand access that triggered them (e.g. when the off-chip fetch
//! returns). The transaction-level resource model requires operations to
//! arrive in nondecreasing time order — issuing a future-dated fill
//! immediately would reserve banks and buses ahead of demand accesses
//! that actually come first. Schemes therefore `defer` background
//! operations and `drain` them at the start of each access, once
//! simulation time has caught up.

use std::collections::VecDeque;

use bimodal_obs::TrafficClass;

use crate::request::Location;
use crate::timing::Cycle;

/// A background DRAM operation to execute later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeferredOp {
    /// Write `bytes` into the stacked cache at `loc` (a fill or metadata
    /// update); uses the open row if it still is.
    CacheWrite {
        /// Target bank/row.
        loc: Location,
        /// Bytes written.
        bytes: u32,
        /// Traffic class the write's bandwidth is attributed to.
        class: TrafficClass,
    },
    /// Write `bytes` to main memory at `addr` (a dirty writeback).
    MainWrite {
        /// Physical byte address.
        addr: u64,
        /// Bytes written.
        bytes: u32,
        /// Traffic class the write's bandwidth is attributed to.
        class: TrafficClass,
    },
}

/// Deferred operations in execution order: a ring kept sorted by
/// `(time, sequence number)`, so ops due at the same cycle run in push
/// order. Pushes are almost always due last (they are scheduled at
/// completions, which trail the clock), so an insert usually lands at
/// the tail after one comparison, and the next due op is always at the
/// front.
#[derive(Debug, Default)]
pub struct DeferredQueue {
    ring: VecDeque<(Cycle, u64, DeferredOp)>,
    seq: u64,
}

impl DeferredQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        DeferredQueue::default()
    }

    /// Schedules `op` for execution at cycle `at`.
    pub fn push(&mut self, at: Cycle, op: DeferredOp) {
        self.insert((at, self.seq, op));
        self.seq += 1;
    }

    /// Inserts `entry` at its `(time, sequence)` position, scanning back
    /// from the tail.
    fn insert(&mut self, entry: (Cycle, u64, DeferredOp)) {
        let key = (entry.0, entry.1);
        let mut i = self.ring.len();
        while i > 0 && (self.ring[i - 1].0, self.ring[i - 1].1) > key {
            i -= 1;
        }
        self.ring.insert(i, entry);
    }

    /// Pops the next operation due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, DeferredOp)> {
        if self.ring.front().is_some_and(|&(at, _, _)| at <= now) {
            self.ring.pop_front().map(|(at, _, op)| (at, op))
        } else {
            None
        }
    }

    /// Number of operations still queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Fault injection: delays the `n`-th pending operation (in execution
    /// order) by `extra` cycles, modelling a late DRAM response. Returns
    /// false when fewer than `n + 1` operations are pending.
    pub fn delay_nth(&mut self, n: usize, extra: Cycle) -> bool {
        match self.ring.remove(n) {
            Some((at, seq, op)) => {
                self.insert((at + extra, seq, op));
                true
            }
            None => false,
        }
    }

    /// Fault injection: drops the `n`-th pending operation, modelling a
    /// lost DRAM response (the background write never happens). Returns
    /// false when fewer than `n + 1` operations are pending.
    pub fn drop_nth(&mut self, n: usize) -> bool {
        self.ring.remove(n).is_some()
    }

    /// Fault injection: enqueues a second copy of the `n`-th pending
    /// operation, modelling a duplicated DRAM response (the write is
    /// replayed, costing bandwidth). Returns false when fewer than `n + 1`
    /// operations are pending.
    pub fn duplicate_nth(&mut self, n: usize) -> bool {
        match self.ring.get(n) {
            Some(&(at, _, op)) => {
                self.push(at, op);
                true
            }
            None => false,
        }
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl bimodal_ckpt::Snapshot for DeferredOp {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        match self {
            DeferredOp::CacheWrite { loc, bytes, class } => {
                w.u8(0);
                loc.save(w);
                w.u32(*bytes);
                class.save(w);
            }
            DeferredOp::MainWrite { addr, bytes, class } => {
                w.u8(1);
                w.u64(*addr);
                w.u32(*bytes);
                class.save(w);
            }
        }
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        match r.u8()? {
            0 => Ok(DeferredOp::CacheWrite {
                loc: bimodal_ckpt::Snapshot::load(r)?,
                bytes: r.u32()?,
                class: bimodal_ckpt::Snapshot::load(r)?,
            }),
            1 => Ok(DeferredOp::MainWrite {
                addr: r.u64()?,
                bytes: r.u32()?,
                class: bimodal_ckpt::Snapshot::load(r)?,
            }),
            b => Err(r.corrupt(format!("invalid deferred op tag {b}"))),
        }
    }
}

impl bimodal_ckpt::Snapshot for DeferredQueue {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        // Entries in execution order, so the bytes are deterministic for
        // a given logical queue state.
        self.ring.save(w);
        w.u64(self.seq);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        let mut ring: VecDeque<(Cycle, u64, DeferredOp)> = bimodal_ckpt::Snapshot::load(r)?;
        let seq = r.u64()?;
        if ring.iter().any(|&(_, s, _)| s >= seq) {
            return Err(r.corrupt("deferred entry sequence number beyond next seq"));
        }
        // Any entry order loads; the ring must be in execution order.
        ring.make_contiguous().sort_unstable();
        Ok(DeferredQueue { ring, seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bimodal_ckpt::{Snapshot as _, SnapshotWriter};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The min-heap the ring replaced, kept as the reference the
    /// differential test checks the ring against.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(Cycle, u64, DeferredOp)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, at: Cycle, op: DeferredOp) {
            self.heap.push(Reverse((at, self.seq, op)));
            self.seq += 1;
        }

        fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, DeferredOp)> {
            if self
                .heap
                .peek()
                .is_some_and(|Reverse((at, _, _))| *at <= now)
            {
                self.heap.pop().map(|Reverse((at, _, op))| (at, op))
            } else {
                None
            }
        }

        fn sorted(&self) -> Vec<(Cycle, u64, DeferredOp)> {
            let mut v: Vec<_> = self.heap.iter().map(|Reverse(e)| *e).collect();
            v.sort_unstable();
            v
        }

        fn rebuild(&mut self, v: Vec<(Cycle, u64, DeferredOp)>) {
            self.heap = v.into_iter().map(Reverse).collect();
        }

        fn delay_nth(&mut self, n: usize, extra: Cycle) -> bool {
            let mut v = self.sorted();
            let hit = n < v.len();
            if hit {
                v[n].0 += extra;
            }
            self.rebuild(v);
            hit
        }

        fn drop_nth(&mut self, n: usize) -> bool {
            let mut v = self.sorted();
            let hit = n < v.len();
            if hit {
                v.remove(n);
            }
            self.rebuild(v);
            hit
        }

        fn duplicate_nth(&mut self, n: usize) -> bool {
            match self.sorted().get(n) {
                Some(&(at, _, op)) => {
                    self.push(at, op);
                    true
                }
                None => false,
            }
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            self.sorted().save(&mut w);
            w.u64(self.seq);
            w.into_bytes()
        }
    }

    fn snapshot(q: &DeferredQueue) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        q.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn ring_matches_the_binary_heap_op_for_op() {
        for seed in [1u64, 0xB10DA1, 29] {
            let mut rng = seed;
            let mut ring = DeferredQueue::new();
            let mut heap = HeapQueue::default();
            let mut now: Cycle = 0;
            for step in 0..6000 {
                let ctx = format!("seed {seed}, step {step}");
                let pending = ring.len().max(1) as u64;
                match crate::test_draw(&mut rng) % 100 {
                    0..=54 => {
                        // Mostly due after everything queued, sometimes
                        // earlier, often at the same cycle as a neighbour.
                        let at = now + crate::test_draw(&mut rng) % 400;
                        let op = if crate::test_draw(&mut rng).is_multiple_of(2) {
                            DeferredOp::CacheWrite {
                                loc: Location::new(0, 0, (step % 8) as u32, step % 5),
                                bytes: 64,
                                class: TrafficClass::DataFill,
                            }
                        } else {
                            DeferredOp::MainWrite {
                                addr: step * 64,
                                bytes: 64,
                                class: TrafficClass::Writeback,
                            }
                        };
                        ring.push(at, op);
                        heap.push(at, op);
                    }
                    55..=84 => {
                        now += crate::test_draw(&mut rng) % 300;
                        loop {
                            let got = ring.pop_due(now);
                            assert_eq!(got, heap.pop_due(now), "{ctx}");
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                    85..=89 => {
                        let n = (crate::test_draw(&mut rng) % (pending + 1)) as usize;
                        let extra = crate::test_draw(&mut rng) % 500;
                        assert_eq!(ring.delay_nth(n, extra), heap.delay_nth(n, extra), "{ctx}");
                    }
                    90..=94 => {
                        let n = (crate::test_draw(&mut rng) % (pending + 1)) as usize;
                        assert_eq!(ring.drop_nth(n), heap.drop_nth(n), "{ctx}");
                    }
                    _ => {
                        let n = (crate::test_draw(&mut rng) % (pending + 1)) as usize;
                        assert_eq!(ring.duplicate_nth(n), heap.duplicate_nth(n), "{ctx}");
                    }
                }
                assert_eq!(ring.len(), heap.heap.len(), "{ctx}");
                assert_eq!(snapshot(&ring), heap.snapshot(), "{ctx}");
            }
        }
    }

    #[test]
    fn load_accepts_entries_in_any_order() {
        let op = |bytes| DeferredOp::MainWrite {
            addr: 0,
            bytes,
            class: TrafficClass::Writeback,
        };
        let mut w = SnapshotWriter::new();
        vec![(30u64, 2u64, op(3)), (10, 0, op(1)), (30, 1, op(2))].save(&mut w);
        w.u64(3);
        let bytes = w.into_bytes();
        let mut q = DeferredQueue::load(&mut bimodal_ckpt::SnapshotReader::new(&bytes, "q"))
            .expect("unsorted entries load");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_due(100)).collect();
        assert_eq!(order, vec![(10, op(1)), (30, op(2)), (30, op(3))]);
    }

    #[test]
    fn pops_in_time_order_and_only_when_due() {
        let mut q = DeferredQueue::new();
        let loc = Location::new(0, 0, 0, 0);
        q.push(
            200,
            DeferredOp::CacheWrite {
                loc,
                bytes: 64,
                class: TrafficClass::DataFill,
            },
        );
        q.push(
            100,
            DeferredOp::MainWrite {
                addr: 0,
                bytes: 64,
                class: TrafficClass::Writeback,
            },
        );
        assert_eq!(q.len(), 2);
        assert!(q.pop_due(50).is_none());
        let (at, op) = q.pop_due(150).expect("due");
        assert_eq!(at, 100);
        assert!(matches!(op, DeferredOp::MainWrite { .. }));
        assert!(q.pop_due(150).is_none());
        assert!(q.pop_due(300).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn tamper_ops_delay_drop_and_duplicate() {
        let loc = Location::new(0, 0, 0, 0);
        let fill = |q: &mut DeferredQueue| {
            q.push(
                100,
                DeferredOp::MainWrite {
                    addr: 0,
                    bytes: 64,
                    class: TrafficClass::Writeback,
                },
            );
            q.push(
                200,
                DeferredOp::CacheWrite {
                    loc,
                    bytes: 64,
                    class: TrafficClass::DataFill,
                },
            );
        };

        let mut q = DeferredQueue::new();
        fill(&mut q);
        assert!(q.delay_nth(0, 500));
        assert!(q.pop_due(200).is_some_and(|(at, _)| at == 200));
        assert!(q.pop_due(599).is_none(), "delayed to cycle 600");
        assert!(q.pop_due(600).is_some());

        let mut q = DeferredQueue::new();
        fill(&mut q);
        assert!(q.drop_nth(1));
        assert_eq!(q.len(), 1);
        assert!(q.pop_due(100).is_some_and(|(at, _)| at == 100));

        let mut q = DeferredQueue::new();
        fill(&mut q);
        assert!(q.duplicate_nth(0));
        assert_eq!(q.len(), 3);
        let (a, x) = q.pop_due(100).expect("original");
        let (b, y) = q.pop_due(100).expect("duplicate");
        assert_eq!((a, x), (b, y));

        let mut empty = DeferredQueue::new();
        assert!(!empty.delay_nth(0, 1));
        assert!(!empty.drop_nth(0));
        assert!(!empty.duplicate_nth(0));
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = DeferredQueue::new();
        let loc = Location::new(0, 0, 0, 0);
        q.push(
            10,
            DeferredOp::CacheWrite {
                loc,
                bytes: 1,
                class: TrafficClass::DataFill,
            },
        );
        q.push(
            10,
            DeferredOp::CacheWrite {
                loc,
                bytes: 2,
                class: TrafficClass::DataFill,
            },
        );
        let (_, a) = q.pop_due(10).expect("due");
        let (_, b) = q.pop_due(10).expect("due");
        assert_eq!(
            a,
            DeferredOp::CacheWrite {
                loc,
                bytes: 1,
                class: TrafficClass::DataFill
            }
        );
        assert_eq!(
            b,
            DeferredOp::CacheWrite {
                loc,
                bytes: 2,
                class: TrafficClass::DataFill
            }
        );
    }
}
