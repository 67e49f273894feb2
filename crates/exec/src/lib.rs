//! Deterministic parallel execution of independent work units.
//!
//! Every figure in the paper is a fan-out of independent
//! (scheme × mix × config × seed) runs, so the natural execution model is
//! a bounded worker pool over a fixed work list. This crate provides
//! exactly that:
//!
//! - [`map`] / [`map_indexed`] run one closure per item on up to `jobs`
//!   scoped threads ([`std::thread::scope`], so borrowed captures work)
//!   and return the results **in input order** regardless of which worker
//!   finished first. Each unit owns its input (seeded PRNGs, observer
//!   sinks travel with it), so parallel output is bit-identical to
//!   serial output.
//! - [`map_fallible`] is the fault-tolerant variant campaigns use: each
//!   unit runs once, panic-isolated, and a unit that fails degrades to a
//!   [`UnitFailure`] slot instead of sinking the pool.
//! - [`Manifest`] journals completed units (key + result digest) to an
//!   append-only, torn-write-tolerant file, so re-invoking a crashed
//!   campaign skips the work it already finished.
//! - `jobs == 1` (or a single item) short-circuits to a plain inline
//!   loop on the calling thread: no threads are spawned, which keeps the
//!   serial path trivially identical to the pre-parallel code.
//! - [`available_jobs`] is the `--jobs` default: the host's available
//!   parallelism, falling back to 1 when it cannot be determined.
//!
//! Work is claimed dynamically (an atomic cursor over the item list), so
//! unbalanced units — e.g. one slow scheme among fast ones — do not idle
//! the pool. Determinism is unaffected: claiming order only decides who
//! computes a slot, never what lands in it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod fleet;
mod manifest;

pub use fleet::FleetProgress;
pub use manifest::{Manifest, MANIFEST_FILE};

/// The host's available parallelism, used as the `--jobs` default.
///
/// Falls back to 1 if the value cannot be determined (exotic platforms,
/// restricted sandboxes).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over `items` on up to `jobs` worker threads and returns the
/// results in input order.
///
/// See [`map_indexed`] for the full contract; this is the common case
/// where the closure does not need the item's index.
pub fn map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_indexed(jobs, items, |_, item| f(item))
}

/// Runs `f(index, item)` over `items` on up to `jobs` worker threads and
/// returns the results in input order (slot `i` holds `f(i, items[i])`).
///
/// - `jobs` is clamped to at least 1 and at most `items.len()`; with one
///   effective worker the items run inline on the calling thread.
/// - Each worker claims the next unclaimed index, so slow units do not
///   serialize the rest of the list behind them.
/// - If `f` panics on any unit, the panic propagates to the caller after
///   all workers have stopped (the scope joins them).
pub fn map_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.clamp(1, n.max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each slot is claimed once");
                let result = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot was filled")
        })
        .collect()
}

/// Why a unit of [`map_fallible`] produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFailure {
    /// The closure's `Err`, or the panic message.
    pub error: String,
    /// Whether the unit panicked (vs returned `Err`).
    pub panicked: bool,
}

/// Renders a caught panic payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Runs `f(index, item)` over `items` like [`map_indexed`], with each
/// unit panic-isolated; returns one result per item, in input order.
///
/// Unlike [`map_indexed`], a unit that panics or returns `Err` does not
/// tear down the pool: its slot holds a [`UnitFailure`] and every other
/// unit still completes. The caller decides what a failed slot means,
/// typically a `failed` entry in the campaign report and a nonzero exit.
///
/// Each unit runs once. A unit is a seeded simulation, so running a
/// failed one again would fail the same way. A unit that stops making
/// progress is stopped by the engine's forward-progress watchdog, which
/// returns an ordinary `Err`; no thread is ever killed mid-unit.
pub fn map_fallible<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Result<R, UnitFailure>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> Result<R, String> + Sync,
{
    map_indexed(jobs, items, |index, item| {
        match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
            Ok(result) => result.map_err(|error| UnitFailure {
                error,
                panicked: false,
            }),
            Err(payload) => Err(UnitFailure {
                error: panic_message(payload.as_ref()),
                panicked: true,
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        // Make later items finish first to prove slotting, not luck.
        let items: Vec<u64> = (0..32).collect();
        let out = map(4, items, |x| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (32 - x)));
            x * 10
        });
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..17).collect();
        let serial = map(1, items.clone(), |x| x.wrapping_mul(2654435761));
        let parallel = map(8, items, |x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_one_runs_inline() {
        let tid = std::thread::current().id();
        let out = map(1, vec![(); 5], |()| std::thread::current().id());
        assert!(out.iter().all(|&t| t == tid), "jobs=1 must not spawn");
    }

    #[test]
    fn indexed_variant_sees_slot_indices() {
        let out = map_indexed(3, vec!["a", "b", "c", "d"], |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = map(4, Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        let out = map(64, vec![1u8, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn unit_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map(4, (0..8).collect::<Vec<u32>>(), |x| {
                assert!(x != 5, "unit failure");
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn a_panicking_unit_degrades_without_sinking_the_pool() {
        let calls = AtomicUsize::new(0);
        let out = map_fallible(4, (0..8u32).collect(), |_, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(x != 5, "unit 5 is cursed");
            Ok::<_, String>(x * 2)
        });
        assert_eq!(calls.into_inner(), 8, "every unit runs exactly once");
        for (i, r) in out.into_iter().enumerate() {
            if i == 5 {
                let f = r.expect_err("unit 5 fails");
                assert!(f.panicked);
                assert!(f.error.contains("cursed"));
            } else {
                assert_eq!(r, Ok(i as u32 * 2), "unit {i} must survive");
            }
        }
    }

    #[test]
    fn err_returns_are_not_panics() {
        let out = map_fallible(1, vec![()], |_, ()| {
            Err::<u8, _>("typed failure".to_owned())
        });
        assert_eq!(
            out,
            vec![Err(UnitFailure {
                error: "typed failure".to_owned(),
                panicked: false
            })]
        );
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
