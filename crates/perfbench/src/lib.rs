//! `perfbench`, the simulator's benchmark of record.
//!
//! It drives the simulator only through public library calls and times
//! them from outside:
//!
//! * set-up: `Simulation::traces_for`, `Simulation::build_scheme`,
//!   `SystemConfig::build_memory`;
//! * the run: `Engine::run_observed`, or `Engine::try_run` with a timing
//!   [`bimodal_sim::RunHook`] in the traced rep.
//!
//! Each repetition runs in a fresh worker process ([`worker`]), one at a
//! time, so set-up is cold and peak RSS belongs to one workload. The
//! parent ([`measure`]) accounts failures and computes the metrics named
//! in [`catalog`]; [`record`] writes and compares `perf.json` files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod measure;
pub mod record;
pub mod stats;
pub mod worker;
