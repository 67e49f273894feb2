//! # Bi-Modal DRAM Cache — facade crate
//!
//! A from-scratch Rust reproduction of *"Bi-Modal DRAM Cache: Improving Hit
//! Rate, Hit Latency and Bandwidth"* (Gulur, Mehendale, Manikantan,
//! Govindarajan — MICRO 2014).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`dram`] — the stacked / off-chip DRAM timing substrate,
//! * [`cache`] — the Bi-Modal cache organization itself (way locator,
//!   block size predictor, bi-modal sets, metadata layout),
//! * [`baselines`] — AlloyCache, Loh-Hill, ATCache and Footprint Cache,
//! * [`workloads`] — synthetic SPEC-like trace generators and the Q/E/S
//!   multiprogrammed mixes,
//! * [`sim`] — the trace-driven multi-core simulation engine, prefetcher,
//!   energy model and ANTT metrics,
//! * [`obs`] — the observability layer: latency histograms, epoch time
//!   series, event tracing, JSON export, wall-clock profiling,
//! * [`faults`] — seeded fault-injection campaigns, the shadow-model
//!   invariant checker, and resilience reporting,
//! * [`exec`] — the dependency-free bounded worker pool that fans
//!   independent runs across threads with bit-identical results, with a
//!   panic-isolating variant and resumable-campaign manifests,
//! * [`ckpt`] — the versioned, checksummed snapshot container behind
//!   engine checkpoint/resume and every atomic file write,
//! * [`prng`] — the dependency-free xoshiro256++ PRNG the workload
//!   generators draw from.
//!
//! # Quickstart
//!
//! ```
//! use bimodal::prelude::*;
//!
//! // A small 4-core system with a 32 MB Bi-Modal DRAM cache.
//! let system = SystemConfig::quad_core().with_cache_mb(32);
//! let mix = WorkloadMix::quad("Q1").expect("Q1 is a known mix");
//! let report = Simulation::new(system, SchemeKind::BiModal)
//!     .run_mix(&mix, 20_000)
//!     .expect("simulation runs");
//! assert!(report.dram_cache_accesses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bimodal_baselines as baselines;
pub use bimodal_ckpt as ckpt;
pub use bimodal_core as cache;
pub use bimodal_dram as dram;
pub use bimodal_exec as exec;
pub use bimodal_faults as faults;
pub use bimodal_obs as obs;
pub use bimodal_prng as prng;
pub use bimodal_sim as sim;
pub use bimodal_workloads as workloads;

pub mod selfbench;

/// Convenient glob-import surface for examples and quick experiments.
pub mod prelude {
    pub use bimodal_core::{BiModalCache, BiModalConfig, BlockSize, CacheGeometry};
    pub use bimodal_dram::{BackendKind, DramConfig, DramModule, MemBackend, MemorySystem};
    pub use bimodal_obs::{Json, Observer, ObserverConfig};
    pub use bimodal_sim::{SchemeKind, Simulation, SystemConfig};
    pub use bimodal_workloads::{WorkloadMix, WorkloadSpec};
}
