//! The Bi-Modal DRAM cache organization (Gulur et al., MICRO 2014).
//!
//! A stacked-DRAM last-level cache that stores data at *two* granularities
//! — 512 B big blocks for spatially dense data and 64 B small blocks for
//! sparse data — with all metadata held in a dedicated DRAM bank and hit
//! latency recovered through a small SRAM *way locator*.
//!
//! The main entry point is [`BiModalCache`], which implements the
//! [`DramCacheScheme`] trait shared with the baseline organizations in the
//! `bimodal-baselines` crate. Supporting pieces are public so they can be
//! studied in isolation:
//!
//! * [`WayLocator`] — 2-way SRAM cache of recently used way IDs
//!   (never mispredicts; a hit skips the DRAM metadata access entirely),
//! * [`BlockSizePredictor`] + [`UtilizationTracker`] — set-sampled spatial
//!   utilization measurement driving big/small fill decisions,
//! * [`GlobalMixController`] — the cache-wide `(X_glob, Y_glob)` demand
//!   adaptation,
//! * [`SetArena`] — every bi-modal set of a cache in flat arrays, with
//!   the Table II replacement rules,
//! * [`CacheGeometry`], [`DataLayout`], [`MetadataLayout`] — address
//!   decomposition and the placement of sets and metadata on stacked DRAM,
//! * [`FunctionalCache`] — a fast tag-only model for hit-rate and
//!   utilization design-space sweeps (Figures 1, 2 and 5),
//! * [`FaultTarget`] — the fault-injection surface used by resilience
//!   campaigns (metadata SECDED ECC, hint-structure self-healing).
//!
//! # Example
//!
//! ```
//! use bimodal_core::{BiModalCache, BiModalConfig, CacheAccess, DramCacheScheme};
//! use bimodal_dram::MemorySystem;
//!
//! let mut mem = MemorySystem::quad_core();
//! let mut cache = BiModalCache::new(BiModalConfig::for_cache_mb(32));
//! let out = cache.access(CacheAccess::read(0x4000, 0), &mut mem);
//! assert!(!out.hit); // cold miss
//! let out = cache.access(CacheAccess::read(0x4000, out.complete), &mut mem);
//! assert!(out.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod cache;
mod functional;
mod geometry;
mod layout;
mod metadata;
mod miss_predictor;
mod predictor;
mod resilience;
mod scheme;
mod set;
mod sram;
mod stats;
mod way_locator;

pub use adaptive::{GlobalMixController, MixDecision};
pub use cache::{BiModalCache, BiModalConfig, ReplacementPolicy};
pub use functional::{FunctionalCache, FunctionalConfig, MruProfile};
pub use geometry::{AddrMap, BlockSize, CacheGeometry, SetState};
pub use layout::DataLayout;
pub use metadata::{MetadataLayout, MetadataPlacement};
pub use miss_predictor::MissPredictor;
pub use predictor::{BlockSizePredictor, PredictorConfig, UtilizationTracker};
pub use resilience::{random_tag_xor, ContentsDigest, EccLedger, FaultTarget, MetadataFault};
pub use scheme::{AccessKind, AccessOutcome, CacheAccess, DramCacheScheme};
pub use set::{InsertOutcome, SetArena, Victim, WayRef};
pub use sram::SramModel;
pub use stats::{LatencyBreakdown, SchemeStats};
pub use way_locator::{WayLocator, WayLocatorConfig, WayLocatorEntry};
