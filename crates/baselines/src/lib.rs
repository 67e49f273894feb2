//! Baseline DRAM cache organizations the paper compares against.
//!
//! Every organization implements the same
//! [`DramCacheScheme`](bimodal_core::DramCacheScheme) trait as the
//! Bi-Modal cache, so the simulation engine can swap them freely:
//!
//! * [`AlloyCache`] — Qureshi & Loh's direct-mapped 64 B design with tag
//!   and data fused into one 72 B burst (TAD) and a hit/miss predictor
//!   (MICRO 2012); the paper's baseline.
//! * [`LohHillCache`] — Loh & Hill's 29-way set-in-a-row organization with
//!   compound access scheduling (MICRO 2011).
//! * [`AtCache`] — Huang & Nagarajan's tags-in-DRAM design with a small
//!   SRAM tag cache, prefetching tags of adjacent sets (PACT 2014).
//! * [`FootprintCache`] — Jevdjic, Volos & Falsafi's 2 KB-page,
//!   tags-in-SRAM design fetching only the predicted footprint
//!   (ISCA 2013).
//!
//! # Example
//!
//! ```
//! use bimodal_baselines::AlloyCache;
//! use bimodal_core::{CacheAccess, DramCacheScheme};
//! use bimodal_dram::MemorySystem;
//!
//! let mut mem = MemorySystem::quad_core();
//! let mut alloy = AlloyCache::with_capacity_mb(32);
//! let miss = alloy.access(CacheAccess::read(0x8000, 0), &mut mem);
//! assert!(!miss.hit);
//! let hit = alloy.access(CacheAccess::read(0x8000, miss.complete), &mut mem);
//! assert!(hit.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloy;
mod atcache;
mod common;
mod footprint;
mod lohhill;

pub use alloy::{AlloyCache, AlloyConfig};
pub use atcache::{AtCache, AtCacheConfig};
pub use common::RowMapper;
pub use footprint::{FootprintCache, FootprintConfig, FootprintPredictor};
pub use lohhill::{LohHillCache, LohHillConfig};
