//! Transaction-level DRAM timing model for stacked-DRAM cache studies.
//!
//! This crate implements the memory substrate used by the Bi-Modal DRAM
//! cache reproduction: a configurable DRAM module (channels, ranks, banks,
//! row buffers) with open-page policy, refresh, and data-bus occupancy,
//! plus an off-chip main-memory wrapper with row-rank-bank-mc-column
//! address interleaving.
//!
//! The model is *transaction level*: each request is resolved into a
//! completion time by walking the bank/bus resource state (precharge,
//! activate, column access, burst transfer), rather than by simulating
//! individual DDR commands on a cycle-by-cycle wheel. This is the same
//! abstraction the paper's own trace-driven design-space simulator uses and
//! it faithfully reproduces row-buffer-hit-rate, bank-conflict and
//! bandwidth effects.
//!
//! Requests are served in call order, reusing a row left open by an
//! earlier request; there is no request queue and no scheduler that
//! reorders them.
//!
//! # Example
//!
//! ```
//! use bimodal_dram::{DramConfig, DramModule, Location, Op, Request};
//!
//! // A stacked-DRAM stack: 2 channels x 8 banks, 2 KB pages, 128-bit bus.
//! let config = DramConfig::stacked(2, 8);
//! let mut dram = DramModule::new(config);
//! let loc = Location::new(0, 0, 3, 42);
//! let first = dram.access(Request::read(loc, 64, 1000));
//! let second = dram.access(Request::read(loc, 64, first.done));
//! // The second access hits the open row, so it is strictly faster.
//! assert!(second.done - second.arrival < first.done - first.arrival);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod backend;
mod bank;
mod config;
mod controller;
mod deferred;
mod mainmem;
mod request;
mod stats;
mod system;
mod timing;

/// SplitMix64: a dependency-free stream of draws for the differential
/// tests.
#[cfg(test)]
fn test_draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub use address::{AddressMapping, DecodedAddress};
pub use backend::{BackendKind, Ddr5, Hbm2, MemBackend, Paper2014, PcmFar, Tdram};
pub use bank::{Bank, RowEvent};
pub use config::{DramConfig, PagePolicy};
pub use controller::{DramModule, OpenRowOutcome};
pub use deferred::{DeferredOp, DeferredQueue};
pub use mainmem::MainMemory;
pub use request::{Completion, Location, Op, Request};
pub use stats::{BankStats, DramStats};
pub use system::MemorySystem;
pub use timing::{Cycle, TimingParams};

// Re-exported so schemes can tag their traffic without depending on
// `bimodal-obs` directly.
pub use bimodal_obs::{BandwidthTracker, QueueDepthStats, TrafficClass};
