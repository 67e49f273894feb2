//! Synthetic SPEC-like workloads for DRAM cache studies.
//!
//! The paper drives its design-space simulator with traces from SPEC
//! CPU2000/2006 mixes (Table V). Those traces are not redistributable, so
//! this crate synthesizes per-core LLSC-miss streams whose three
//! properties — the ones every result in the paper depends on — are
//! controlled explicitly:
//!
//! 1. **Spatial utilization**: the distribution of how many 64 B
//!    sub-blocks of each 512 B region a program touches (Figure 2's
//!    spectrum, from >90% fully-used regions down to <30%).
//! 2. **Footprint vs. cache size**: how much distinct data the program
//!    walks, driving capacity misses.
//! 3. **Temporal locality and intensity**: how often recent regions are
//!    revisited and how frequently LLSC misses arrive.
//!
//! [`WorkloadSpec`] holds the knobs, [`spec_profile`] provides named
//! SPEC-flavoured presets, and [`WorkloadMix`] assembles the Q1–Q24
//! (4-core), E1–E16 (8-core) and S1–S8 (16-core) multiprogrammed mixes.
//!
//! # Example
//!
//! ```
//! use bimodal_workloads::{spec_profile, WorkloadMix};
//!
//! let mcf = spec_profile("mcf").expect("known benchmark");
//! let mut trace = mcf.trace(42, 0);
//! let first = trace.next().expect("traces are endless");
//! assert!(first.addr < mcf.footprint_bytes);
//!
//! let q1 = WorkloadMix::quad("Q1").expect("known mix");
//! assert_eq!(q1.programs().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod mix;
mod program;
mod spec;

pub use access::Access;
pub use mix::{all_eight_core, all_quad, all_sixteen_core, WorkloadMix};
pub use program::{ProgramTrace, SpatialProfile, TemporalProfile, WorkloadSpec};
pub use spec::{spec_names, spec_profile};
