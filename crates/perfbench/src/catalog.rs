//! The benchmark's fixed tables: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds (a test keeps them equal).

use bimodal_dram::BackendKind;
use bimodal_sim::{SchemeKind, SystemConfig};
use bimodal_workloads::WorkloadMix;

/// How long one `measure` run times its workload, in seconds.
pub const RUN_SECONDS: f64 = 25.0;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload as the median of
/// the timed repetitions.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "accesses_per_sec",
        unit: "accesses/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric, from the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// True for counts of simulated work, which repeat exactly for a
    /// seed; false for host timings.
    pub deterministic: bool,
}

/// The schemes with per-scheme metrics, as `(kind, slug)` in
/// [`SchemeKind::all`] order.
pub const SCHEMES: [(SchemeKind, &str); 8] = [
    (SchemeKind::Alloy, "alloy"),
    (SchemeKind::LohHill, "lohhill"),
    (SchemeKind::AtCache, "atcache"),
    (SchemeKind::Footprint, "footprint"),
    (SchemeKind::Fixed512, "fixed512"),
    (SchemeKind::WayLocatorOnly, "waylocator-only"),
    (SchemeKind::BiModalOnly, "bimodal-only"),
    (SchemeKind::BiModal, "bimodal"),
];

/// The slug per-scheme metric names use for `kind`.
///
/// # Panics
///
/// Panics if `kind` has no per-scheme metrics.
#[must_use]
pub fn slug(kind: SchemeKind) -> &'static str {
    SCHEMES
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, s)| *s)
        .expect("every benchmarked scheme has a slug")
}

/// Per-scheme metric suffixes: `scheme.<slug>.<suffix>`.
pub const SCHEME_FIELDS: [(&str, &str, bool); 7] = [
    ("hit_ns_p50", "ns", false),
    ("hit_ns_p999", "ns", false),
    ("miss_ns_p50", "ns", false),
    ("miss_ns_p999", "ns", false),
    ("access_ns_mean", "ns", false),
    ("miss_frac", "fraction", true),
    ("avg_latency_cycles", "cycles", true),
];

/// Every per-layer metric, in report order.
#[must_use]
pub fn per_layer() -> Vec<Layer> {
    let fixed = |name: &str, unit, better, deterministic| Layer {
        name: name.to_owned(),
        unit,
        better,
        deterministic,
    };
    use Better::{Higher, Lower};
    let mut v = vec![
        fixed("workloads.decode_ns_per_access", "ns", Lower, false),
        fixed("sim.engine_ns_per_access", "ns", Lower, false),
        fixed("sim.trace_overhead_pct", "%", Lower, false),
    ];
    for (_, s) in SCHEMES {
        for (field, unit, deterministic) in SCHEME_FIELDS {
            v.push(fixed(
                &format!("scheme.{s}.{field}"),
                unit,
                Lower,
                deterministic,
            ));
        }
    }
    v.extend([
        fixed("dram.cache.ops_per_access", "ops", Lower, true),
        fixed("dram.cache.row_hit_rate", "fraction", Higher, true),
        fixed("dram.offchip.bytes_per_access", "B", Lower, true),
        fixed("dram.deferred.high_water", "ops", Lower, true),
        fixed("dram.deferred.mean_depth", "ops", Lower, true),
        fixed("dram.column_ns_row_hit", "ns", Lower, false),
        fixed("dram.column_ns_row_miss", "ns", Lower, false),
        fixed("dram.offchip_read_ns", "ns", Lower, false),
        fixed("dram.deferred_ns_per_op", "ns", Lower, false),
        fixed("obs.overhead_pct", "%", Lower, false),
        fixed("obs.record_ns_per_access", "ns", Lower, false),
        fixed("setup.traces_s", "s", Lower, false),
        fixed("setup.scheme_s", "s", Lower, false),
        fixed("setup.memory_s", "s", Lower, false),
    ]);
    v
}

/// One benchmark workload: a system, a mix, the schemes run on it, and
/// the run length.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Quad-core mix name.
    pub mix: &'static str,
    /// Scaled cache size (footprints scale with it); `None` keeps the
    /// Table IV 128 MB cache at footprint scale 1.0.
    pub cache_mb: Option<u64>,
    /// Memory substrate.
    pub backend: BackendKind,
    /// Outstanding misses per core.
    pub mlp: u32,
    /// Schemes timed, in run order.
    pub schemes: &'static [SchemeKind],
    /// Whether runs record into an enabled observer.
    pub observed: bool,
    /// Measured accesses per core, per scheme.
    pub accesses_per_core: u64,
}

const ALL_SCHEMES: [SchemeKind; 8] = [
    SchemeKind::Alloy,
    SchemeKind::LohHill,
    SchemeKind::AtCache,
    SchemeKind::Footprint,
    SchemeKind::Fixed512,
    SchemeKind::WayLocatorOnly,
    SchemeKind::BiModalOnly,
    SchemeKind::BiModal,
];

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bimodal-q1",
        why: "Fill-heavy BiModal run (22% misses, 24% small blocks): the core fill/install \
              path and deferred drains do most of the work.",
        mix: "Q1",
        cache_mb: Some(8),
        backend: BackendKind::Paper2014,
        mlp: 1,
        schemes: &[SchemeKind::BiModal],
        observed: false,
        accesses_per_core: 250_000,
    },
    Workload {
        name: "bimodal-q1-observed",
        why: "The same inputs with the observer on (histograms, epochs, bandwidth, anatomy): \
              the only workload where the obs layer is heavy.",
        mix: "Q1",
        cache_mb: Some(8),
        backend: BackendKind::Paper2014,
        mlp: 1,
        schemes: &[SchemeKind::BiModal],
        observed: true,
        accesses_per_core: 250_000,
    },
    Workload {
        name: "all-q1-pcm-mlp4",
        why: "All 8 schemes on the slow-write pcm-far tier at MLP 4: DRAM timing, the \
              deferred queue and every scheme's write path do most of the work.",
        mix: "Q1",
        cache_mb: Some(8),
        backend: BackendKind::PcmFar,
        mlp: 4,
        schemes: &ALL_SCHEMES,
        observed: false,
        accesses_per_core: 60_000,
    },
    Workload {
        name: "all-q3-128mb",
        why: "All 8 schemes on the Table IV 128 MB cache: model state far exceeds host \
              caches, so capacity-dependent costs and set-up show.",
        mix: "Q3",
        cache_mb: None,
        backend: BackendKind::Paper2014,
        mlp: 1,
        schemes: &ALL_SCHEMES,
        observed: false,
        accesses_per_core: 35_000,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The simulated system for `seed`.
    #[must_use]
    pub fn system(&self, seed: u64) -> SystemConfig {
        let mut s = SystemConfig::quad_core()
            .with_backend(self.backend)
            .with_mlp(self.mlp)
            .with_seed(seed);
        if let Some(mb) = self.cache_mb {
            s = s.with_cache_mb(mb);
        }
        s
    }

    /// The workload mix.
    ///
    /// # Panics
    ///
    /// Panics if the catalog names an unknown mix.
    #[must_use]
    pub fn mix(&self) -> WorkloadMix {
        WorkloadMix::quad(self.mix).expect("catalog mixes are known")
    }

    /// The smoke-test variant: the same workload at 1/25 of the length.
    #[must_use]
    pub fn quick(&self) -> Workload {
        Workload {
            accesses_per_core: self.accesses_per_core / 25,
            ..self.clone()
        }
    }
}
