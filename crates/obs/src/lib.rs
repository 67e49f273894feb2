//! # bimodal-obs — simulator-wide observability
//!
//! Dependency-free instrumentation for the Bi-Modal DRAM cache
//! simulator:
//!
//! * [`Histogram`] — log2-bucketed latency histograms with p50/p95/p99
//!   estimation (Figure 3's breakdowns talk averages; tails need this),
//! * [`Reservoir`] — optional exact-tail sampling (Algorithm R) next to
//!   the histograms, for when the factor-of-two bucket bound is too
//!   coarse,
//! * [`EpochRecorder`] — periodic snapshots of hit rate, row-buffer hit
//!   rate, off-chip and wasted bytes, and queue occupancy over simulated
//!   time,
//! * [`EventRing`] — a sampled, bounded buffer of structured events with
//!   a `chrome://tracing` JSON exporter,
//! * [`Json`] — a hand-rolled JSON tree/emitter/parser (the build
//!   environment is offline; no serde),
//! * [`PhaseTimers`] / [`Heartbeat`] — wall-clock profiling: per-phase
//!   timers, simulated-cycles-per-host-second, stderr progress.
//!
//! The [`Observer`] facade bundles all of it behind one cheap
//! `is_enabled()` check so a run with observability off stays within
//! noise of an uninstrumented build: the disabled path costs one
//! predictable branch per access.
//!
//! ```
//! use bimodal_obs::{Observer, ObserverConfig, RequestClass};
//!
//! let mut obs = Observer::enabled(ObserverConfig::default());
//! obs.record_latency(RequestClass::Read, true, 42);
//! let summary = obs.summary(1_000);
//! assert_eq!(summary.latency[0].1.count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anatomy;
mod bandwidth;
mod hist;
pub mod json;
pub mod metrics;
mod reservoir;
mod series;
pub mod span;
mod timer;
mod trace;

pub use anatomy::{
    AccessAnatomy, AnatomyStats, AnatomySummary, BackgroundTally, ClassBgSummary, CompSummary,
    Component, DramSegments, FlightEntry, FlightRecorder, Journey, JourneyLog, PopSummary,
    COMPONENT_COUNT,
};
pub use bandwidth::{
    BandwidthSample, BandwidthSeries, BandwidthSummary, BandwidthTracker, ChannelBandwidth,
    ChannelBandwidthSummary, ClassCounters, HotSet, MemoryBandwidth, QueueDepthStats, TrafficClass,
    TRAFFIC_CLASSES,
};
pub use hist::{HistSummary, Histogram};
pub use json::Json;
pub use metrics::{MetricValue, MetricsRegistry};
pub use reservoir::{Reservoir, TailSummary};
pub use series::{Counters, EpochRecorder, EpochSnapshot};
pub use span::{SpanId, SpanProfile};
pub use timer::{Heartbeat, PhaseTimers, ProgressSink, WallSummary};
pub use trace::{EventKind, EventRing, TraceEvent};

use std::time::Duration;

/// The request populations latencies are tracked for separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Demand reads.
    Read,
    /// Writes (LLSC writebacks into the DRAM cache).
    Write,
    /// Prefetches issued below the LLSC.
    Prefetch,
}

impl RequestClass {
    /// Stable lowercase name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Read => "read",
            RequestClass::Write => "write",
            RequestClass::Prefetch => "prefetch",
        }
    }
}

/// Per-population latency histograms: one per [`RequestClass`], plus
/// hit/miss splits (the bi-modal design's whole point is the gap between
/// those two populations).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistograms {
    /// Demand reads.
    pub read: Histogram,
    /// Writes.
    pub write: Histogram,
    /// Prefetches.
    pub prefetch: Histogram,
    /// All requests that hit in the DRAM cache.
    pub hit: Histogram,
    /// All requests that missed.
    pub miss: Histogram,
}

impl LatencyHistograms {
    /// Records one completed request.
    #[inline]
    pub fn record(&mut self, class: RequestClass, hit: bool, latency: u64) {
        match class {
            RequestClass::Read => self.read.record(latency),
            RequestClass::Write => self.write.record(latency),
            RequestClass::Prefetch => self.prefetch.record(latency),
        }
        if hit {
            self.hit.record(latency);
        } else {
            self.miss.record(latency);
        }
    }

    /// Clears all histograms (e.g. at the end of warm-up).
    pub fn reset(&mut self) {
        *self = LatencyHistograms::default();
    }

    /// `(population name, summary)` pairs, fixed order.
    #[must_use]
    pub fn summaries(&self) -> Vec<(String, HistSummary)> {
        [
            ("read", &self.read),
            ("write", &self.write),
            ("prefetch", &self.prefetch),
            ("hit", &self.hit),
            ("miss", &self.miss),
        ]
        .into_iter()
        .map(|(name, h)| (name.to_owned(), h.summary()))
        .collect()
    }
}

/// Optional exact-tail reservoirs mirroring [`LatencyHistograms`]'
/// populations, for runs where the histogram's factor-of-two tail bound
/// is too coarse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailReservoirs {
    capacity: usize,
    /// Demand reads.
    pub read: Reservoir,
    /// Writes.
    pub write: Reservoir,
    /// Prefetches.
    pub prefetch: Reservoir,
    /// All requests that hit in the DRAM cache.
    pub hit: Reservoir,
    /// All requests that missed.
    pub miss: Reservoir,
}

impl TailReservoirs {
    /// Fixed per-population seeds: sampling must be deterministic so
    /// equal runs export equal reports.
    const SEED: u64 = 0xB1_0DA1_7A11;

    /// One reservoir of `capacity` values per population.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let r = |salt: u64| Reservoir::new(capacity, Self::SEED ^ salt);
        TailReservoirs {
            capacity,
            read: r(1),
            write: r(2),
            prefetch: r(3),
            hit: r(4),
            miss: r(5),
        }
    }

    /// Records one completed request, mirroring
    /// [`LatencyHistograms::record`].
    #[inline]
    pub fn record(&mut self, class: RequestClass, hit: bool, latency: u64) {
        match class {
            RequestClass::Read => self.read.record(latency),
            RequestClass::Write => self.write.record(latency),
            RequestClass::Prefetch => self.prefetch.record(latency),
        }
        if hit {
            self.hit.record(latency);
        } else {
            self.miss.record(latency);
        }
    }

    /// Clears all reservoirs (e.g. at the end of warm-up).
    pub fn reset(&mut self) {
        *self = TailReservoirs::new(self.capacity);
    }

    /// `(population name, tail summary)` pairs, same fixed order as
    /// [`LatencyHistograms::summaries`].
    #[must_use]
    pub fn summaries(&self) -> Vec<(String, TailSummary)> {
        [
            ("read", &self.read),
            ("write", &self.write),
            ("prefetch", &self.prefetch),
            ("hit", &self.hit),
            ("miss", &self.miss),
        ]
        .into_iter()
        .map(|(name, r)| (name.to_owned(), r.summary()))
        .collect()
    }
}

/// What to record; see [`Observer::enabled`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverConfig {
    /// Epoch length for the time series, in simulated cycles.
    pub epoch_cycles: u64,
    /// Event-trace ring capacity (0 disables tracing).
    pub trace_capacity: usize,
    /// Record every k-th access into the trace.
    pub trace_sample_every: u32,
    /// Print a stderr progress line at most every this often
    /// (`None` disables the heartbeat).
    pub heartbeat: Option<Duration>,
    /// Keep exact-tail reservoirs of this many values per latency
    /// population (`None` disables them).
    pub exact_tails: Option<usize>,
    /// Collect hot-path span profiles (see [`span`]).
    pub spans: bool,
    /// Collect per-access latency anatomy (see [`anatomy`]).
    pub anatomy: bool,
    /// Record every k-th access's full journey (`None` disables journey
    /// sampling). Implies anatomy collection.
    pub journeys_every: Option<u64>,
    /// Restrict journey recording to accesses touching this exact
    /// address. Implies anatomy collection.
    pub journey_addr: Option<u64>,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            epoch_cycles: 100_000,
            trace_capacity: 0,
            trace_sample_every: 1,
            heartbeat: None,
            exact_tails: None,
            spans: false,
            anatomy: false,
            journeys_every: None,
            journey_addr: None,
        }
    }
}

impl ObserverConfig {
    /// Sets the epoch length in simulated cycles.
    #[must_use]
    pub fn with_epoch_cycles(mut self, cycles: u64) -> Self {
        self.epoch_cycles = cycles;
        self
    }

    /// Enables event tracing with the given ring capacity and sampling
    /// interval.
    #[must_use]
    pub fn with_trace(mut self, capacity: usize, sample_every: u32) -> Self {
        self.trace_capacity = capacity;
        self.trace_sample_every = sample_every;
        self
    }

    /// Enables the stderr heartbeat.
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Enables exact-tail reservoirs of `capacity` values per latency
    /// population.
    #[must_use]
    pub fn with_exact_tails(mut self, capacity: usize) -> Self {
        self.exact_tails = Some(capacity.max(1));
        self
    }

    /// Enables hot-path span profiling (see [`span`]).
    #[must_use]
    pub fn with_spans(mut self) -> Self {
        self.spans = true;
        self
    }

    /// Enables per-access latency anatomy (see [`anatomy`]).
    #[must_use]
    pub fn with_anatomy(mut self) -> Self {
        self.anatomy = true;
        self
    }

    /// Enables journey sampling: every `every`-th access's full anatomy
    /// is recorded (implies [`ObserverConfig::with_anatomy`]).
    #[must_use]
    pub fn with_journeys(mut self, every: u64) -> Self {
        self.journeys_every = Some(every.max(1));
        self
    }

    /// Restricts journey recording to accesses touching `addr` exactly
    /// (implies journey sampling at every access).
    #[must_use]
    pub fn with_journey_addr(mut self, addr: u64) -> Self {
        self.journey_addr = Some(addr);
        if self.journeys_every.is_none() {
            self.journeys_every = Some(1);
        }
        self
    }
}

/// Everything the observability layer collected, in report-ready form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSummary {
    /// `(population, percentile summary)` per request class and
    /// hit/miss split. Empty when observability was off.
    pub latency: Vec<(String, HistSummary)>,
    /// `(population, exact-tail summary)` per population, same order as
    /// `latency`. Empty unless exact-tail reservoirs were enabled.
    pub exact_tails: Vec<(String, TailSummary)>,
    /// The epoch time series. Empty when observability was off.
    pub epochs: Vec<EpochSnapshot>,
    /// Wall-clock profile. `None` when observability was off.
    pub wall: Option<WallSummary>,
}

impl ObsSummary {
    /// True when nothing was recorded (observability was off).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
            && self.exact_tails.is_empty()
            && self.epochs.is_empty()
            && self.wall.is_none()
    }

    /// Serializes as a JSON object with `latency`, `exact_tails`,
    /// `epochs` and `wall` keys.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut latency = Json::object();
        for (name, s) in &self.latency {
            latency.set(name, s.to_json());
        }
        let mut tails = Json::object();
        for (name, s) in &self.exact_tails {
            tails.set(name, s.to_json());
        }
        let mut o = Json::object();
        o.set("latency", latency)
            .set("exact_tails", tails)
            .set(
                "epochs",
                Json::Arr(self.epochs.iter().map(EpochSnapshot::to_json).collect()),
            )
            .set("wall", self.wall.as_ref().map(WallSummary::to_json));
        o
    }
}

/// The per-run observability bundle the engine records into.
#[derive(Debug)]
pub struct Observer {
    enabled: bool,
    /// Per-population latency histograms.
    pub latency: LatencyHistograms,
    /// Exact-tail reservoirs, when enabled.
    pub tails: Option<TailReservoirs>,
    /// The epoch time-series recorder.
    pub epochs: EpochRecorder,
    /// The sampled event ring, when tracing is on.
    pub trace: Option<EventRing>,
    /// Per-channel busy-cycle samples taken at epoch boundaries, for
    /// Chrome-trace counter lanes.
    pub bandwidth: BandwidthSeries,
    /// The stderr progress heartbeat, when on.
    pub heartbeat: Option<Heartbeat>,
    /// Per-phase wall-clock timers (always running; two `Instant` reads
    /// per run are free).
    pub timers: PhaseTimers,
    /// Whether the engine should collect hot-path span profiles.
    pub spans: bool,
    /// Per-access latency anatomy accumulators, when enabled (boxed —
    /// the component histograms are large and cold relative to the
    /// per-access hot path).
    pub anatomy: Option<Box<AnatomyStats>>,
    /// Sampled request-journey log, when journey mode is on.
    pub journeys: Option<JourneyLog>,
}

impl Observer {
    /// An observer that records nothing; every hot-path check reduces to
    /// one predictable branch.
    #[must_use]
    pub fn disabled() -> Self {
        Observer {
            enabled: false,
            latency: LatencyHistograms::default(),
            tails: None,
            epochs: EpochRecorder::new(u64::MAX),
            trace: None,
            bandwidth: BandwidthSeries::default(),
            heartbeat: None,
            timers: PhaseTimers::start(),
            spans: false,
            anatomy: None,
            journeys: None,
        }
    }

    /// An observer recording per `config`.
    #[must_use]
    pub fn enabled(config: ObserverConfig) -> Self {
        Observer {
            enabled: true,
            latency: LatencyHistograms::default(),
            tails: config.exact_tails.map(TailReservoirs::new),
            epochs: EpochRecorder::new(config.epoch_cycles.max(1)),
            trace: (config.trace_capacity > 0)
                .then(|| EventRing::new(config.trace_capacity, config.trace_sample_every.max(1))),
            bandwidth: BandwidthSeries::default(),
            heartbeat: config.heartbeat.map(Heartbeat::new),
            timers: PhaseTimers::start(),
            anatomy: (config.anatomy
                || config.journeys_every.is_some()
                || config.journey_addr.is_some())
            .then(|| Box::new(AnatomyStats::new())),
            journeys: config.journeys_every.map(|every| {
                let log = JourneyLog::new(every);
                match config.journey_addr {
                    Some(addr) => log.with_addr(addr),
                    None => log,
                }
            }),
            spans: config.spans,
        }
    }

    /// Whether recording is on. `#[inline]` so the disabled path costs a
    /// single branch at every instrumentation site.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one completed request's latency.
    #[inline]
    pub fn record_latency(&mut self, class: RequestClass, hit: bool, latency: u64) {
        self.latency.record(class, hit, latency);
        if let Some(t) = &mut self.tails {
            t.record(class, hit, latency);
        }
    }

    /// Clears measurement state at the warm-up boundary so summaries
    /// describe the measured portion, mirroring the engine's stats reset.
    /// The epoch series deliberately keeps warm-up epochs — watching the
    /// hit rate climb as the cache fills is half its value.
    pub fn reset_measurement(&mut self) {
        self.latency.reset();
        if let Some(t) = &mut self.tails {
            t.reset();
        }
        // Journeys deliberately survive the warm-up reset — they are a
        // debugging aid, and warm-up journeys are often the interesting
        // ones.
        if let Some(a) = &mut self.anatomy {
            a.reset();
        }
    }

    /// Summarizes everything recorded. `sim_cycles` is the simulated
    /// time the run covered (for throughput).
    #[must_use]
    pub fn summary(&self, sim_cycles: u64) -> ObsSummary {
        if !self.enabled {
            return ObsSummary::default();
        }
        ObsSummary {
            latency: self.latency.summaries(),
            exact_tails: self
                .tails
                .as_ref()
                .map(TailReservoirs::summaries)
                .unwrap_or_default(),
            epochs: self.epochs.epochs().to_vec(),
            wall: Some(self.timers.summarize(sim_cycles)),
        }
    }
}

bimodal_ckpt::snapshot_fields! { LatencyHistograms { read, write, prefetch, hit, miss } }

impl bimodal_ckpt::Snapshot for TailReservoirs {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.usize(self.capacity);
        self.read.save(w);
        self.write.save(w);
        self.prefetch.save(w);
        self.hit.save(w);
        self.miss.save(w);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        let capacity = r.usize()?;
        if capacity == 0 {
            return Err(r.corrupt("zero reservoir capacity"));
        }
        Ok(TailReservoirs {
            capacity,
            read: bimodal_ckpt::Snapshot::load(r)?,
            write: bimodal_ckpt::Snapshot::load(r)?,
            prefetch: bimodal_ckpt::Snapshot::load(r)?,
            hit: bimodal_ckpt::Snapshot::load(r)?,
            miss: bimodal_ckpt::Snapshot::load(r)?,
        })
    }
}

impl Observer {
    /// Serializes every deterministic accumulator (histograms, tail
    /// reservoirs, epoch series, bandwidth series) into a checkpoint
    /// section. Wall-clock timers and the heartbeat are host state, not
    /// simulation state, and are deliberately excluded; the sampled event
    /// ring is excluded too (checkpointing is rejected upstream when
    /// tracing is on).
    pub fn save_accumulators(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        use bimodal_ckpt::Snapshot as _;
        w.bool(self.enabled);
        self.latency.save(w);
        self.tails.save(w);
        self.epochs.save(w);
        self.bandwidth.save(w);
        w.bool(self.anatomy.is_some());
        if let Some(a) = &self.anatomy {
            a.save(w);
        }
    }

    /// Restores accumulators saved by [`Observer::save_accumulators`]
    /// into this observer.
    ///
    /// # Errors
    ///
    /// [`bimodal_ckpt::CkptError::Mismatch`] when the snapshot was taken
    /// with a different observer enablement (e.g. resuming a `--json` run
    /// without `--json`); decode errors on corrupt payloads.
    pub fn restore_accumulators(
        &mut self,
        r: &mut bimodal_ckpt::SnapshotReader<'_>,
    ) -> Result<(), bimodal_ckpt::CkptError> {
        let enabled = r.bool()?;
        if enabled != self.enabled {
            return Err(bimodal_ckpt::CkptError::Mismatch {
                detail: format!(
                    "checkpoint taken with observability {}, resuming with it {}",
                    if enabled { "on" } else { "off" },
                    if self.enabled { "on" } else { "off" },
                ),
            });
        }
        self.latency = bimodal_ckpt::Snapshot::load(r)?;
        self.tails = bimodal_ckpt::Snapshot::load(r)?;
        self.epochs = bimodal_ckpt::Snapshot::load(r)?;
        self.bandwidth = bimodal_ckpt::Snapshot::load(r)?;
        let has_anatomy = r.bool()?;
        if has_anatomy != self.anatomy.is_some() {
            return Err(bimodal_ckpt::CkptError::Mismatch {
                detail: format!(
                    "checkpoint taken with anatomy {}, resuming with it {}",
                    if has_anatomy { "on" } else { "off" },
                    if self.anatomy.is_some() { "on" } else { "off" },
                ),
            });
        }
        if has_anatomy {
            self.anatomy = Some(Box::new(bimodal_ckpt::Snapshot::load(r)?));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_summarizes_empty() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        let s = obs.summary(1000);
        assert!(s.is_empty());
        assert_eq!(s.to_json().get("wall"), Some(&Json::Null));
    }

    #[test]
    fn enabled_observer_records_and_summarizes() {
        let mut obs = Observer::enabled(
            ObserverConfig::default()
                .with_epoch_cycles(100)
                .with_trace(16, 2),
        );
        assert!(obs.is_enabled());
        obs.record_latency(RequestClass::Read, true, 40);
        obs.record_latency(RequestClass::Write, false, 400);
        obs.epochs.observe(
            150,
            &Counters {
                accesses: 2,
                hits: 1,
                ..Counters::default()
            },
            0,
        );
        let s = obs.summary(150);
        assert!(!s.is_empty());
        let names: Vec<&str> = s.latency.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["read", "write", "prefetch", "hit", "miss"]);
        assert_eq!(s.latency[0].1.count, 1);
        assert_eq!(s.epochs.len(), 1);
        assert!(s.wall.is_some());
        // JSON export exposes the three sections.
        let j = s.to_json();
        assert!(j.get("latency").and_then(|l| l.get("read")).is_some());
        assert_eq!(
            j.get("epochs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(j.get("wall").and_then(|w| w.get("sim_cycles")).is_some());
    }

    #[test]
    fn hit_miss_split_tracks_populations() {
        let mut h = LatencyHistograms::default();
        h.record(RequestClass::Read, true, 10);
        h.record(RequestClass::Read, false, 500);
        h.record(RequestClass::Prefetch, false, 300);
        assert_eq!(h.read.count(), 2);
        assert_eq!(h.hit.count(), 1);
        assert_eq!(h.miss.count(), 2);
        h.reset();
        assert_eq!(h.read.count(), 0);
    }

    #[test]
    fn exact_tails_follow_the_latency_populations() {
        let mut obs = Observer::enabled(ObserverConfig::default().with_exact_tails(64));
        for i in 0..10u64 {
            obs.record_latency(RequestClass::Read, i % 2 == 0, 10 + i);
        }
        let s = obs.summary(100);
        let names: Vec<&str> = s.exact_tails.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["read", "write", "prefetch", "hit", "miss"]);
        let read = &s.exact_tails[0].1;
        assert_eq!(read.count, 10);
        assert!(read.exact);
        assert_eq!(read.max, 19);
        assert!(s
            .to_json()
            .get("exact_tails")
            .and_then(|t| t.get("read"))
            .is_some());
        // Warm-up reset clears the reservoirs too.
        obs.reset_measurement();
        assert_eq!(obs.summary(100).exact_tails[0].1.count, 0);
    }

    #[test]
    fn reset_measurement_keeps_epochs() {
        let mut obs = Observer::enabled(ObserverConfig::default().with_epoch_cycles(10));
        obs.record_latency(RequestClass::Read, true, 5);
        obs.epochs.observe(
            20,
            &Counters {
                accesses: 1,
                ..Counters::default()
            },
            0,
        );
        obs.reset_measurement();
        let s = obs.summary(20);
        assert_eq!(s.latency[0].1.count, 0);
        assert_eq!(s.epochs.len(), 1);
    }
}
