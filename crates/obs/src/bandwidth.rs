//! Per-traffic-class bandwidth attribution and occupancy profiling.
//!
//! The paper's §V argues Bi-Modal wins as much on *bandwidth* as on hit
//! rate: it cuts metadata and overfetch traffic on the stacked channels.
//! Reproducing that argument needs to know *where the channel cycles
//! went*, so every DRAM bus transfer and bank-busy interval is tagged
//! with a [`TrafficClass`] by the issuing scheme and accumulated here:
//! per-channel busy cycles and bytes by class, per-bank busy cycles by
//! class (including refresh), per-transfer queue-wait histograms, a
//! per-set (bank, row) access heatmap, and a deferred-queue depth
//! profile. Counters are plain adds on paths the timing model already
//! executes, so attribution is always on and never perturbs timing.

use crate::hist::HistSummary;
use crate::json::Json;

/// Why a DRAM transfer happened — which logical traffic stream it
/// belongs to. Set by the issuing cache organization before each DRAM
/// operation; carried by deferred background writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TrafficClass {
    /// Tag/metadata read from the stacked DRAM (dedicated metadata
    /// banks, Loh-Hill compound-access tag read, ATCache DRAM tag read).
    MetadataRead,
    /// Tag/metadata update written into the stacked DRAM.
    MetadataWrite,
    /// A combined tag-and-data probe (AlloyCache's unified TAD read).
    TagProbe,
    /// A fill of fetched data into the stacked cache.
    DataFill,
    /// A demand hit's data transfer out of (or into) the stacked cache.
    DataHit,
    /// A dirty writeback to main memory.
    Writeback,
    /// A demand/fill fetch from off-chip main memory.
    MainMemRefill,
    /// Speculative or predicted overfetch (miss-predictor speculative
    /// fetches, Footprint Cache's non-demand page remainder).
    PredictorOverfetch,
    /// ECC scrub writes repairing ledgered flips.
    Scrub,
    /// Refresh windows occupying a bank (no data-bus time).
    Refresh,
    /// Anything not explicitly tagged.
    #[default]
    Other,
}

/// Number of traffic classes (length of [`TrafficClass::ALL`]).
pub const TRAFFIC_CLASSES: usize = 11;

impl TrafficClass {
    /// Every class, in stable export order.
    pub const ALL: [TrafficClass; TRAFFIC_CLASSES] = [
        TrafficClass::MetadataRead,
        TrafficClass::MetadataWrite,
        TrafficClass::TagProbe,
        TrafficClass::DataFill,
        TrafficClass::DataHit,
        TrafficClass::Writeback,
        TrafficClass::MainMemRefill,
        TrafficClass::PredictorOverfetch,
        TrafficClass::Scrub,
        TrafficClass::Refresh,
        TrafficClass::Other,
    ];

    /// Stable lowercase name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::MetadataRead => "metadata_read",
            TrafficClass::MetadataWrite => "metadata_write",
            TrafficClass::TagProbe => "tag_probe",
            TrafficClass::DataFill => "data_fill",
            TrafficClass::DataHit => "data_hit",
            TrafficClass::Writeback => "writeback",
            TrafficClass::MainMemRefill => "main_mem_refill",
            TrafficClass::PredictorOverfetch => "predictor_overfetch",
            TrafficClass::Scrub => "scrub",
            TrafficClass::Refresh => "refresh",
            TrafficClass::Other => "other",
        }
    }

    /// Index into per-class counter arrays (position in
    /// [`TrafficClass::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-class cycle and byte accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCounters {
    /// Busy cycles attributed to each class (indexed by
    /// [`TrafficClass::index`]).
    pub cycles: [u64; TRAFFIC_CLASSES],
    /// Bytes moved for each class.
    pub bytes: [u64; TRAFFIC_CLASSES],
}

impl Default for ClassCounters {
    fn default() -> Self {
        ClassCounters {
            cycles: [0; TRAFFIC_CLASSES],
            bytes: [0; TRAFFIC_CLASSES],
        }
    }
}

impl ClassCounters {
    /// Adds `cycles`/`bytes` to `class`. O(1), two array adds.
    #[inline]
    pub fn add(&mut self, class: TrafficClass, cycles: u64, bytes: u64) {
        let i = class.index();
        self.cycles[i] += cycles;
        self.bytes[i] += bytes;
    }

    /// Sum of cycles over all classes.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Sum of bytes over all classes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &ClassCounters) {
        for i in 0..TRAFFIC_CLASSES {
            self.cycles[i] += other.cycles[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// `{class_name: {cycles, bytes}}` for every class with activity.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        for class in TrafficClass::ALL {
            let i = class.index();
            if self.cycles[i] == 0 && self.bytes[i] == 0 {
                continue;
            }
            let mut c = Json::object();
            c.set("cycles", self.cycles[i]).set("bytes", self.bytes[i]);
            o.set(class.name(), c);
        }
        o
    }
}

/// Number of log2 buckets in a [`WaitHist`]: bucket 0 holds zero
/// waits, bucket `i` holds `[2^(i-1), 2^i)`, and the top bucket
/// absorbs everything at or above 2^22 cycles.
const WAIT_BUCKETS: usize = 24;

/// A compact log2 histogram of per-transfer bus queue waits.
///
/// Same bucketing and nearest-rank interpolation as the general
/// [`crate::Histogram`], but sized for the hot path: four scalars plus 24
/// saturating `u32` buckets span two cache lines instead of nine.
/// One of these is updated on *every* DRAM bus transfer, so staying
/// L1-resident is what keeps attribution near-free. Waits of 2^22
/// cycles or more (a multi-millisecond bus stall — unreachable in any
/// realistic run) share the top bucket; `max` stays exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitHist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    counts: [u32; WAIT_BUCKETS],
}

impl Default for WaitHist {
    fn default() -> Self {
        WaitHist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            counts: [0; WAIT_BUCKETS],
        }
    }
}

impl WaitHist {
    /// Records one wait. O(1), two adjacent cache lines.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = ((64 - value.leading_zeros()) as usize).min(WAIT_BUCKETS - 1);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of waits recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest wait, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Inclusive value range of bucket `i`; the top bucket is open-ended
    /// so its upper edge is the observed maximum.
    fn bucket_bounds(&self, i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i == WAIT_BUCKETS - 1 => {
                let lo = 1 << (i - 1);
                (lo, self.max.max(lo))
            }
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Estimated `q`-quantile, interpolated within the containing bucket
    /// and clamped to the observed range (same estimator as
    /// [`crate::Histogram::percentile`]).
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = u64::from(c);
            if seen + c >= rank {
                let (lo, hi) = self.bucket_bounds(i);
                let into = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * into;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Summarizes into the same percentile set the latency histograms
    /// report.
    #[must_use]
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            min: if self.count == 0 { 0 } else { self.min },
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: self.max(),
        }
    }
}

/// One channel's bus-occupancy profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelBandwidth {
    /// Busy cycles and bytes by class.
    pub busy: ClassCounters,
    /// Total bus-busy cycles (all classes). Maintained alongside the
    /// per-class counters so the class-sum invariant is checkable.
    pub busy_cycles: u64,
    /// Cycle the bus was last busy until (for utilization bounds).
    pub busy_until: u64,
    /// Per-transfer queueing delay (arrival to service start).
    pub queue_wait: WaitHist,
}

/// A DRAM module's bandwidth-attribution state: lives inside the module
/// and is fed by the controller's existing timing paths.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTracker {
    channels: Vec<ChannelBandwidth>,
    /// Per-bank busy cycles by class (includes refresh occupancy).
    /// Cycles only — bank occupancy moves no bytes — so each bank's
    /// counters span half the cache footprint of a [`ClassCounters`].
    banks: Vec<[u64; TRAFFIC_CLASSES]>,
    /// Per-bank access counts indexed by row, recorded only when
    /// enabled. Each bank's table grows to the highest row touched; rows
    /// come from the cache layouts, so tables stay a few thousand
    /// entries long even at the Table IV 128 MB size.
    heatmap: Vec<Vec<u64>>,
    heatmap_enabled: bool,
}

/// Rows at or above this never load from a checkpoint: 64x the per-bank
/// row count of the whole 128 MB Table IV cache, so a crafted file
/// cannot make restore allocate without limit.
const HEATMAP_ROW_LIMIT: u64 = 1 << 22;

impl BandwidthTracker {
    /// A tracker for a module with `channels` channels and `banks`
    /// total banks.
    #[must_use]
    pub fn new(channels: usize, banks: usize) -> Self {
        BandwidthTracker {
            channels: vec![ChannelBandwidth::default(); channels],
            banks: vec![[0; TRAFFIC_CLASSES]; banks],
            heatmap: vec![Vec::new(); banks],
            heatmap_enabled: false,
        }
    }

    /// Records one bus transfer on `channel`: `burst` cycles moving
    /// `bytes`, having waited `queue_wait` cycles from arrival to
    /// service start, ending at cycle `done`.
    #[inline]
    pub fn record_transfer(
        &mut self,
        channel: usize,
        class: TrafficClass,
        burst: u64,
        bytes: u64,
        queue_wait: u64,
        done: u64,
    ) {
        let ch = &mut self.channels[channel];
        ch.busy.add(class, burst, bytes);
        ch.busy_cycles += burst;
        ch.busy_until = ch.busy_until.max(done);
        ch.queue_wait.record(queue_wait);
    }

    /// Attributes `cycles` of bank occupancy on `bank` to `class`.
    #[inline]
    pub fn record_bank_busy(&mut self, bank: usize, class: TrafficClass, cycles: u64) {
        self.banks[bank][class.index()] += cycles;
    }

    /// Records one access to `(bank, row)` in the set heatmap, when
    /// enabled.
    #[inline]
    pub fn record_access(&mut self, bank: u32, row: u64) {
        if self.heatmap_enabled {
            let rows = &mut self.heatmap[bank as usize];
            let row = usize::try_from(row).expect("row fits usize");
            if row >= rows.len() {
                rows.resize(row + 1, 0);
            }
            rows[row] += 1;
        }
    }

    /// Turns the per-set heatmap on (kept off by default: its tables
    /// grow with the rows touched, the one cost in this module that is
    /// not a fixed-size array add).
    pub fn enable_heatmap(&mut self) {
        self.heatmap_enabled = true;
    }

    /// Per-channel profiles.
    #[must_use]
    pub fn channels(&self) -> &[ChannelBandwidth] {
        &self.channels
    }

    /// Per-bank busy-cycle counters, indexed by [`TrafficClass::index`].
    #[must_use]
    pub fn banks(&self) -> &[[u64; TRAFFIC_CLASSES]] {
        &self.banks
    }

    /// Heatmap entries with a non-zero count, in `(bank, row)` order.
    fn heatmap_entries(&self) -> impl Iterator<Item = HotSet> + '_ {
        self.heatmap.iter().enumerate().flat_map(|(bank, rows)| {
            let bank = u32::try_from(bank).expect("bank index fits u32");
            rows.iter()
                .enumerate()
                .filter(|&(_, &accesses)| accesses > 0)
                .map(move |(row, &accesses)| HotSet {
                    bank,
                    row: row as u64,
                    accesses,
                })
        })
    }

    /// Cumulative per-channel busy cycles by class — the counter-event
    /// sampling surface.
    #[must_use]
    pub fn channel_class_cycles(&self) -> Vec<[u64; TRAFFIC_CLASSES]> {
        self.channels.iter().map(|c| c.busy.cycles).collect()
    }

    /// Clears all counters; geometry and the heatmap-enable flag stay.
    pub fn reset(&mut self) {
        for c in &mut self.channels {
            *c = ChannelBandwidth::default();
        }
        for b in &mut self.banks {
            *b = [0; TRAFFIC_CLASSES];
        }
        for rows in &mut self.heatmap {
            rows.clear();
        }
    }

    /// Report-ready summary. `elapsed_cycles` is the simulated span the
    /// counters cover; `top_k` bounds the hot-set list.
    #[must_use]
    pub fn summary(&self, elapsed_cycles: u64, top_k: usize) -> BandwidthSummary {
        let channels = self
            .channels
            .iter()
            .map(|c| ChannelBandwidthSummary {
                busy: c.busy,
                busy_cycles: c.busy_cycles,
                busy_until: c.busy_until,
                utilization: ratio(c.busy_cycles, elapsed_cycles),
                queue_wait: c.queue_wait.summary(),
            })
            .collect();
        let mut class_totals = ClassCounters::default();
        for c in &self.channels {
            class_totals.merge(&c.busy);
        }
        let mut bank_totals = ClassCounters::default();
        for b in &self.banks {
            for (total, cycles) in bank_totals.cycles.iter_mut().zip(b) {
                *total += cycles;
            }
        }
        // Deterministic top-K: by count descending, then (bank, row).
        let mut hot: Vec<HotSet> = self.heatmap_entries().collect();
        hot.sort_unstable_by(|a, b| {
            b.accesses
                .cmp(&a.accesses)
                .then(a.bank.cmp(&b.bank))
                .then(a.row.cmp(&b.row))
        });
        hot.truncate(top_k);
        BandwidthSummary {
            elapsed_cycles,
            channels,
            class_totals,
            bank_totals,
            hot_sets: hot,
        }
    }
}

/// One channel's summarized bus occupancy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChannelBandwidthSummary {
    /// Busy cycles and bytes by class.
    pub busy: ClassCounters,
    /// Total bus-busy cycles.
    pub busy_cycles: u64,
    /// Cycle the bus was last busy until.
    pub busy_until: u64,
    /// `busy_cycles / elapsed_cycles`.
    pub utilization: f64,
    /// Queueing-delay percentiles for transfers on this channel.
    pub queue_wait: HistSummary,
}

impl ChannelBandwidthSummary {
    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("busy_cycles", self.busy_cycles)
            .set("busy_until", self.busy_until)
            .set("utilization", self.utilization)
            .set("by_class", self.busy.to_json())
            .set("queue_wait", self.queue_wait.to_json());
        o
    }
}

/// One hot set in the access heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotSet {
    /// Flat bank index within the module.
    pub bank: u32,
    /// Row (set) within the bank.
    pub row: u64,
    /// Accesses observed.
    pub accesses: u64,
}

/// One DRAM module's report-ready bandwidth profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BandwidthSummary {
    /// Simulated cycles the counters cover.
    pub elapsed_cycles: u64,
    /// Per-channel bus profiles.
    pub channels: Vec<ChannelBandwidthSummary>,
    /// Bus busy cycles/bytes by class, summed over channels.
    pub class_totals: ClassCounters,
    /// Bank busy cycles by class, summed over banks (includes refresh).
    pub bank_totals: ClassCounters,
    /// Hottest `(bank, row)` sets, by access count.
    pub hot_sets: Vec<HotSet>,
}

impl BandwidthSummary {
    /// Total bus busy cycles over all channels.
    #[must_use]
    pub fn total_busy_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.busy_cycles).sum()
    }

    /// The share of total bus busy cycles attributed to `class`, in
    /// `[0, 1]`; zero when the bus never moved data.
    #[must_use]
    pub fn class_share(&self, class: TrafficClass) -> f64 {
        ratio(
            self.class_totals.cycles[class.index()],
            self.total_busy_cycles(),
        )
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("elapsed_cycles", self.elapsed_cycles)
            .set("busy_cycles", self.total_busy_cycles())
            .set("by_class", self.class_totals.to_json())
            .set("bank_by_class", self.bank_totals.to_json())
            .set(
                "channels",
                Json::Arr(
                    self.channels
                        .iter()
                        .map(ChannelBandwidthSummary::to_json)
                        .collect(),
                ),
            )
            .set(
                "hot_sets",
                Json::Arr(
                    self.hot_sets
                        .iter()
                        .map(|h| {
                            let mut s = Json::object();
                            s.set("bank", u64::from(h.bank))
                                .set("row", h.row)
                                .set("accesses", h.accesses);
                            s
                        })
                        .collect(),
                ),
            );
        o
    }
}

/// The whole memory system's report-ready bandwidth section: the
/// stacked cache module, the off-chip module behind it, and the
/// deferred background-operation queue's depth profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryBandwidth {
    /// Simulated cycles the counters cover.
    pub elapsed_cycles: u64,
    /// Stacked-DRAM (cache) bus and bank profile.
    pub cache: BandwidthSummary,
    /// Off-chip main-memory profile.
    pub offchip: BandwidthSummary,
    /// Deferred-queue depth profile.
    pub deferred_queue: QueueDepthStats,
}

impl MemoryBandwidth {
    /// Serializes as a JSON object with `cache`, `offchip` and
    /// `deferred_queue` sections.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("elapsed_cycles", self.elapsed_cycles)
            .set("cache", self.cache.to_json())
            .set("offchip", self.offchip.to_json())
            .set("deferred_queue", self.deferred_queue.to_json());
        o
    }
}

/// Deferred-queue depth profile: high-water mark plus a time-weighted
/// mean (depth integrated over simulated time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepthStats {
    /// Deepest the queue ever got.
    pub high_water: u64,
    integral: u128,
    window_start: u64,
    last_cycle: u64,
    last_depth: u64,
}

impl QueueDepthStats {
    /// Notes a push without advancing time (pushes are scheduled from
    /// completions, so no clock is available at the push site).
    #[inline]
    pub fn note_depth(&mut self, depth: u64) {
        self.high_water = self.high_water.max(depth);
    }

    /// Advances the time-weighted integral to `now` with the depth that
    /// held since the last observation, then records the new depth.
    #[inline]
    pub fn observe(&mut self, now: u64, depth: u64) {
        if now > self.last_cycle {
            self.integral += u128::from(self.last_depth) * u128::from(now - self.last_cycle);
            self.last_cycle = now;
        }
        self.last_depth = depth;
        self.high_water = self.high_water.max(depth);
    }

    /// Time-weighted mean depth over the observed window.
    #[must_use]
    pub fn time_weighted_mean(&self) -> f64 {
        let span = self.last_cycle.saturating_sub(self.window_start);
        if span == 0 {
            0.0
        } else {
            self.integral as f64 / span as f64
        }
    }

    /// Clears the profile (e.g. at the warm-up boundary), restarting
    /// the measurement window at the current clock.
    pub fn reset(&mut self) {
        self.high_water = self.last_depth;
        self.integral = 0;
        self.window_start = self.last_cycle;
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("high_water", self.high_water)
            .set("time_weighted_mean", self.time_weighted_mean());
        o
    }
}

/// Cumulative per-channel class-cycle samples taken at epoch
/// boundaries, exported as Chrome trace counter events (`"ph":"C"`) so
/// Perfetto draws stacked per-channel utilization lanes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BandwidthSeries {
    samples: Vec<BandwidthSample>,
}

/// One sample: cumulative busy cycles by class, per channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandwidthSample {
    /// Simulated cycle the sample was taken at.
    pub cycle: u64,
    /// Per-channel cumulative busy cycles by class.
    pub channels: Vec<[u64; TRAFFIC_CLASSES]>,
}

impl BandwidthSeries {
    /// Appends a sample (cumulative counters at `cycle`).
    pub fn push(&mut self, cycle: u64, channels: Vec<[u64; TRAFFIC_CLASSES]>) {
        self.samples.push(BandwidthSample { cycle, channels });
    }

    /// The recorded samples.
    #[must_use]
    pub fn samples(&self) -> &[BandwidthSample] {
        &self.samples
    }

    /// True when nothing was sampled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Chrome trace counter events: one `"ph":"C"` event per channel
    /// per sample, carrying that epoch's busy-cycle *delta* per class
    /// (Perfetto stacks the args series into a utilization lane).
    /// Classes that never move are omitted to keep traces small.
    #[must_use]
    pub fn counter_events(&self) -> Vec<Json> {
        let n_channels = self.samples.first().map_or(0, |s| s.channels.len());
        // Which classes ever have activity on any channel.
        let mut active = [false; TRAFFIC_CLASSES];
        if let Some(last) = self.samples.last() {
            for ch in &last.channels {
                for (i, &v) in ch.iter().enumerate() {
                    if v > 0 {
                        active[i] = true;
                    }
                }
            }
        }
        let mut events = Vec::new();
        let mut prev: Vec<[u64; TRAFFIC_CLASSES]> = vec![[0; TRAFFIC_CLASSES]; n_channels];
        for s in &self.samples {
            for (ch, cum) in s.channels.iter().enumerate() {
                let mut args = Json::object();
                for class in TrafficClass::ALL {
                    let i = class.index();
                    if !active[i] {
                        continue;
                    }
                    args.set(class.name(), cum[i].saturating_sub(prev[ch][i]));
                }
                let mut o = Json::object();
                o.set("name", format!("dram ch{ch} busy cycles"))
                    .set("ph", "C")
                    .set("ts", s.cycle)
                    .set("pid", 0u64)
                    .set("tid", 0u64)
                    .set("args", args);
                events.push(o);
                prev[ch] = *cum;
            }
        }
        events
    }

    /// Clears the series.
    pub fn reset(&mut self) {
        self.samples.clear();
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

use bimodal_ckpt::{CkptError, Snapshot, SnapshotReader, SnapshotWriter};

impl Snapshot for TrafficClass {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(u8::try_from(self.index()).expect("few classes"));
    }

    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        let i = usize::from(r.u8()?);
        TrafficClass::ALL
            .get(i)
            .copied()
            .ok_or_else(|| r.corrupt(format!("traffic class index {i} out of range")))
    }
}

bimodal_ckpt::snapshot_fields! { ClassCounters { cycles, bytes } }

bimodal_ckpt::snapshot_fields! { WaitHist { count, sum, min, max, counts } }

bimodal_ckpt::snapshot_fields! { ChannelBandwidth { busy, busy_cycles, busy_until, queue_wait } }

impl Snapshot for BandwidthTracker {
    fn save(&self, w: &mut SnapshotWriter) {
        self.channels.save(w);
        self.banks.save(w);
        // The non-zero counts as `((bank, row), accesses)` in (bank, row)
        // order.
        let hot: Vec<((u32, u64), u64)> = self
            .heatmap_entries()
            .map(|h| ((h.bank, h.row), h.accesses))
            .collect();
        hot.save(w);
        w.bool(self.heatmap_enabled);
    }

    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, CkptError> {
        let channels = Snapshot::load(r)?;
        let banks: Vec<[u64; TRAFFIC_CLASSES]> = Snapshot::load(r)?;
        let hot: Vec<((u32, u64), u64)> = Snapshot::load(r)?;
        let mut heatmap: Vec<Vec<u64>> = vec![Vec::new(); banks.len()];
        let mut prev: Option<(u32, u64)> = None;
        for (i, &((bank, row), accesses)) in hot.iter().enumerate() {
            let what = format!("heatmap entry {i} (bank {bank}, row {row})");
            let Some(rows) = heatmap.get_mut(bank as usize) else {
                return Err(r.corrupt(format!(
                    "{what}: bank out of range for {} banks",
                    banks.len()
                )));
            };
            if prev.is_some_and(|p| p >= (bank, row)) {
                return Err(r.corrupt(format!(
                    "{what}: entries are not strictly increasing in (bank, row)"
                )));
            }
            if accesses == 0 {
                return Err(r.corrupt(format!("{what}: zero access count")));
            }
            if row >= HEATMAP_ROW_LIMIT {
                return Err(r.corrupt(format!("{what}: row at or above {HEATMAP_ROW_LIMIT}")));
            }
            let row = row as usize;
            rows.resize(row + 1, 0);
            rows[row] = accesses;
            prev = Some((bank, row as u64));
        }
        Ok(BandwidthTracker {
            channels,
            banks,
            heatmap,
            heatmap_enabled: r.bool()?,
        })
    }
}

bimodal_ckpt::snapshot_fields! {
    QueueDepthStats { high_water, integral, window_start, last_cycle, last_depth }
}

bimodal_ckpt::snapshot_fields! { BandwidthSample { cycle, channels } }

bimodal_ckpt::snapshot_fields! { BandwidthSeries { samples } }

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn class_indices_match_all_order() {
        for (i, class) in TrafficClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
        assert_eq!(TrafficClass::ALL.len(), TRAFFIC_CLASSES);
    }

    #[test]
    fn class_names_are_stable_and_unique() {
        let names: Vec<&str> = TrafficClass::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(TrafficClass::MetadataRead.name(), "metadata_read");
        assert_eq!(TrafficClass::default(), TrafficClass::Other);
    }

    #[test]
    fn transfers_keep_class_sum_equal_to_total() {
        let mut t = BandwidthTracker::new(2, 4);
        t.record_transfer(0, TrafficClass::DataHit, 4, 64, 0, 100);
        t.record_transfer(0, TrafficClass::MetadataRead, 2, 32, 5, 110);
        t.record_transfer(1, TrafficClass::DataFill, 8, 128, 1, 200);
        for c in t.channels() {
            assert_eq!(c.busy.total_cycles(), c.busy_cycles);
        }
        assert_eq!(t.channels()[0].busy_cycles, 6);
        assert_eq!(t.channels()[0].busy_until, 110);
        assert_eq!(t.channels()[0].queue_wait.count(), 2);
        let s = t.summary(1_000, 4);
        assert_eq!(s.total_busy_cycles(), 14);
        assert_eq!(s.class_totals.cycles[TrafficClass::DataFill.index()], 8);
        assert!((s.channels[1].utilization - 0.008).abs() < 1e-12);
    }

    #[test]
    fn bank_busy_and_refresh_accumulate_separately_from_bus() {
        let mut t = BandwidthTracker::new(1, 2);
        t.record_bank_busy(0, TrafficClass::DataHit, 20);
        t.record_bank_busy(1, TrafficClass::Refresh, 200);
        let s = t.summary(1_000, 4);
        assert_eq!(s.total_busy_cycles(), 0, "bank busy is not bus busy");
        assert_eq!(s.bank_totals.cycles[TrafficClass::Refresh.index()], 200);
        assert_eq!(s.bank_totals.cycles[TrafficClass::DataHit.index()], 20);
    }

    #[test]
    fn heatmap_is_off_by_default_and_topk_is_deterministic() {
        let mut t = BandwidthTracker::new(1, 1);
        t.record_access(0, 7);
        assert!(t.summary(100, 8).hot_sets.is_empty());
        t.enable_heatmap();
        for _ in 0..3 {
            t.record_access(0, 7);
        }
        t.record_access(0, 9);
        t.record_access(0, 1);
        let s = t.summary(100, 2);
        assert_eq!(s.hot_sets.len(), 2);
        assert_eq!((s.hot_sets[0].row, s.hot_sets[0].accesses), (7, 3));
        // Tie between rows 1 and 9 broken by row order.
        assert_eq!(s.hot_sets[1].row, 1);
    }

    #[test]
    fn reset_clears_counters_but_keeps_heatmap_enable() {
        let mut t = BandwidthTracker::new(1, 1);
        t.enable_heatmap();
        t.record_transfer(0, TrafficClass::DataHit, 4, 64, 0, 50);
        t.record_access(0, 3);
        t.reset();
        assert_eq!(t.channels()[0].busy_cycles, 0);
        assert!(t.summary(10, 4).hot_sets.is_empty());
        t.record_access(0, 3);
        assert_eq!(t.summary(10, 4).hot_sets.len(), 1, "still enabled");
    }

    /// SplitMix64: a dependency-free stream of test draws.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn tracker_bytes(t: &BandwidthTracker) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.save(&mut w);
        w.into_bytes()
    }

    /// The hashed heatmap the dense tables replaced: its top-K and its
    /// snapshot bytes, for the differential test.
    fn reference_hot_sets(map: &HashMap<(u32, u64), u64>, top_k: usize) -> Vec<HotSet> {
        let mut hot: Vec<HotSet> = map
            .iter()
            .map(|(&(bank, row), &accesses)| HotSet {
                bank,
                row,
                accesses,
            })
            .collect();
        hot.sort_unstable_by(|a, b| {
            b.accesses
                .cmp(&a.accesses)
                .then(a.bank.cmp(&b.bank))
                .then(a.row.cmp(&b.row))
        });
        hot.truncate(top_k);
        hot
    }

    fn reference_bytes(t: &BandwidthTracker, map: &HashMap<(u32, u64), u64>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.channels.save(&mut w);
        t.banks.save(&mut w);
        let mut hot: Vec<((u32, u64), u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
        hot.sort_unstable();
        hot.save(&mut w);
        w.bool(t.heatmap_enabled);
        w.into_bytes()
    }

    #[test]
    fn dense_heatmap_matches_a_hash_map_op_for_op() {
        for seed in [1u64, 0xB10DA1, 29] {
            let mut rng = seed;
            let mut t = BandwidthTracker::new(2, 16);
            t.enable_heatmap();
            let mut map: HashMap<(u32, u64), u64> = HashMap::new();
            for step in 0..5000 {
                let ctx = format!("seed {seed}, step {step}");
                if draw(&mut rng).is_multiple_of(1000) {
                    t.reset();
                    map.clear();
                } else {
                    let bank = (draw(&mut rng) % 16) as u32;
                    // A skewed row draw, so some sets run hot and counts tie.
                    let row = draw(&mut rng) % (1 + draw(&mut rng) % 600);
                    t.record_access(bank, row);
                    *map.entry((bank, row)).or_insert(0) += 1;
                }
                if step % 97 == 0 || step == 4999 {
                    for top_k in [0, 1, 8, 10_000] {
                        assert_eq!(
                            t.summary(1_000, top_k).hot_sets,
                            reference_hot_sets(&map, top_k),
                            "{ctx}, top {top_k}"
                        );
                    }
                    let bytes = tracker_bytes(&t);
                    assert_eq!(bytes, reference_bytes(&t, &map), "{ctx}");
                    let back = BandwidthTracker::load(&mut SnapshotReader::new(&bytes, "bw"))
                        .expect("round trip");
                    assert_eq!(back, t, "{ctx}");
                }
            }
        }
    }

    /// Saves a one-channel, two-bank tracker whose heatmap is `entries`,
    /// and loads it back.
    fn load_heatmap(entries: &[((u32, u64), u64)]) -> Result<BandwidthTracker, CkptError> {
        let t = BandwidthTracker::new(1, 2);
        let mut w = SnapshotWriter::new();
        t.channels.save(&mut w);
        t.banks.save(&mut w);
        entries.to_vec().save(&mut w);
        w.bool(true);
        let bytes = w.into_bytes();
        BandwidthTracker::load(&mut SnapshotReader::new(&bytes, "bw"))
    }

    #[test]
    fn heatmap_restore_rejects_each_malformed_entry() {
        let ok = load_heatmap(&[((0, 3), 2), ((1, 0), 1), ((1, (1 << 22) - 1), 5)])
            .expect("well-formed entries load");
        assert_eq!(ok.summary(1, 1).hot_sets[0].row, (1 << 22) - 1);
        for (entries, want) in [
            (
                vec![((2u32, 0u64), 1u64)],
                "entry 0 (bank 2, row 0): bank out of range",
            ),
            (
                vec![((0, 5), 1), ((0, 5), 1)],
                "entry 1 (bank 0, row 5): entries are not strictly",
            ),
            (
                vec![((1, 0), 1), ((0, 9), 1)],
                "entry 1 (bank 0, row 9): entries are not strictly",
            ),
            (
                vec![((0, 1), 1), ((0, 2), 0)],
                "entry 1 (bank 0, row 2): zero access count",
            ),
            (vec![((0, 1 << 22), 1)], "row at or above 4194304"),
        ] {
            match load_heatmap(&entries) {
                Err(CkptError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(want), "{entries:?}: {detail}");
                }
                other => panic!("{entries:?}: expected a Corrupt error, got {other:?}"),
            }
        }
    }

    #[test]
    fn queue_depth_tracks_high_water_and_time_weighted_mean() {
        let mut q = QueueDepthStats::default();
        q.note_depth(3);
        q.observe(10, 2); // depth 0 held over [0, 10)
        q.observe(20, 0); // depth 2 held over [10, 20)
        assert_eq!(q.high_water, 3);
        assert!((q.time_weighted_mean() - 1.0).abs() < 1e-12);
        q.reset();
        assert_eq!(q.high_water, 0);
        q.observe(30, 5); // depth 0 held over [20, 30)
        q.observe(40, 0); // depth 5 held over [30, 40)
        assert!((q.time_weighted_mean() - 2.5).abs() < 1e-12);
        assert_eq!(q.high_water, 5);
    }

    #[test]
    fn counter_events_emit_deltas_per_channel() {
        let mut s = BandwidthSeries::default();
        let mut a = [0u64; TRAFFIC_CLASSES];
        a[TrafficClass::DataHit.index()] = 10;
        s.push(1_000, vec![a]);
        let mut b = a;
        b[TrafficClass::DataHit.index()] = 25;
        b[TrafficClass::MetadataRead.index()] = 0;
        s.push(2_000, vec![b]);
        let events = s.counter_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("C"));
        let first = events[0].get("args").unwrap();
        assert_eq!(first.get("data_hit").and_then(Json::as_f64), Some(10.0));
        // Inactive classes are omitted entirely.
        assert!(first.get("metadata_read").is_none());
        let second = events[1].get("args").unwrap();
        assert_eq!(second.get("data_hit").and_then(Json::as_f64), Some(15.0));
    }

    #[test]
    fn summary_json_has_expected_shape() {
        let mut t = BandwidthTracker::new(1, 1);
        t.enable_heatmap();
        t.record_transfer(0, TrafficClass::Writeback, 8, 64, 2, 90);
        t.record_access(0, 4);
        let j = t.summary(1_000, 4).to_json();
        assert_eq!(j.get("busy_cycles").and_then(Json::as_f64), Some(8.0));
        assert!(j.get("by_class").and_then(|b| b.get("writeback")).is_some());
        assert_eq!(
            j.get("channels").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            j.get("hot_sets").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(Json::parse(&j.to_pretty()).is_ok());
    }

    #[test]
    fn wait_hist_matches_general_histogram_and_saturates() {
        use crate::Histogram;
        let mut w = WaitHist::default();
        let mut h = Histogram::new();
        for v in [0u64, 0, 1, 3, 7, 7, 64, 100, 5000] {
            w.record(v);
            h.record(v);
        }
        // Same bucketing, same estimator: summaries agree exactly for
        // values below the saturation bucket.
        assert_eq!(w.summary(), h.summary());
        // Values past 2^22 share the top bucket; max stays exact.
        let mut w = WaitHist::default();
        w.record(1 << 23);
        w.record(1 << 40);
        assert_eq!(w.max(), 1 << 40);
        assert_eq!(w.count(), 2);
        assert_eq!(w.summary().p99, 1 << 40);
    }
}
