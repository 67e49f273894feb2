//! Per-access latency anatomy: sim-cycle accounting by cause.
//!
//! Spans attribute host-ns to code regions and the bandwidth tracker
//! attributes bus cycles to traffic classes, but neither can say *why*
//! one access took 329 cycles and another 947. This module decomposes
//! every timed access's end-to-end latency into a fixed component
//! taxonomy — queue wait, bank-conflict stall, tag probe, locator
//! overhead, data burst, off-chip time, deferred-queue interference —
//! with the structural invariant that the components of an access sum
//! exactly to its measured latency (`Other` absorbs any residual, and
//! is kept near zero by construction at every scheme return site).
//!
//! The recording path mirrors [`crate::span`]'s relaxed-atomic fast
//! gate: with no anatomy-enabled run active anywhere in the process,
//! every instrumentation site reduces to one relaxed atomic load and a
//! predictable branch. Schemes attribute cycles through a thread-local
//! per-access builder; the DRAM controller leaves a [`DramSegments`]
//! note describing the exact timing partition of its last column
//! access, which the issuing scheme consumes immediately after the
//! call.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::bandwidth::{TrafficClass, TRAFFIC_CLASSES};
use crate::hist::{HistSummary, Histogram};
use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::RequestClass;

/// Where an access's cycles went. The taxonomy is fixed so exports,
/// diffs and CI gates can rely on stable names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Waiting for a busy bank, a refresh window, the tFAW window, or
    /// the data bus — time the request existed but no resource served it.
    QueueWait,
    /// Row precharge + activate (bank conflicts and cold rows).
    BankConflict,
    /// Reading and comparing tags (DRAM tag probes, TAD reads,
    /// metadata-bank accesses, tag-compare cycles).
    TagProbe,
    /// SRAM predictor/locator structures consulted before DRAM is
    /// touched (way locator, tag cache, SRAM tag arrays).
    Locator,
    /// CAS latency plus the data burst of the critical-path cache-DRAM
    /// column access.
    DataBurst,
    /// Off-chip / far-tier time: the window the access waited on main
    /// memory (or the slow far tier of a hybrid substrate).
    OffChip,
    /// Portion of the queue wait attributable to drained background
    /// operations (fills, metadata writes, writebacks) occupying the
    /// bank ahead of this access.
    DeferredWait,
    /// Residual cycles no site claimed; near zero by construction.
    Other,
}

/// Number of components in the taxonomy.
pub const COMPONENT_COUNT: usize = 8;

impl Component {
    /// All components, in stable export order.
    pub const ALL: [Component; COMPONENT_COUNT] = [
        Component::QueueWait,
        Component::BankConflict,
        Component::TagProbe,
        Component::Locator,
        Component::DataBurst,
        Component::OffChip,
        Component::DeferredWait,
        Component::Other,
    ];

    /// Stable lowercase name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Component::QueueWait => "queue_wait",
            Component::BankConflict => "bank_conflict",
            Component::TagProbe => "tag_probe",
            Component::Locator => "locator",
            Component::DataBurst => "data_burst",
            Component::OffChip => "offchip",
            Component::DeferredWait => "deferred_wait",
            Component::Other => "other",
        }
    }

    /// Dense index into component arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Exact timing partition of one DRAM column access, as computed by the
/// controller: `wait + prep + cas + bus + burst` equals the access's
/// completion minus the arrival time the issuer passed (`deferred` is
/// the sub-slice of `wait` caused by drained background operations, not
/// an additional term).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramSegments {
    /// Arrival to service start: bank busy, refresh, tFAW.
    pub wait: u64,
    /// Portion of `wait` attributable to background (deferred) work
    /// occupying the bank.
    pub deferred: u64,
    /// Precharge + activate (zero on a row hit).
    pub prep: u64,
    /// CAS latency plus slow-media read extension.
    pub cas: u64,
    /// Data-bus queueing between CAS completion and transfer start.
    pub bus: u64,
    /// Data transfer on the bus.
    pub burst: u64,
}

impl DramSegments {
    /// Total cycles of the partition (excluding `deferred`, which is a
    /// sub-slice of `wait`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.wait + self.prep + self.cas + self.bus + self.burst
    }
}

/// One access's finished component vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessAnatomy {
    /// Cycles per component, indexed by [`Component::index`]; sums
    /// exactly to the access's measured latency.
    pub comps: [u64; COMPONENT_COUNT],
    /// Estimated cycles saved by fused tag+data bursts (side counter;
    /// savings are not latency and are excluded from the sum invariant).
    pub fused_saved: u64,
}

/// In-progress attribution for the access currently being serviced on
/// this thread.
#[derive(Debug, Clone, Copy)]
struct AccessBuilder {
    comps: [u64; COMPONENT_COUNT],
    fused_saved: u64,
    note: DramSegments,
    has_note: bool,
}

const EMPTY_BUILDER: AccessBuilder = AccessBuilder {
    comps: [0; COMPONENT_COUNT],
    fused_saved: 0,
    note: DramSegments {
        wait: 0,
        deferred: 0,
        prep: 0,
        cas: 0,
        bus: 0,
        burst: 0,
    },
    has_note: false,
};

/// Per-class cycle totals for background (deferred) operations, keyed
/// by the *originating* access's traffic class. This is the corrected
/// attribution: a drained fill's bank time belongs to the fill, not to
/// whichever demand access happened to trigger the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundTally {
    /// Operations drained per traffic class.
    pub ops: [u64; TRAFFIC_CLASSES],
    /// Cycles per class per component.
    pub cycles: [[u64; COMPONENT_COUNT]; TRAFFIC_CLASSES],
}

impl Default for BackgroundTally {
    fn default() -> Self {
        BackgroundTally {
            ops: [0; TRAFFIC_CLASSES],
            cycles: [[0; COMPONENT_COUNT]; TRAFFIC_CLASSES],
        }
    }
}

impl BackgroundTally {
    /// Total cycles recorded for `class` across all components.
    #[must_use]
    pub fn class_cycles(&self, class: TrafficClass) -> u64 {
        self.cycles[class.index()].iter().sum()
    }

    /// Total cycles across every class and component.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().flatten().sum()
    }

    fn merge(&mut self, other: &BackgroundTally) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            *a += b;
        }
        for (row_a, row_b) in self.cycles.iter_mut().zip(&other.cycles) {
            for (a, b) in row_a.iter_mut().zip(row_b) {
                *a += b;
            }
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CUR: RefCell<AccessBuilder> = const { RefCell::new(EMPTY_BUILDER) };
    static BACKGROUND: RefCell<BackgroundTally> = RefCell::new(BackgroundTally::default());
    static BACKGROUND_DIRTY: Cell<bool> = const { Cell::new(false) };
}

/// Count of threads currently inside an anatomy-enabled run. The
/// process-wide first gate: relaxed is sufficient because a false
/// negative only skips attribution for an access racing `begin_thread`
/// on another thread, and the thread-local `ENABLED` makes the final
/// decision.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Whether anatomy recording is active on this thread. One relaxed
/// atomic load when no run in the process records anatomy.
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && ENABLED.with(Cell::get)
}

/// Arms anatomy recording on this thread, clearing any stale builder
/// state. The engine calls this at run start when anatomy is enabled.
pub fn begin_thread() {
    CUR.with(|c| *c.borrow_mut() = EMPTY_BUILDER);
    BACKGROUND.with(|b| *b.borrow_mut() = BackgroundTally::default());
    BACKGROUND_DIRTY.with(|d| d.set(false));
    ENABLED.with(|e| e.set(true));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
}

/// Disarms anatomy recording on this thread.
pub fn end_thread() {
    if ENABLED.with(Cell::get) {
        ENABLED.with(|e| e.set(false));
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Resets the per-access builder at the start of a timed access.
pub fn start_access() {
    CUR.with(|c| *c.borrow_mut() = EMPTY_BUILDER);
}

/// Adds `cycles` to `component` for the access in flight.
#[inline]
pub fn add(component: Component, cycles: u64) {
    if cycles > 0 {
        CUR.with(|c| c.borrow_mut().comps[component.index()] += cycles);
    }
}

/// Credits an estimate of cycles a fused tag+data burst avoided (side
/// counter, excluded from the sum invariant).
#[inline]
pub fn fused_saved(cycles: u64) {
    CUR.with(|c| c.borrow_mut().fused_saved += cycles);
}

/// Leaves the timing partition of the column access the controller just
/// completed. Overwrites any unconsumed note: consumers call
/// [`take_dram`]/[`charge_dram`] immediately after the DRAM call they
/// care about, so a stale note from an off-critical-path operation is
/// simply replaced.
#[inline]
pub fn note_dram(segs: DramSegments) {
    CUR.with(|c| {
        let mut b = c.borrow_mut();
        b.note = segs;
        b.has_note = true;
    });
}

/// Consumes the controller's last [`DramSegments`] note, if one is
/// pending.
pub fn take_dram() -> Option<DramSegments> {
    CUR.with(|c| {
        let mut b = c.borrow_mut();
        if b.has_note {
            b.has_note = false;
            Some(b.note)
        } else {
            None
        }
    })
}

/// Folds a timing partition into the access: waits land in
/// [`Component::QueueWait`] (minus the deferred slice, which lands in
/// [`Component::DeferredWait`]), row preparation in
/// [`Component::BankConflict`], and the CAS + burst cycles in `data`
/// (e.g. [`Component::TagProbe`] for a tag read,
/// [`Component::DataBurst`] for the data column access).
pub fn charge_segments(s: DramSegments, data: Component) {
    CUR.with(|c| c.borrow_mut().charge(s, data));
}

/// Consumes the last DRAM note (if any) and folds it into the access
/// via [`charge_segments`].
pub fn charge_dram(data: Component) {
    CUR.with(|c| {
        let mut b = c.borrow_mut();
        if b.has_note {
            b.has_note = false;
            let s = b.note;
            b.charge(s, data);
        }
    });
}

impl AccessBuilder {
    /// The body of [`charge_segments`], under the caller's one borrow.
    #[inline]
    fn charge(&mut self, s: DramSegments, data: Component) {
        let deferred = s.deferred.min(s.wait);
        self.comps[Component::QueueWait.index()] += (s.wait - deferred) + s.bus;
        self.comps[Component::DeferredWait.index()] += deferred;
        self.comps[Component::BankConflict.index()] += s.prep;
        self.comps[data.index()] += s.cas + s.burst;
    }
}

/// Finishes the access in flight: clamps the accumulated components to
/// `latency` (debug builds assert they never exceed it), folds the
/// residual into [`Component::Other`], and returns the vector. The
/// returned components sum to `latency` exactly.
pub fn finish_access(latency: u64) -> AccessAnatomy {
    CUR.with(|c| {
        let mut b = c.borrow_mut();
        let mut comps = b.comps;
        let fused = b.fused_saved;
        *b = EMPTY_BUILDER;
        drop(b);
        let mut sum: u64 = comps.iter().sum();
        debug_assert!(
            sum <= latency,
            "anatomy components ({sum}) exceed measured latency ({latency}): {comps:?}"
        );
        if sum > latency {
            // Release-mode safety net: trim from the back of the
            // taxonomy so the sum invariant holds even if a site
            // over-attributed.
            let mut excess = sum - latency;
            for v in comps.iter_mut().rev() {
                let cut = excess.min(*v);
                *v -= cut;
                excess -= cut;
                if excess == 0 {
                    break;
                }
            }
            sum = latency;
        }
        comps[Component::Other.index()] += latency - sum;
        AccessAnatomy {
            comps,
            fused_saved: fused,
        }
    })
}

/// Records one drained background operation's DRAM segments against its
/// originating traffic class.
pub fn record_background(class: TrafficClass, segs: DramSegments) {
    BACKGROUND.with(|bg| {
        let mut t = bg.borrow_mut();
        let i = class.index();
        t.ops[i] += 1;
        let deferred = segs.deferred.min(segs.wait);
        t.cycles[i][Component::QueueWait.index()] += (segs.wait - deferred) + segs.bus;
        t.cycles[i][Component::DeferredWait.index()] += deferred;
        t.cycles[i][Component::BankConflict.index()] += segs.prep;
        t.cycles[i][Component::DataBurst.index()] += segs.cas + segs.burst;
    });
    BACKGROUND_DIRTY.with(|d| d.set(true));
}

/// Records a drained background operation that went off-chip (a main
/// memory writeback) as a single off-chip total.
pub fn record_background_offchip(class: TrafficClass, cycles: u64) {
    BACKGROUND.with(|bg| {
        let mut t = bg.borrow_mut();
        let i = class.index();
        t.ops[i] += 1;
        t.cycles[i][Component::OffChip.index()] += cycles;
    });
    BACKGROUND_DIRTY.with(|d| d.set(true));
}

/// Drains the thread's background tally, returning it when anything was
/// recorded since the last take. The tally is a plain sum, so the engine
/// merges it into the run's [`AnatomyStats`] only where the accumulator
/// is read or reset (the warm-up reset, each checkpoint, the end of the
/// run); the dirty flag keeps a nothing-drained take to one thread-local
/// read.
pub fn take_background() -> Option<BackgroundTally> {
    if !BACKGROUND_DIRTY.with(Cell::get) {
        return None;
    }
    BACKGROUND_DIRTY.with(|d| d.set(false));
    Some(BACKGROUND.with(|bg| std::mem::take(&mut *bg.borrow_mut())))
}

/// The demand populations anatomy splits on: request class x hit/miss.
const POPULATIONS: usize = 6;

const POPULATION_NAMES: [&str; POPULATIONS] = [
    "read_hit",
    "read_miss",
    "write_hit",
    "write_miss",
    "prefetch_hit",
    "prefetch_miss",
];

fn population_index(class: RequestClass, hit: bool) -> usize {
    let c = match class {
        RequestClass::Read => 0,
        RequestClass::Write => 1,
        RequestClass::Prefetch => 2,
    };
    c * 2 + usize::from(!hit)
}

/// Accumulators for one demand population.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PopStats {
    count: u64,
    total_latency: u64,
    comp_cycles: [u64; COMPONENT_COUNT],
    comp_hists: [Histogram; COMPONENT_COUNT],
}

impl PopStats {
    fn record(&mut self, latency: u64, rec: &AccessAnatomy) {
        self.count += 1;
        self.total_latency += latency;
        for (i, &v) in rec.comps.iter().enumerate() {
            self.comp_cycles[i] += v;
            self.comp_hists[i].record(v);
        }
    }
}

/// The run-level anatomy accumulator the [`crate::Observer`] owns:
/// per-population component histograms and cycle totals, the background
/// per-class tally, and the fused-savings counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnatomyStats {
    pops: [PopStats; POPULATIONS],
    background: BackgroundTally,
    fused_saved: u64,
}

impl AnatomyStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        AnatomyStats::default()
    }

    /// Records one finished demand (or prefetch) access.
    pub fn record(&mut self, class: RequestClass, hit: bool, latency: u64, rec: &AccessAnatomy) {
        self.pops[population_index(class, hit)].record(latency, rec);
        self.fused_saved += rec.fused_saved;
    }

    /// Folds a drained-operations tally into the background table.
    pub fn merge_background(&mut self, tally: &BackgroundTally) {
        self.background.merge(tally);
    }

    /// Clears everything (warm-up boundary).
    pub fn reset(&mut self) {
        *self = AnatomyStats::default();
    }

    /// Accesses recorded across all populations.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.pops.iter().map(|p| p.count).sum()
    }

    /// Verifies the structural invariant: per population, component
    /// cycles sum exactly to the accumulated latency. Returns the
    /// offending population name on violation.
    pub fn check_sums(&self) -> Result<(), String> {
        for (name, p) in POPULATION_NAMES.iter().zip(&self.pops) {
            let sum: u64 = p.comp_cycles.iter().sum();
            if sum != p.total_latency {
                return Err(format!(
                    "population {name}: components sum to {sum}, measured latency {}",
                    p.total_latency
                ));
            }
        }
        Ok(())
    }

    /// Report-ready summary.
    #[must_use]
    pub fn summarize(&self) -> AnatomySummary {
        AnatomySummary {
            populations: POPULATION_NAMES
                .iter()
                .zip(&self.pops)
                .map(|(&name, p)| PopSummary {
                    name,
                    count: p.count,
                    total_latency: p.total_latency,
                    components: Component::ALL
                        .iter()
                        .map(|&c| CompSummary {
                            name: c.name(),
                            cycles: p.comp_cycles[c.index()],
                            hist: p.comp_hists[c.index()].summary(),
                        })
                        .collect(),
                })
                .collect(),
            background: TrafficClass::ALL
                .iter()
                .filter(|c| self.background.ops[c.index()] > 0)
                .map(|&c| ClassBgSummary {
                    name: c.name(),
                    ops: self.background.ops[c.index()],
                    cycles: self.background.cycles[c.index()],
                })
                .collect(),
            fused_saved_cycles: self.fused_saved,
        }
    }
}

impl bimodal_ckpt::Snapshot for AnatomyStats {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        for p in &self.pops {
            w.u64(p.count);
            w.u64(p.total_latency);
            for &c in &p.comp_cycles {
                w.u64(c);
            }
            for h in &p.comp_hists {
                h.save(w);
            }
        }
        for &o in &self.background.ops {
            w.u64(o);
        }
        for row in &self.background.cycles {
            for &c in row {
                w.u64(c);
            }
        }
        w.u64(self.fused_saved);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        let mut s = AnatomyStats::default();
        for p in &mut s.pops {
            p.count = r.u64()?;
            p.total_latency = r.u64()?;
            for c in &mut p.comp_cycles {
                *c = r.u64()?;
            }
            for h in &mut p.comp_hists {
                *h = bimodal_ckpt::Snapshot::load(r)?;
            }
        }
        for o in &mut s.background.ops {
            *o = r.u64()?;
        }
        for row in &mut s.background.cycles {
            for c in row.iter_mut() {
                *c = r.u64()?;
            }
        }
        s.fused_saved = r.u64()?;
        if let Err(e) = s.check_sums() {
            return Err(r.corrupt(format!("anatomy sum invariant violated: {e}")));
        }
        Ok(s)
    }
}

/// One component's summary within a population.
#[derive(Debug, Clone, PartialEq)]
pub struct CompSummary {
    /// Component name ([`Component::name`]).
    pub name: &'static str,
    /// Total cycles attributed.
    pub cycles: u64,
    /// Per-access distribution.
    pub hist: HistSummary,
}

/// One demand population's anatomy summary.
#[derive(Debug, Clone, PartialEq)]
pub struct PopSummary {
    /// Population name (`read_hit`, `write_miss`, ...).
    pub name: &'static str,
    /// Accesses recorded.
    pub count: u64,
    /// Sum of measured latencies; equals the sum of component cycles.
    pub total_latency: u64,
    /// Per-component totals and distributions, in [`Component::ALL`]
    /// order.
    pub components: Vec<CompSummary>,
}

impl PopSummary {
    /// Mean cycles per access spent in component `i`.
    #[must_use]
    pub fn mean_component(&self, i: usize) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.components[i].cycles as f64 / self.count as f64
        }
    }

    /// Mean measured latency of this population.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.count as f64
        }
    }
}

/// Background (deferred-drain) cycles for one traffic class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassBgSummary {
    /// Traffic class name ([`TrafficClass::name`]).
    pub name: &'static str,
    /// Operations drained.
    pub ops: u64,
    /// Cycles per component, in [`Component::ALL`] order.
    pub cycles: [u64; COMPONENT_COUNT],
}

/// Report-ready anatomy summary: what `--json` reports carry under the
/// `anatomy` key.
#[derive(Debug, Clone, PartialEq)]
pub struct AnatomySummary {
    /// Per-population summaries, all six populations in fixed order.
    pub populations: Vec<PopSummary>,
    /// Background per-class totals; classes with zero drained ops are
    /// omitted.
    pub background: Vec<ClassBgSummary>,
    /// Estimated cycles saved by fused tag+data bursts.
    pub fused_saved_cycles: u64,
}

impl AnatomySummary {
    /// Serializes as the report's `anatomy` JSON section.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pops = Json::object();
        for p in &self.populations {
            let mut comps = Json::object();
            for c in &p.components {
                let mut o = Json::object();
                o.set("cycles", c.cycles).set("hist", c.hist.to_json());
                comps.set(c.name, o);
            }
            let mut o = Json::object();
            o.set("count", p.count)
                .set("total_latency", p.total_latency)
                .set("components", comps);
            pops.set(p.name, o);
        }
        let mut bg = Json::object();
        for b in &self.background {
            let mut comps = Json::object();
            for (c, &cy) in Component::ALL.iter().zip(&b.cycles) {
                if cy > 0 {
                    comps.set(c.name(), cy);
                }
            }
            let mut o = Json::object();
            o.set("ops", b.ops).set("cycles", comps);
            bg.set(b.name, o);
        }
        let mut j = Json::object();
        j.set("populations", pops)
            .set("background", bg)
            .set("fused_saved_cycles", self.fused_saved_cycles);
        j
    }

    /// Registers `anatomy.*` counters under stable dotted names.
    pub fn fill_metrics(&self, reg: &mut MetricsRegistry) {
        for p in &self.populations {
            let base = format!("anatomy.{}", p.name);
            reg.counter(format!("{base}.count"), p.count)
                .counter(format!("{base}.latency_cycles"), p.total_latency);
            for c in &p.components {
                reg.counter(format!("{base}.{}.cycles", c.name), c.cycles);
            }
        }
        for b in &self.background {
            let base = format!("anatomy.background.{}", b.name);
            reg.counter(format!("{base}.ops"), b.ops)
                .counter(format!("{base}.cycles"), b.cycles.iter().sum::<u64>());
        }
        reg.counter("anatomy.fused_saved_cycles", self.fused_saved_cycles);
    }
}

/// One sampled request journey: the full anatomy of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Journey {
    /// Global issue sequence number.
    pub seq: u64,
    /// Issuing core.
    pub core: u32,
    /// Physical byte address.
    pub addr: u64,
    /// Whether the access was a write.
    pub is_write: bool,
    /// Issue cycle.
    pub at: u64,
    /// Measured latency in cycles.
    pub latency: u64,
    /// Whether the access hit in the DRAM cache.
    pub hit: bool,
    /// Component cycles, in [`Component::ALL`] order.
    pub comps: [u64; COMPONENT_COUNT],
}

/// Sampled request-journey log: every `every`-th access matching the
/// optional address filter is recorded, up to `cap` entries.
#[derive(Debug, Clone)]
pub struct JourneyLog {
    every: u64,
    addr_filter: Option<u64>,
    cap: usize,
    entries: Vec<Journey>,
    seen: u64,
    dropped: u64,
}

impl JourneyLog {
    /// Default journey capacity: enough for substantial runs at modest
    /// sampling rates, bounded so memory stays constant.
    pub const DEFAULT_CAP: usize = 4096;

    /// A log sampling every `every`-th access (`every` is clamped to at
    /// least 1).
    #[must_use]
    pub fn new(every: u64) -> Self {
        JourneyLog {
            every: every.max(1),
            addr_filter: None,
            cap: Self::DEFAULT_CAP,
            entries: Vec::new(),
            seen: 0,
            dropped: 0,
        }
    }

    /// Restricts recording to accesses touching `addr` exactly.
    #[must_use]
    pub fn with_addr(mut self, addr: u64) -> Self {
        self.addr_filter = Some(addr);
        self
    }

    /// The sampling interval.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Records a finished access if it falls on the sampling grid.
    pub fn maybe_record(&mut self, journey: Journey) {
        if let Some(addr) = self.addr_filter {
            if journey.addr != addr {
                return;
            }
        }
        let due = self.seen.is_multiple_of(self.every);
        self.seen += 1;
        if !due {
            return;
        }
        if self.entries.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.entries.push(journey);
    }

    /// Recorded journeys, in issue order.
    #[must_use]
    pub fn entries(&self) -> &[Journey] {
        &self.entries
    }

    /// Journeys that matched the grid after the log filled up.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Chrome-trace events for the recorded journeys: per journey, one
    /// `X` slice per nonzero component laid end to end from the issue
    /// cycle on the issuing core's journey track, linked by `s`/`f`
    /// flow events so the viewer draws the request's arc.
    #[must_use]
    pub fn chrome_trace_events(&self) -> Vec<Json> {
        let mut events = Vec::new();
        for j in &self.entries {
            let tid = 1000 + i64::from(j.core);
            let mut ts = j.at;
            let mut first = true;
            for (c, &cycles) in Component::ALL.iter().zip(&j.comps) {
                if cycles == 0 {
                    continue;
                }
                let mut e = Json::object();
                e.set("name", format!("{}:{}", j.seq, c.name()))
                    .set("cat", "journey")
                    .set("ph", "X")
                    .set("ts", ts)
                    .set("dur", cycles)
                    .set("pid", 1u64)
                    .set("tid", tid);
                let mut args = Json::object();
                args.set("addr", format!("{:#x}", j.addr))
                    .set("component", c.name())
                    .set("hit", j.hit);
                e.set("args", args);
                events.push(e);
                let mut flow = Json::object();
                flow.set("name", format!("journey-{}", j.seq))
                    .set("cat", "journey")
                    .set("ph", if first { "s" } else { "t" })
                    .set("id", j.seq)
                    .set("ts", ts)
                    .set("pid", 1u64)
                    .set("tid", tid);
                events.push(flow);
                first = false;
                ts += cycles;
            }
            if !first {
                let mut flow = Json::object();
                flow.set("name", format!("journey-{}", j.seq))
                    .set("cat", "journey")
                    .set("ph", "f")
                    .set("bp", "e")
                    .set("id", j.seq)
                    .set("ts", ts)
                    .set("pid", 1u64)
                    .set("tid", tid);
                events.push(flow);
            }
        }
        events
    }
}

/// One flight-recorder entry: the minimal postmortem facts of one
/// demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEntry {
    /// Global issue sequence number.
    pub seq: u64,
    /// Issuing core.
    pub core: u32,
    /// Physical byte address.
    pub addr: u64,
    /// Whether the access was a write.
    pub is_write: bool,
    /// Issue cycle.
    pub at: u64,
    /// Completion cycle.
    pub complete: u64,
    /// Whether the access hit.
    pub hit: bool,
}

/// Always-on bounded flight recorder: a ring of the last K demand
/// accesses, constant memory, dumped when a run wedges (watchdog) or
/// panics so crashes leave a postmortem artifact.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEntry>,
    next: usize,
    seen: u64,
}

impl FlightRecorder {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A recorder holding the last `capacity` accesses.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(capacity.max(1)),
            next: 0,
            seen: 0,
        }
    }

    /// Records one access, overwriting the oldest entry once full.
    #[inline]
    pub fn record(&mut self, entry: FlightEntry) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(entry);
        } else {
            self.buf[self.next] = entry;
        }
        self.next = (self.next + 1) % self.buf.capacity();
        self.seen += 1;
    }

    /// Total accesses seen (recorded plus overwritten).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Retained entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> Vec<FlightEntry> {
        if self.buf.len() < self.buf.capacity() {
            self.buf.clone()
        } else {
            let mut v = Vec::with_capacity(self.buf.len());
            v.extend_from_slice(&self.buf[self.next..]);
            v.extend_from_slice(&self.buf[..self.next]);
            v
        }
    }

    /// Renders the retained entries as a human-readable postmortem
    /// block.
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let entries = self.entries();
        let mut out = format!(
            "flight recorder: last {} of {} accesses\n",
            entries.len(),
            self.seen
        );
        for e in &entries {
            let _ = writeln!(
                out,
                "  seq {:>8} core {} {} {:#014x} issue {:>10} complete {:>10} {}",
                e.seq,
                e.core,
                if e.is_write { "write" } else { "read " },
                e.addr,
                e.at,
                e.complete,
                if e.hit { "hit" } else { "miss" },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_gate_records_nothing() {
        assert!(!active());
        add(Component::TagProbe, 100);
        note_dram(DramSegments {
            wait: 5,
            ..DramSegments::default()
        });
        // Without begin_thread the builder may hold stale state, but a
        // fresh access always starts from zero.
        begin_thread();
        let rec = finish_access(10);
        assert_eq!(rec.comps[Component::Other.index()], 10);
        end_thread();
    }

    #[test]
    fn components_sum_exactly_to_latency() {
        begin_thread();
        start_access();
        add(Component::Locator, 4);
        add(Component::TagProbe, 20);
        note_dram(DramSegments {
            wait: 10,
            deferred: 3,
            prep: 14,
            cas: 11,
            bus: 2,
            burst: 8,
        });
        charge_dram(Component::DataBurst);
        let rec = finish_access(100);
        end_thread();
        assert_eq!(rec.comps.iter().sum::<u64>(), 100);
        assert_eq!(rec.comps[Component::Locator.index()], 4);
        assert_eq!(rec.comps[Component::TagProbe.index()], 20);
        assert_eq!(rec.comps[Component::QueueWait.index()], 7 + 2);
        assert_eq!(rec.comps[Component::DeferredWait.index()], 3);
        assert_eq!(rec.comps[Component::BankConflict.index()], 14);
        assert_eq!(rec.comps[Component::DataBurst.index()], 19);
        // Residual 100 - 69 = 31 lands in Other.
        assert_eq!(rec.comps[Component::Other.index()], 31);
    }

    #[test]
    fn dram_note_is_consumed_once() {
        begin_thread();
        start_access();
        note_dram(DramSegments {
            wait: 1,
            cas: 2,
            burst: 3,
            ..DramSegments::default()
        });
        assert!(take_dram().is_some());
        assert!(take_dram().is_none());
        let _ = finish_access(0);
        end_thread();
    }

    #[test]
    fn background_tally_attributes_by_class() {
        begin_thread();
        record_background(
            TrafficClass::DataFill,
            DramSegments {
                wait: 4,
                deferred: 1,
                prep: 10,
                cas: 5,
                bus: 0,
                burst: 6,
            },
        );
        record_background_offchip(TrafficClass::Writeback, 77);
        let t = take_background().expect("dirty");
        assert!(take_background().is_none(), "tally drained");
        assert_eq!(t.ops[TrafficClass::DataFill.index()], 1);
        assert_eq!(t.class_cycles(TrafficClass::DataFill), 4 + 10 + 5 + 6);
        assert_eq!(t.class_cycles(TrafficClass::Writeback), 77);
        assert_eq!(t.total_cycles(), 25 + 77);
        end_thread();
    }

    #[test]
    fn stats_record_and_sums_hold() {
        let mut s = AnatomyStats::new();
        let rec = AccessAnatomy {
            comps: [10, 0, 20, 4, 16, 0, 0, 0],
            fused_saved: 9,
        };
        s.record(RequestClass::Read, true, 50, &rec);
        s.record(RequestClass::Read, true, 50, &rec);
        s.check_sums().expect("sums hold");
        assert_eq!(s.total_count(), 2);
        let sum = s.summarize();
        let rh = &sum.populations[0];
        assert_eq!(rh.name, "read_hit");
        assert_eq!(rh.count, 2);
        assert_eq!(rh.total_latency, 100);
        assert!((rh.mean_latency() - 50.0).abs() < 1e-9);
        assert_eq!(sum.fused_saved_cycles, 18);
        // The JSON export carries populations, background, and savings.
        let j = sum.to_json();
        assert!(j
            .get("populations")
            .and_then(|p| p.get("read_hit"))
            .and_then(|p| p.get("components"))
            .and_then(|c| c.get("tag_probe"))
            .is_some());
        assert!(j.get("fused_saved_cycles").is_some());
    }

    #[test]
    fn stats_round_trip_through_snapshot() {
        use bimodal_ckpt::Snapshot as _;
        let mut s = AnatomyStats::new();
        s.record(
            RequestClass::Write,
            false,
            40,
            &AccessAnatomy {
                comps: [5, 5, 10, 0, 0, 20, 0, 0],
                fused_saved: 0,
            },
        );
        let mut bg = BackgroundTally::default();
        bg.ops[TrafficClass::DataFill.index()] = 2;
        bg.cycles[TrafficClass::DataFill.index()][Component::DataBurst.index()] = 30;
        s.merge_background(&bg);
        let mut w = bimodal_ckpt::SnapshotWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = bimodal_ckpt::SnapshotReader::new(&bytes, "anatomy");
        let restored = AnatomyStats::load(&mut r).expect("round trip");
        assert!(r.is_exhausted());
        assert_eq!(restored, s);
        // Re-saving is byte-identical.
        let mut w2 = bimodal_ckpt::SnapshotWriter::new();
        restored.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn metrics_names_are_stable() {
        let mut s = AnatomyStats::new();
        s.record(
            RequestClass::Read,
            false,
            30,
            &AccessAnatomy {
                comps: [0, 0, 10, 0, 0, 20, 0, 0],
                fused_saved: 0,
            },
        );
        let mut reg = MetricsRegistry::new();
        s.summarize().fill_metrics(&mut reg);
        let names = reg.names();
        assert!(names.contains(&"anatomy.read_miss.count"));
        assert!(names.contains(&"anatomy.read_miss.tag_probe.cycles"));
        assert!(names.contains(&"anatomy.read_miss.offchip.cycles"));
        assert!(names.contains(&"anatomy.fused_saved_cycles"));
    }

    #[test]
    fn journey_log_samples_and_bounds() {
        let mut log = JourneyLog::new(2);
        for seq in 0..10u64 {
            log.maybe_record(Journey {
                seq,
                core: 0,
                addr: 0x1000 + seq * 64,
                is_write: false,
                at: seq * 100,
                latency: 50,
                hit: true,
                comps: [10, 0, 20, 0, 20, 0, 0, 0],
            });
        }
        assert_eq!(log.entries().len(), 5); // every 2nd of 10
        let events = log.chrome_trace_events();
        // Each journey: 3 nonzero components -> 3 X slices + 3 flow
        // steps + 1 flow finish.
        assert_eq!(events.len(), 5 * 7);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("f")));
    }

    #[test]
    fn journey_log_addr_filter() {
        let mut log = JourneyLog::new(1).with_addr(0x40);
        for addr in [0x0u64, 0x40, 0x80, 0x40] {
            log.maybe_record(Journey {
                seq: addr,
                core: 0,
                addr,
                is_write: false,
                at: 0,
                latency: 1,
                hit: false,
                comps: [1, 0, 0, 0, 0, 0, 0, 0],
            });
        }
        assert_eq!(log.entries().len(), 2);
        assert!(log.entries().iter().all(|j| j.addr == 0x40));
    }

    #[test]
    fn flight_recorder_keeps_last_k_in_order() {
        let mut fr = FlightRecorder::new(4);
        for seq in 0..10u64 {
            fr.record(FlightEntry {
                seq,
                core: 0,
                addr: seq,
                is_write: false,
                at: seq,
                complete: seq + 1,
                hit: true,
            });
        }
        assert_eq!(fr.seen(), 10);
        let seqs: Vec<u64> = fr.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let dump = fr.dump();
        assert!(dump.contains("last 4 of 10"));
        assert!(dump.contains("seq"));
    }
}
