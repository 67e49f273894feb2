//! One repetition ("rep") of a workload, run in a fresh worker process:
//! cold set-up, the engine runs, the per-run checks and, in the traced
//! rep, the per-layer timings. Everything is timed from outside, around
//! the simulator's public calls.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use bimodal_core::{AccessOutcome, DramCacheScheme};
use bimodal_dram::{DeferredOp, DramModule, Location, MainMemory, MemorySystem, Op, TrafficClass};
use bimodal_obs::{Json, Observer, ObserverConfig};
use bimodal_sim::{
    AccessContext, Engine, RunHook, RunReport, SchemeKind, SimError, Simulation, SystemConfig,
};
use bimodal_workloads::WorkloadMix;

use crate::catalog::{slug, Workload, SCHEMES};
use crate::stats::{fnv1a, median, LogHist};

/// One sampled `scheme.access` child span per this many accesses.
const SPAN_SAMPLE_EVERY: u64 = 4096;

/// What one worker process runs.
#[derive(Debug)]
pub struct RepSpec<'a> {
    /// The workload (its `accesses_per_core` may differ from the catalog).
    pub workload: &'a Workload,
    /// Workload seed.
    pub seed: u64,
    /// Record into an enabled observer.
    pub observe: bool,
    /// Time every access through a [`RunHook`] and add the per-layer
    /// timings.
    pub traced: bool,
    /// Where the traced rep writes its Chrome trace.
    pub trace_out: Option<&'a Path>,
}

/// Runs one rep and returns the JSON line the parent reads. A failed
/// scheme run (typed error, panic, failed check) is reported in its unit;
/// `Err` means the rep as a whole could not report.
///
/// # Errors
///
/// When the peak RSS cannot be read or the Chrome trace cannot be written.
pub fn run_rep(spec: &RepSpec<'_>) -> Result<Json, String> {
    let w = spec.workload;
    let system = w.system(spec.seed);
    let mix = w.mix();
    let mut spans = SpanLog::new();
    let apc = w.accesses_per_core;
    let mut units = Vec::new();
    let mut plan: Vec<(SchemeKind, bool)> = w.schemes.iter().map(|&k| (k, false)).collect();
    if spec.traced {
        // A `--trace 1` result line carries a measured value for every
        // per-layer name in `BENCHMARK.json`, `scheme.<s>.*` of all eight
        // schemes included. So the traced rep of a single-scheme workload
        // also runs the other schemes ("companions") on the same system,
        // mix and length; they feed only their own `scheme.<s>.*` names.
        plan.extend(
            SCHEMES
                .iter()
                .filter(|(k, _)| !w.schemes.contains(k))
                .map(|&(k, _)| (k, true)),
        );
    }
    let mut depths = Vec::new();
    for (tid, &(kind, companion)) in plan.iter().enumerate() {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_unit(&system, &mix, kind, apc, spec, &mut spans, tid + 1)
        }))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(p.as_ref()))));
        if let (Ok(u), false) = (&run, companion) {
            depths.push(u.report.bandwidth.deferred_queue.time_weighted_mean());
        }
        units.push(unit_json(kind, companion, apc, run));
    }
    let mut out = Json::object();
    if spec.traced {
        let t = Instant::now();
        let depth = median(&depths).round().max(1.0) as u64;
        out.set("dram", dram_micro(&system, depth));
        spans.push("dram.micro", t, Instant::now(), 0, Json::object());
    }
    out.set("observe", spec.observe)
        .set("peak_rss_mb", peak_rss_mb()?)
        .set("units", Json::Arr(units));
    if let Some(path) = spec.trace_out {
        spans.write(path)?;
    }
    Ok(out)
}

/// A finished scheme run.
struct UnitRun {
    report: RunReport,
    traces_s: f64,
    scheme_s: f64,
    memory_s: f64,
    run_s: f64,
    /// Traced runs only: the hook and the decode replay time.
    timing: Option<(TimingHook, f64)>,
}

fn run_unit(
    system: &SystemConfig,
    mix: &WorkloadMix,
    kind: SchemeKind,
    accesses_per_core: u64,
    spec: &RepSpec<'_>,
    spans: &mut SpanLog,
    tid: usize,
) -> Result<UnitRun, String> {
    if accesses_per_core == 0 {
        // The check `Simulation::run_mix` makes before it builds anything.
        return Err(SimError::InvalidRun("accesses_per_core must be positive".into()).to_string());
    }
    let sim = Simulation::new(system.clone(), kind);
    let t0 = Instant::now();
    let traces = sim.traces_for(mix);
    let t1 = Instant::now();
    let mut scheme = sim.build_scheme(accesses_per_core, mix.cores() as u64);
    let t2 = Instant::now();
    let mut mem = system.build_memory();
    let t3 = Instant::now();
    let args = || {
        let mut a = Json::object();
        a.set("scheme", kind.name());
        a
    };
    spans.push("setup.traces_for", t0, t1, tid, args());
    spans.push("setup.build_scheme", t1, t2, tid, args());
    spans.push("setup.build_memory", t2, t3, tid, args());

    let engine = Engine::new(sim.engine_options(accesses_per_core));
    let mut obs = if spec.observe {
        Observer::enabled(ObserverConfig::default().with_anatomy())
    } else {
        Observer::disabled()
    };
    let mut hook = spec.traced.then(|| TimingHook::new(mix.cores()));
    let start = Instant::now();
    let report = match hook.as_mut() {
        Some(h) => engine
            .try_run(scheme.as_mut(), &mut mem, traces, &mut obs, h)
            .map_err(|d| SimError::from(d).to_string())?,
        None => engine.run_observed(scheme.as_mut(), &mut mem, traces, &mut obs),
    };
    let end = Instant::now();
    spans.push("engine.run", start, end, tid, args());
    check(&report, spec.observe)?;

    let timing = hook.map(|h| {
        for &(seq, s, e, hit) in &h.sampled {
            let mut a = args();
            a.set("seq", seq).set("hit", hit);
            spans.push("scheme.access", s, e, tid, a);
        }
        let t = Instant::now();
        let decode_ns = replay_decode(&sim, mix, &h.per_core);
        spans.push("workloads.decode_replay", t, Instant::now(), tid, args());
        (h, decode_ns)
    });
    Ok(UnitRun {
        report,
        traces_s: (t1 - t0).as_secs_f64(),
        scheme_s: (t2 - t1).as_secs_f64(),
        memory_s: (t3 - t2).as_secs_f64(),
        run_s: (end - start).as_secs_f64(),
        timing,
    })
}

/// The per-run output checks.
fn check(r: &RunReport, observed: bool) -> Result<(), String> {
    let s = &r.scheme;
    if s.hits + s.misses != s.accesses {
        return Err(format!(
            "hits {} + misses {} != accesses {}",
            s.hits, s.misses, s.accesses
        ));
    }
    for (module, bw) in [
        ("cache", &r.bandwidth.cache),
        ("offchip", &r.bandwidth.offchip),
    ] {
        for (i, ch) in bw.channels.iter().enumerate() {
            let sum: u64 = ch.busy.cycles.iter().sum();
            if sum != ch.busy_cycles {
                return Err(format!(
                    "{module} channel {i}: class cycles sum to {sum}, busy cycles {}",
                    ch.busy_cycles
                ));
            }
        }
    }
    if observed {
        let a = r
            .anatomy
            .as_ref()
            .ok_or("observed run reported no anatomy")?;
        for p in &a.populations {
            let sum: u64 = p.components.iter().map(|c| c.cycles).sum();
            if sum != p.total_latency {
                return Err(format!(
                    "anatomy {}: components sum to {sum}, latency {}",
                    p.name, p.total_latency
                ));
            }
        }
    }
    Ok(())
}

/// FNV-1a of the report's JSON without the host-time sections (the span
/// profile and `obs.wall`), which differ between identical runs.
fn report_hash(r: &RunReport) -> String {
    let mut j = r.to_json();
    if let Json::Obj(entries) = &mut j {
        entries.retain(|(k, _)| k != "profile");
        for (k, v) in entries.iter_mut() {
            if let (true, Json::Obj(obs)) = (k == "obs", v) {
                obs.retain(|(k, _)| k != "wall");
            }
        }
    }
    format!("{:016x}", fnv1a(j.to_compact().as_bytes()))
}

fn unit_json(
    kind: SchemeKind,
    companion: bool,
    accesses_per_core: u64,
    run: Result<UnitRun, String>,
) -> Json {
    let mut o = Json::object();
    o.set("scheme", kind.name())
        .set("slug", slug(kind))
        .set("companion", companion)
        .set("accesses_per_core", accesses_per_core);
    let u = match run {
        Ok(u) => u,
        Err(e) => {
            o.set("ok", false).set("error", e);
            return o;
        }
    };
    let r = &u.report;
    let cache = r.cache_dram.totals;
    let off = r.offchip.totals;
    let q = r.bandwidth.deferred_queue;
    o.set("ok", true)
        .set("hash", report_hash(r))
        .set("accesses", r.dram_cache_accesses())
        .set("run_s", u.run_s)
        .set("traces_s", u.traces_s)
        .set("scheme_s", u.scheme_s)
        .set("memory_s", u.memory_s)
        .set("miss_frac", r.scheme.miss_rate())
        .set("avg_latency_cycles", r.avg_latency())
        .set("cache_ops", cache.reads + cache.writes)
        .set("cache_row_hits", cache.row_hits)
        .set("cache_row_accesses", cache.accesses())
        .set("offchip_bytes", off.bytes_read + off.bytes_written)
        .set("deferred_high_water", q.high_water)
        .set("deferred_mean_depth", q.time_weighted_mean());
    if let Some((h, decode_ns)) = u.timing {
        let mut t = Json::object();
        t.set("issued", h.per_core.iter().sum::<u64>())
            .set("access_ns", h.access_ns as f64)
            .set("decode_ns", decode_ns)
            .set("hit_ns_p50", h.hit.percentile(0.5))
            .set("hit_ns_p999", h.hit.percentile(0.999))
            .set("hit_n", h.hit.count())
            .set("miss_ns_p50", h.miss.percentile(0.5))
            .set("miss_ns_p999", h.miss.percentile(0.999))
            .set("miss_n", h.miss.count())
            .set(
                "access_ns_mean",
                (h.hit.mean() * h.hit.count() as f64 + h.miss.mean() * h.miss.count() as f64)
                    / (h.hit.count() + h.miss.count()).max(1) as f64,
            );
        o.set("timing", t);
    }
    o
}

/// Stamps the host clock around every demand access: `on_access` to
/// `on_outcome` brackets `DramCacheScheme::access`, DRAM calls included.
struct TimingHook {
    start: Instant,
    hit: LogHist,
    miss: LogHist,
    /// Host ns inside scheme accesses, warm-up included.
    access_ns: u128,
    /// Accesses issued per core, warm-up included.
    per_core: Vec<u64>,
    /// `(seq, start, end, hit)` of every [`SPAN_SAMPLE_EVERY`]-th access.
    sampled: Vec<(u64, Instant, Instant, bool)>,
}

impl TimingHook {
    fn new(cores: usize) -> Self {
        TimingHook {
            start: Instant::now(),
            hit: LogHist::default(),
            miss: LogHist::default(),
            access_ns: 0,
            per_core: vec![0; cores],
            sampled: Vec::new(),
        }
    }
}

impl RunHook for TimingHook {
    fn on_access(
        &mut self,
        _: AccessContext,
        _: &mut dyn DramCacheScheme,
        _: &mut MemorySystem,
        _: &mut Observer,
    ) {
        self.start = Instant::now();
    }

    fn on_outcome(&mut self, ctx: AccessContext, outcome: &AccessOutcome, _: &mut Observer) {
        let end = Instant::now();
        let ns = u64::try_from((end - self.start).as_nanos()).unwrap_or(u64::MAX);
        self.access_ns += u128::from(ns);
        self.per_core[ctx.core as usize] += 1;
        if ctx.warmed_up {
            if outcome.hit {
                self.hit.record(ns);
            } else {
                self.miss.record(ns);
            }
        }
        if ctx.seq.is_multiple_of(SPAN_SAMPLE_EVERY) {
            self.sampled.push((ctx.seq, self.start, end, outcome.hit));
        }
    }
}

/// Host ns to decode the same per-core access streams the run consumed.
fn replay_decode(sim: &Simulation, mix: &WorkloadMix, per_core: &[u64]) -> f64 {
    let mut traces = sim.traces_for(mix);
    let t = Instant::now();
    for (trace, &n) in traces.iter_mut().zip(per_core) {
        for _ in 0..n {
            black_box(trace.next());
        }
    }
    t.elapsed().as_nanos() as f64
}

const MICRO_OPS: u64 = 200_000;
const MICRO_BATCHES: usize = 5;

/// Median over batches of the host ns per call of `op(i)`.
fn ns_per_op(mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0;
    let batches: Vec<f64> = (0..MICRO_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..MICRO_OPS {
                op(black_box(i));
                i += 1;
            }
            t.elapsed().as_nanos() as f64 / MICRO_OPS as f64
        })
        .collect();
    median(&batches)
}

/// Timed DRAM-layer calls on the workload's own DRAM configurations.
/// `depth` is the deferred-queue depth to hold during the defer/drain
/// timing (the run's measured mean).
fn dram_micro(system: &SystemConfig, depth: u64) -> Json {
    let column = |rows: u64| {
        let mut m = DramModule::new(system.stacked.clone());
        let mut at = 0;
        ns_per_op(|i| {
            at = m
                .column_access(Location::new(0, 0, 0, 1 + i % rows), 64, Op::Read, at)
                .done
        })
    };
    let mut main = MainMemory::new(system.offchip.clone());
    let (mut at, mut x) = (0, 0x9e37_79b9_7f4a_7c15u64);
    let offchip = ns_per_op(|_| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        at = main.read((x >> 34) & !63, 64, at).done;
    });

    let (channels, banks) = (
        u64::from(system.stacked.channels),
        u64::from(system.stacked.banks_per_rank),
    );
    let op = |i: u64| DeferredOp::CacheWrite {
        loc: Location::new(
            (i % channels) as u32,
            0,
            (i / channels % banks) as u32,
            i / (channels * banks) % 1024,
        ),
        bytes: 64,
        class: TrafficClass::DataFill,
    };
    // Op `i` is due at `i * STEP`: each drain pops exactly one, and the
    // defer before it keeps `depth` ops queued.
    const STEP: u64 = 256;
    let mut mem = system.build_memory();
    for i in 0..depth {
        mem.defer(i * STEP, op(i));
    }
    let deferred = ns_per_op(|i| {
        mem.defer((i + depth) * STEP, op(i + depth));
        mem.drain_deferred(i * STEP);
    });

    let mut o = Json::object();
    o.set("column_ns_row_hit", column(1))
        .set("column_ns_row_miss", column(2))
        .set("offchip_read_ns", offchip)
        .set("deferred_ns_per_op", deferred);
    o
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Spans kept in memory and written at exit as Chrome trace JSON.
struct SpanLog {
    origin: Instant,
    events: Vec<Json>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Records a complete span on lane `tid`; lanes nest by time, so a
    /// `scheme.access` span sits inside its `engine.run` parent.
    fn push(&mut self, name: &str, start: Instant, end: Instant, tid: usize, args: Json) {
        let us = |t: Instant| (t - self.origin).as_nanos() as f64 / 1_000.0;
        let mut e = Json::object();
        e.set("name", name)
            .set("cat", name.split('.').next().unwrap_or(name))
            .set("ph", "X")
            .set("ts", us(start))
            .set("dur", us(end) - us(start))
            .set("pid", 1u64)
            .set("tid", tid)
            .set("args", args);
        self.events.push(e);
    }

    fn write(&mut self, path: &Path) -> Result<(), String> {
        let mut j = Json::object();
        j.set("traceEvents", Json::Arr(std::mem::take(&mut self.events)))
            .set("displayTimeUnit", "ns");
        std::fs::write(path, j.to_compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
