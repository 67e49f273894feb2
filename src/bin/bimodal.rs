//! `bimodal` — command-line front end for the Bi-Modal DRAM cache
//! simulator.
//!
//! ```text
//! bimodal list
//! bimodal run --mix Q3 --scheme bimodal --accesses 30000 --cache-mb 8
//! bimodal run --mix Q3 --scheme bimodal --json out.json --trace-out trace.json
//! bimodal compare --mix Q3 --json compare.json
//! bimodal antt --mix E2 --scheme bimodal
//! bimodal sweep --mix Q3
//! bimodal record --program mcf --out mcf.bmt --n 100000
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use bimodal::exec::{FleetProgress, Manifest, RetryPolicy, UnitResult};
use bimodal::faults::{CampaignConfig, CampaignReport, FaultRates};
use bimodal::obs::{
    Heartbeat, Json, MetricValue, MetricsRegistry, ObsSummary, Observer, ObserverConfig,
    ProgressSink, SpanProfile,
};
use bimodal::prelude::*;
use bimodal::selfbench::GateOutcome;
use bimodal::sim::{sweep, CheckpointSpec, PrefetchMode, WatchdogConfig};
use bimodal::workloads::{spec_names, spec_profile, write_trace};

fn usage() -> &'static str {
    "usage: bimodal <command> [--flag value | --flag=value]...\n\
     \n\
     commands:\n\
     \x20 list                         mixes, schemes and programs\n\
     \x20 run     --mix <M> --scheme <S> [--accesses N] [--cache-mb C] [--seed K]\n\
     \x20         [--backend B]\n\
     \x20         [--warmup N] [--mlp N] [--prefetch N[:bypass]] [--profile]\n\
     \x20         [--anatomy] [--journeys N] [--exact-tails[=N]]\n\
     \x20         [--json FILE] [--trace-out FILE [--stream] [--sample-every N]]\n\
     \x20         [--epoch CYCLES]\n\
     \x20         [--heartbeat SECS] [--metrics-out FILE] [--metrics-format json|prom]\n\
     \x20         [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]\n\
     \x20 compare --mix <M> [--accesses N] [--cache-mb C] [--seed K] [--jobs N]\n\
     \x20         [--backend B]\n\
     \x20         [--warmup N] [--mlp N] [--prefetch N[:bypass]] [--json FILE]\n\
     \x20         [--heartbeat SECS] [--metrics-out FILE] [--metrics-format json|prom]\n\
     \x20         [--manifest DIR] [--checkpoint FILE [--checkpoint-every N]]\n\
     \x20         [--resume FILE]\n\
     \x20 antt    --mix <M> --scheme <S> [--accesses N] [--cache-mb C] [--seed K]\n\
     \x20         [--backend B]\n\
     \x20         [--warmup N] [--mlp N] [--prefetch N[:bypass]] [--jobs N] [--json FILE]\n\
     \x20         [--heartbeat SECS]\n\
     \x20 sweep   --mix <M> [--backend B] [--accesses N] [--cache-mb C] [--seed K] [--jobs N]\n\
     \x20         [--json FILE] [--heartbeat SECS] [--manifest DIR]\n\
     \x20 record  --program <P> --out <FILE> [--n N] [--seed K]\n\
     \x20 inject  --mix <M> [--backend B] [--scheme <S|all>] [--accesses N] [--cache-mb C]\n\
     \x20         [--seed K] [--seeds N] [--warmup N] [--mlp N]\n\
     \x20         [--metadata-rate P] [--multi-bit P] [--locator-rate P]\n\
     \x20         [--predictor-rate P] [--dram-rate P] [--ecc] [--antt]\n\
     \x20         [--shadow-every N] [--watchdog CYCLES | --no-watchdog]\n\
     \x20         [--jobs N] [--json FILE] [--trace-out FILE [--sample-every N]]\n\
     \x20         [--epoch CYCLES] [--exact-tails[=N]] [--heartbeat SECS]\n\
     \x20         [--metrics-out FILE] [--metrics-format json|prom]\n\
     \x20         [--manifest DIR] [--retries N] [--retry-backoff-ms MS]\n\
     \x20 bench   [--quick] [--backend B] [--jobs N] [--min-speedup X] [--out FILE]\n\
     \x20         [--history FILE] [--check-history] [--window N] [--max-regress PCT]\n\
     \x20 bandwidth --mix <M> [--backend B] [--scheme <S|all>] [--accesses N] [--cache-mb C]\n\
     \x20         [--seed K] [--warmup N] [--mlp N] [--prefetch N[:bypass]]\n\
     \x20         [--jobs N] [--json FILE]\n\
     \x20 latency --mix <M> [--backend B] [--scheme <S|all>] [--accesses N] [--cache-mb C]\n\
     \x20         [--seed K] [--warmup N] [--mlp N] [--prefetch N[:bypass]]\n\
     \x20         [--jobs N] [--json FILE]\n\
     \x20         per-component cycle anatomy table (where do the cycles go)\n\
     \x20 explain --mix <M> --scheme <S> --addr X [--backend B] [--accesses N]\n\
     \x20         [--cache-mb C] [--seed K] [--warmup N] [--mlp N] [--prefetch N[:bypass]]\n\
     \x20         replay and print every journey touching address X\n\
     \x20 diff    <a.json> <b.json> [--threshold PCT] [--anatomy-threshold CY] [--exact]\n\
     \x20         exits 1 on drift/difference, 2 on unreadable or malformed input\n\
     \n\
     memory substrates:\n\
     \x20 --backend B       memory-substrate backend: paper2014 (default;\n\
     \x20                   the paper's stacked DRAM over DDR3), hbm2, ddr5,\n\
     \x20                   pcm-far (slow 3DXPoint-like far tier), tdram\n\
     \x20                   (tag+data in one burst); recorded in reports,\n\
     \x20                   checkpoint fingerprints, and bench history keys\n\
     \n\
     parallelism:\n\
     \x20 --jobs N          worker threads for fanned runs (default: all cores;\n\
     \x20                   results are bit-identical for any N)\n\
     \x20 --seeds N         inject: fan the campaign over N consecutive seeds\n\
     \n\
     crash safety:\n\
     \x20 --checkpoint FILE    periodically snapshot the full run state to FILE\n\
     \x20                      (atomic, previous snapshot kept as FILE.prev;\n\
     \x20                      compare appends .<scheme> per unit)\n\
     \x20 --checkpoint-every N snapshot cadence in issued accesses (default 100000)\n\
     \x20 --resume FILE        continue from a snapshot; the final report is\n\
     \x20                      byte-identical to an uninterrupted run\n\
     \x20 --manifest DIR       journal finished campaign units in DIR and skip\n\
     \x20                      them when the same command is re-invoked\n\
     \x20 --retries N          inject fan-out: attempts per unit before it is\n\
     \x20                      reported failed (default 3)\n\
     \x20 --retry-backoff-ms M base backoff between attempts (default 100)\n\
     \x20 --exact              diff: require byte-identical reports (ignoring\n\
     \x20                      wall-clock and span-profile sections)\n\
     \n\
     observability:\n\
     \x20 --json FILE       write the full machine-readable report (counters,\n\
     \x20                   latency percentiles, epoch time series, wall clock)\n\
     \x20 --trace-out FILE  write a sampled event trace in Chrome trace-event\n\
     \x20                   format (load in chrome://tracing or Perfetto)\n\
     \x20 --stream          with --trace-out: write events to disk as they\n\
     \x20                   happen (constant memory; for multi-million-access\n\
     \x20                   runs the bounded in-memory ring would truncate)\n\
     \x20 --sample-every N  record every N-th access in the event trace\n\
     \x20                   (default 1; raise for long traced runs)\n\
     \x20 --epoch CYCLES    epoch length for the time series (default 100000;\n\
     \x20                   at least 1)\n\
     \x20 --exact-tails[=N] reservoir-sample latencies for exact tail\n\
     \x20                   percentiles (default capacity 4096)\n\
     \x20 --heartbeat SECS  periodic progress line on stderr; with --jobs N\n\
     \x20                   on fanned commands, one aggregated fleet line\n\
     \x20 --profile         run: collect the hot-path span profile\n\
     \x20                   (per-phase call counts, host ns, sim cycles)\n\
     \x20 --anatomy         run: per-access latency anatomy (cycle accounting\n\
     \x20                   by component, split by hit/miss and class; adds\n\
     \x20                   an `anatomy` section to --json reports)\n\
     \x20 --journeys N      run: record every N-th access's full journey\n\
     \x20                   (implies --anatomy; with --trace-out the journeys\n\
     \x20                   ride along as Chrome flow events)\n\
     \x20 --anatomy-threshold CY  diff: gate per-component mean cycles with an\n\
     \x20                   absolute threshold of CY cycles\n\
     \x20 --metrics-out F   write the unified metrics snapshot to F\n\
     \x20                   (`-` writes to stderr)\n\
     \x20 --metrics-format  json (default) or prom (Prometheus text)\n\
     \n\
     bench trendline:\n\
     \x20 --history FILE    append this run's per-scheme accesses/sec to a\n\
     \x20                   JSONL history file\n\
     \x20 --check-history   compare the newest history point against the\n\
     \x20                   trailing median (no benchmark run); exits\n\
     \x20                   nonzero on a regression beyond --max-regress\n\
     \x20 --window N        trailing points for the median (default 5)\n\
     \x20 --max-regress PCT regression budget in percent (default 25)\n\
     \n\
     mixes: Q1..Q24 (4-core), E1..E16 (8-core), S1..S8 (16-core)\n\
     schemes: bimodal, bimodal-only, waylocator-only, fixed512, alloy,\n\
     \x20        lohhill, atcache, footprint, bimodal-mp\n\
     \x20        (inject also accepts `all`: the five-scheme comparison set)"
}

/// Flags that stand alone (`--ecc`); an explicit value still works via
/// `--flag=value`.
const BARE_FLAGS: &[&str] = &[
    "ecc",
    "antt",
    "no-watchdog",
    "exact-tails",
    "quick",
    "stream",
    "profile",
    "anatomy",
    "check-history",
    "exact",
];

/// Parses `--flag value` / `--flag=value` pairs, rejecting flags not in
/// `allowed`, duplicates, and flags without a value. Flags listed in
/// [`BARE_FLAGS`] need no value and default to `"true"`.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let body = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
        let (key, value) = if let Some((k, v)) = body.split_once('=') {
            (k.to_owned(), v.to_owned())
        } else if BARE_FLAGS.contains(&body) {
            (body.to_owned(), "true".to_owned())
        } else {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--{body} needs a value"))?;
            i += 1;
            (body.to_owned(), v.clone())
        };
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown flag --{key} for this command (allowed: {})",
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        if flags.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate flag --{key}"));
        }
        i += 1;
    }
    Ok(flags)
}

fn num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key} must be a number")),
        None => Ok(default),
    }
}

/// A bare flag: absent = false, present = true, `--flag=false` works.
fn flag_bool(flags: &HashMap<String, String>, key: &str) -> Result<bool, String> {
    match flags.get(key).map(String::as_str) {
        None => Ok(false),
        Some("true" | "") => Ok(true),
        Some("false") => Ok(false),
        Some(other) => Err(format!("--{key} takes no value (got {other:?})")),
    }
}

fn parse_scheme(name: &str) -> Result<SchemeKind, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "bimodal" => SchemeKind::BiModal,
        "bimodal-only" => SchemeKind::BiModalOnly,
        "waylocator-only" | "wl-only" => SchemeKind::WayLocatorOnly,
        "fixed512" => SchemeKind::Fixed512,
        "bimodal-mp" => SchemeKind::BiModalMissPredict,
        "alloy" | "alloycache" => SchemeKind::Alloy,
        "lohhill" | "loh-hill" => SchemeKind::LohHill,
        "atcache" => SchemeKind::AtCache,
        "footprint" | "fpc" => SchemeKind::Footprint,
        other => return Err(format!("unknown scheme {other:?}")),
    })
}

fn parse_mix(name: &str) -> Result<(WorkloadMix, SystemConfig), String> {
    let mix = WorkloadMix::quad(name)
        .or_else(|| WorkloadMix::eight(name))
        .or_else(|| WorkloadMix::sixteen(name))
        .ok_or_else(|| format!("unknown mix {name:?} (Q1..Q24, E1..E16, S1..S8)"))?;
    let system = match mix.cores() {
        4 => SystemConfig::quad_core().with_cache_mb(8),
        8 => SystemConfig::eight_core().with_cache_mb(16),
        _ => SystemConfig::sixteen_core().with_cache_mb(32),
    };
    Ok((mix, system))
}

fn configured_system(
    base: SystemConfig,
    flags: &HashMap<String, String>,
) -> Result<SystemConfig, String> {
    let mut system = base;
    if let Some(backend) = flags.get("backend") {
        // Applied first: the backend rebuilds both DRAM configurations,
        // so later overrides (row bytes via presets, seed, ...) survive.
        system = system.with_backend(BackendKind::parse(backend)?);
    }
    if let Some(mb) = flags.get("cache-mb") {
        let mb: u64 = mb
            .parse()
            .map_err(|_| "--cache-mb must be a number".to_owned())?;
        // Cache geometries index sets with address bits.
        if !mb.is_power_of_two() {
            return Err(format!("--cache-mb must be a power of two (got {mb})"));
        }
        system = system.with_cache_mb(mb);
    }
    if let Some(seed) = flags.get("seed") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| "--seed must be a number".to_owned())?;
        system = system.with_seed(seed);
    }
    if let Some(warmup) = flags.get("warmup") {
        let warmup: u64 = warmup
            .parse()
            .map_err(|_| "--warmup must be a number".to_owned())?;
        system = system.with_warmup(warmup);
    }
    if let Some(mlp) = flags.get("mlp") {
        let mlp: u32 = mlp
            .parse()
            .map_err(|_| "--mlp must be a number".to_owned())?;
        if mlp == 0 {
            return Err("--mlp must be at least 1".to_owned());
        }
        if mlp > MAX_MLP {
            return Err(format!("--mlp must be at most {MAX_MLP} (got {mlp})"));
        }
        system = system.with_mlp(mlp);
    }
    Ok(system)
}

/// Largest `--mlp`: well above any MSHR count the core model stands for,
/// and small enough that the engine's per-core in-flight lists, sized
/// up front, stay small.
const MAX_MLP: u32 = 64;

/// `--prefetch N` (next-N-lines) or `--prefetch N:bypass` (bypass fills
/// on prefetch misses, Table VI).
fn parse_prefetch(flags: &HashMap<String, String>) -> Result<Option<(u32, PrefetchMode)>, String> {
    let Some(v) = flags.get("prefetch") else {
        return Ok(None);
    };
    let (n, mode) = v.split_once(':').unwrap_or((v.as_str(), "normal"));
    let n: u32 = n
        .parse()
        .map_err(|_| "--prefetch must be N or N:bypass".to_owned())?;
    if n == 0 {
        return Err("--prefetch depth must be at least 1".to_owned());
    }
    let mode = match mode.to_ascii_lowercase().as_str() {
        "normal" => PrefetchMode::Normal,
        "bypass" => PrefetchMode::Bypass,
        other => return Err(format!("unknown prefetch mode {other:?} (normal, bypass)")),
    };
    Ok(Some((n, mode)))
}

/// `--jobs N` (worker threads for fanned runs); absent or `auto` means
/// the host's available parallelism.
fn parse_jobs(flags: &HashMap<String, String>) -> Result<usize, String> {
    match flags.get("jobs").map(String::as_str) {
        None | Some("auto") => Ok(bimodal::exec::available_jobs()),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err("--jobs must be a positive number or 'auto'".to_owned()),
        },
    }
}

fn build_simulation(
    system: SystemConfig,
    kind: SchemeKind,
    flags: &HashMap<String, String>,
) -> Result<Simulation, String> {
    let mut sim = Simulation::new(system, kind);
    if let Some((n, mode)) = parse_prefetch(flags)? {
        sim = sim.with_prefetch(n, mode);
    }
    Ok(sim)
}

/// Builds the observer requested by `--json` / `--trace-out` /
/// `--heartbeat` / `--epoch`; disabled when none of them is present.
fn build_observer(flags: &HashMap<String, String>) -> Result<Observer, String> {
    let observing = [
        "json",
        "trace-out",
        "heartbeat",
        "exact-tails",
        "sample-every",
        "profile",
        "metrics-out",
        "anatomy",
        "journeys",
    ]
    .iter()
    .any(|k| flags.contains_key(*k));
    let epoch: u64 = num(flags, "epoch", 100_000)?;
    if epoch == 0 {
        return Err("--epoch must be at least 1 cycle".to_owned());
    }
    if !observing {
        return Ok(Observer::disabled());
    }
    let mut cfg = ObserverConfig::default().with_epoch_cycles(epoch);
    if flags.contains_key("trace-out") {
        let sample_every: u32 = num(flags, "sample-every", 1)?;
        if sample_every == 0 {
            return Err("--sample-every must be at least 1".to_owned());
        }
        cfg = cfg.with_trace(262_144, sample_every);
    } else if flags.contains_key("sample-every") {
        return Err("--sample-every only applies with --trace-out".to_owned());
    }
    if let Some(cap) = flags.get("exact-tails") {
        let cap: usize = match cap.as_str() {
            "true" | "" => 4_096,
            n => n
                .parse()
                .map_err(|_| "--exact-tails takes an optional sample capacity".to_owned())?,
        };
        cfg = cfg.with_exact_tails(cap);
    }
    if let Some(interval) = parse_heartbeat(flags)? {
        cfg = cfg.with_heartbeat(interval);
    }
    if flag_bool(flags, "profile")? {
        cfg = cfg.with_spans();
    }
    if flag_bool(flags, "anatomy")? {
        cfg = cfg.with_anatomy();
    }
    if let Some(every) = flags.get("journeys") {
        let every: u64 = every
            .parse()
            .map_err(|_| "--journeys takes a sampling interval".to_owned())?;
        if every == 0 {
            return Err("--journeys must be at least 1".to_owned());
        }
        cfg = cfg.with_journeys(every);
    }
    Ok(Observer::enabled(cfg))
}

/// `--checkpoint FILE [--checkpoint-every N]` and `--resume FILE` as a
/// snapshot spec plus a resume path. `--checkpoint-every` without
/// `--checkpoint` is a hard error (a cadence with nowhere to write).
fn parse_crash_safety(
    flags: &HashMap<String, String>,
) -> Result<(Option<CheckpointSpec>, Option<std::path::PathBuf>), String> {
    let every: u64 = num(flags, "checkpoint-every", 100_000)?;
    let ckpt = match flags.get("checkpoint") {
        Some(path) => Some(
            CheckpointSpec::new(std::path::PathBuf::from(path), every)
                .map_err(|e| e.to_string())?,
        ),
        None if flags.contains_key("checkpoint-every") => {
            return Err("--checkpoint-every needs --checkpoint FILE".to_owned());
        }
        None => None,
    };
    Ok((ckpt, flags.get("resume").map(std::path::PathBuf::from)))
}

/// Rejects observer features whose buffers are not part of a snapshot,
/// so checkpoint/resume fails with a CLI-level message instead of a
/// mid-run engine error.
fn reject_unsnapshottable(flags: &HashMap<String, String>) -> Result<(), String> {
    for incompatible in ["trace-out", "profile", "stream", "journeys"] {
        if flags.contains_key(incompatible) {
            return Err(format!(
                "--{incompatible} cannot be combined with --checkpoint/--resume \
                 (event-trace, span and journey buffers are not snapshotted; \
                 --anatomy alone checkpoints fine)"
            ));
        }
    }
    Ok(())
}

/// `--heartbeat SECS` as a `Duration`, if the flag is present. Negative,
/// non-finite and out-of-range values are rejected; 0 is valid.
fn parse_heartbeat(flags: &HashMap<String, String>) -> Result<Option<Duration>, String> {
    let Some(secs) = flags.get("heartbeat") else {
        return Ok(None);
    };
    secs.parse()
        .ok()
        .and_then(|s| Duration::try_from_secs_f64(s).ok())
        .map(Some)
        .ok_or_else(|| {
            format!("--heartbeat must be a non-negative number of seconds (got {secs:?})")
        })
}

/// Metric-name prefix for a scheme (`BiModal+MP` → `bimodal_mp`).
fn metric_slug(name: &str) -> String {
    let mut slug = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
        } else if !slug.ends_with('_') && !slug.is_empty() {
            slug.push('_');
        }
    }
    slug.trim_end_matches('_').to_owned()
}

/// Copies every metric of `src` into `dst` under `<prefix>.`.
fn merge_metrics_prefixed(dst: &mut MetricsRegistry, prefix: &str, src: &MetricsRegistry) {
    for name in src.names() {
        let full = format!("{prefix}.{name}");
        match src.get(name).expect("name came from the registry") {
            MetricValue::Counter(c) => dst.counter(full, *c),
            MetricValue::Gauge(g) => dst.gauge(full, *g),
            MetricValue::Histogram(h) => dst.histogram(full, *h),
        };
    }
}

/// Writes the metrics snapshot per `--metrics-out` / `--metrics-format`;
/// `--metrics-out -` writes the exposition to stderr.
fn write_metrics(flags: &HashMap<String, String>, reg: &MetricsRegistry) -> Result<(), String> {
    let Some(path) = flags.get("metrics-out") else {
        if flags.contains_key("metrics-format") {
            return Err("--metrics-format only applies with --metrics-out".to_owned());
        }
        return Ok(());
    };
    let format = flags.get("metrics-format").map_or("json", String::as_str);
    let body = match format {
        "json" => format!("{}\n", reg.to_json().to_pretty()),
        "prom" | "prometheus" => reg.to_prometheus(),
        other => return Err(format!("unknown --metrics-format {other:?} (json, prom)")),
    };
    if path == "-" {
        eprint!("{body}");
    } else {
        bimodal::ckpt::atomic_write_str(std::path::Path::new(path), &body)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote metrics ({format}) to {path}");
    }
    Ok(())
}

/// Prints the hot-path span profile table (silent when profiling was
/// off, so unprofiled output stays unchanged).
fn print_profile(p: &SpanProfile) {
    if !p.enabled {
        return;
    }
    println!("-- hot-path span profile --");
    println!(
        "{:16} {:>10} {:>12} {:>12} {:>9}",
        "span", "calls", "host us", "sim cycles", "ns/call"
    );
    for (id, s) in p.iter() {
        let per_call = if s.calls > 0 {
            s.host_ns as f64 / s.calls as f64
        } else {
            0.0
        };
        println!(
            "{:16} {:>10} {:>12.1} {:>12} {:>9.0}",
            id.name(),
            s.calls,
            s.host_ns as f64 / 1_000.0,
            s.sim_cycles,
            per_call,
        );
    }
}

/// All CLI-written reports go through one atomic temp-file+rename write,
/// so a crash mid-write never leaves a torn half-report behind.
fn write_json(path: &str, json: &Json) -> Result<(), String> {
    bimodal::ckpt::atomic_write_str(
        std::path::Path::new(path),
        &format!("{}\n", json.to_pretty()),
    )
    .map_err(|e| format!("writing {path}: {e}"))
}

/// Scopes a manifest unit label by substrate, so a journal written under
/// one backend is never replayed to satisfy a different one. The default
/// backend keeps the pre-backend labels, leaving existing journals valid.
fn backend_scoped(label: &str, backend: BackendKind) -> String {
    if backend == BackendKind::default() {
        label.to_owned()
    } else {
        format!("{label}@{}", backend.name())
    }
}

/// FNV-1a digest of a report's compact JSON, used as the manifest's
/// result fingerprint.
fn report_digest(j: &Json) -> String {
    format!("{:016x}", bimodal::ckpt::fnv1a(j.to_compact().as_bytes()))
}

fn print_report(label: &str, r: &bimodal::sim::RunReport) {
    println!("== {label} ==");
    println!("accesses             : {}", r.dram_cache_accesses());
    println!(
        "hit rate             : {:6.2} %",
        r.scheme.hit_rate() * 100.0
    );
    println!(
        "locator hit rate     : {:6.2} %",
        r.scheme.locator_hit_rate() * 100.0
    );
    println!("avg access latency   : {:6.1} cycles", r.avg_latency());
    println!(
        "small-block accesses : {:6.2} %",
        r.scheme.small_block_fraction() * 100.0
    );
    println!(
        "off-chip traffic     : {:6.2} MB",
        r.offchip_bytes() as f64 / 1048576.0
    );
    println!(
        "wasted fetch bytes   : {:6.2} %",
        r.scheme.wasted_fetch_fraction() * 100.0
    );
}

fn print_obs(obs: &ObsSummary) {
    if obs.is_empty() {
        return;
    }
    println!("-- latency percentiles (cycles) --");
    for (name, s) in &obs.latency {
        if s.count == 0 {
            continue;
        }
        println!(
            "{name:9}: n={:<8} p50={:<6} p95={:<6} p99={:<6} max={}",
            s.count, s.p50, s.p95, s.p99, s.max
        );
    }
    if !obs.exact_tails.is_empty() {
        println!("-- exact tails (reservoir) --");
        for (name, t) in &obs.exact_tails {
            if t.count == 0 {
                continue;
            }
            println!(
                "{name:9}: n={:<8} p99={:<6} p99.9={:<6} max={}{}",
                t.count,
                t.p99,
                t.p999,
                t.max,
                if t.exact { "  (exact)" } else { "  (sampled)" }
            );
        }
    }
    if let Some(w) = &obs.wall {
        let phases = w
            .phases
            .iter()
            .map(|(n, secs)| format!("{n} {secs:.3}s"))
            .collect::<Vec<_>>()
            .join(", ");
        println!("-- wall clock --");
        println!("phases    : {phases}");
        println!(
            "throughput: {:.0} simulated cycles/s over {} cycles",
            w.cycles_per_second, w.sim_cycles
        );
    }
    println!("epochs recorded: {}", obs.epochs.len());
}

fn cmd_list() {
    println!("4-core mixes : Q1..Q24");
    println!("8-core mixes : E1..E16");
    println!("16-core mixes: S1..S8");
    println!();
    println!("schemes: bimodal bimodal-only waylocator-only fixed512 bimodal-mp");
    println!("         alloy lohhill atcache footprint");
    println!();
    println!("programs:");
    for name in spec_names() {
        let p = spec_profile(name).expect("listed names resolve");
        println!(
            "  {name:12} {:5} MB footprint, mean gap {:4} cycles{}",
            p.footprint_bytes >> 20,
            p.mean_gap,
            if p.is_memory_intensive() {
                "  *memory-intensive*"
            } else {
                ""
            }
        );
    }
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("run needs --mix")?;
    let scheme = parse_scheme(flags.get("scheme").ok_or("run needs --scheme")?)?;
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 30_000)?;
    let stream = flag_bool(flags, "stream")?;
    if stream && !flags.contains_key("trace-out") {
        return Err("--stream requires --trace-out".to_owned());
    }
    let mut obs = build_observer(flags)?;
    if stream {
        let path = flags.get("trace-out").expect("checked above");
        obs.trace
            .as_mut()
            .expect("tracing was enabled")
            .stream_to(std::path::Path::new(path))
            .map_err(|e| format!("opening trace stream {path}: {e}"))?;
    }
    let (ckpt, resume) = parse_crash_safety(flags)?;
    let report = if ckpt.is_some() || resume.is_some() {
        reject_unsnapshottable(flags)?;
        build_simulation(system, scheme, flags)?
            .run_mix_checkpointed(&mix, n, &mut obs, ckpt.as_ref(), resume.as_deref())
            .map_err(|e| e.to_string())?
    } else {
        build_simulation(system, scheme, flags)?
            .run_mix_observed(&mix, n, &mut obs)
            .map_err(|e| e.to_string())?
    };
    print_report(&format!("{} on {}", scheme.name(), mix.name()), &report);
    print_obs(&report.obs);
    print_profile(&report.profile);
    if let Some(a) = &report.anatomy {
        print_anatomy(a);
    }
    if let Some(jl) = &obs.journeys {
        println!(
            "recorded {} journey(s) (every {}-th access, {} dropped at capacity)",
            jl.entries().len(),
            jl.every(),
            jl.dropped()
        );
    }
    if let Some(path) = flags.get("trace-out") {
        // The per-channel bandwidth counter samples ride along as
        // Chrome "C" events so Perfetto draws stacked utilization lanes;
        // sampled journeys join them as flow events.
        let mut counters = obs.bandwidth.counter_events();
        if let Some(jl) = &obs.journeys {
            counters.extend(jl.chrome_trace_events());
        }
        let ring = obs.trace.as_mut().expect("tracing was enabled");
        if stream {
            let written = ring
                .finish_stream(&counters)
                .map_err(|e| format!("finishing trace stream {path}: {e}"))?;
            println!("streamed event trace ({written} events) to {path}");
        } else {
            write_json(path, &ring.chrome_trace_with(&counters))?;
            println!("wrote event trace ({} events) to {path}", ring.len());
        }
    }
    if let Some(path) = flags.get("json") {
        let mut j = report.to_json();
        j.set("mix", mix.name());
        write_json(path, &j)?;
        println!("wrote report JSON to {path}");
    }
    let mut reg = MetricsRegistry::new();
    report.fill_metrics(&mut reg);
    write_metrics(flags, &reg)?;
    Ok(())
}

/// Opens `--manifest DIR` as a campaign journal, if requested.
fn parse_manifest(
    flags: &HashMap<String, String>,
) -> Result<Option<(std::path::PathBuf, Manifest)>, String> {
    let Some(dir) = flags.get("manifest") else {
        return Ok(None);
    };
    let dir = std::path::PathBuf::from(dir);
    let manifest =
        Manifest::open(&dir).map_err(|e| format!("opening manifest {}: {e}", dir.display()))?;
    Ok(Some((dir, manifest)))
}

/// Loads the journalled report of a finished unit back from its manifest
/// directory. Returns `None` (re-run the unit) when the stored file is
/// missing, unreadable, or no longer matches the journalled digest.
fn load_cached_unit(dir: &std::path::Path, file: &str, digest: &str) -> Option<Json> {
    let text = std::fs::read_to_string(dir.join(file)).ok()?;
    let j = Json::parse(&text).ok()?;
    (report_digest(&j) == digest).then_some(j)
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("compare needs --mix")?;
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 30_000)?;
    let jobs = parse_jobs(flags)?;
    let (ckpt, resume) = parse_crash_safety(flags)?;
    let journal = parse_manifest(flags)?;
    if journal.is_some() && flags.contains_key("metrics-out") {
        return Err(
            "--metrics-out cannot be combined with --manifest (units replayed \
             from the journal have no metrics registry); re-run without --manifest"
                .to_owned(),
        );
    }
    // Units already journalled as complete replay their stored report;
    // a missing or digest-mismatched file silently re-runs the unit.
    let mut cached: HashMap<String, Json> = HashMap::new();
    if let Some((dir, manifest)) = &journal {
        for kind in SchemeKind::all() {
            let unit = backend_scoped(kind.name(), system.backend);
            if let Some(digest) = manifest.digest(&unit) {
                let file = format!("{}.json", metric_slug(&unit));
                if let Some(j) = load_cached_unit(dir, &file, digest) {
                    cached.insert(kind.name().to_owned(), j);
                }
            }
        }
    }
    let manifest = journal.map(|(dir, m)| (dir, std::sync::Mutex::new(m)));
    // Each scheme is an independent unit (own seeded scheme + memory);
    // results come back in canonical scheme order, so the table and the
    // JSON are bit-identical for any --jobs value.
    let sims = SchemeKind::all()
        .into_iter()
        .filter(|kind| !cached.contains_key(kind.name()))
        .map(|kind| build_simulation(system.clone(), kind, flags).map(|s| (kind, s)))
        .collect::<Result<Vec<_>, _>>()?;
    // Each worker forwards rate-limited progress deltas to one shared
    // fleet aggregate, so --heartbeat under --jobs prints a single
    // merged line instead of N interleaved ones (or nothing).
    let fleet = parse_heartbeat(flags)?
        .map(|interval| Arc::new(FleetProgress::new("schemes", sims.len(), interval)));
    let runs = bimodal::exec::map_indexed(jobs, sims, |idx, (kind, sim)| {
        let mut obs = Observer::disabled();
        if let Some(fleet) = &fleet {
            obs.heartbeat = Some(Heartbeat::to_sink(
                fleet.interval(),
                Arc::clone(fleet) as Arc<dyn ProgressSink>,
                idx,
            ));
        }
        let slug = metric_slug(kind.name());
        // --checkpoint/--resume act as per-scheme templates: each unit
        // snapshots to (and resumes from) FILE.<scheme>. A missing
        // per-unit snapshot simply starts that unit fresh.
        let unit_ckpt = ckpt.as_ref().map(|c| {
            CheckpointSpec::new(
                std::path::PathBuf::from(format!("{}.{slug}", c.path.display())),
                c.every,
            )
            .expect("cadence was validated when parsing the flag")
        });
        let unit_resume = resume.as_ref().and_then(|r| {
            let p = std::path::PathBuf::from(format!("{}.{slug}", r.display()));
            p.exists().then_some(p)
        });
        let run = if unit_ckpt.is_some() || unit_resume.is_some() {
            sim.run_mix_checkpointed(
                &mix,
                n,
                &mut obs,
                unit_ckpt.as_ref(),
                unit_resume.as_deref(),
            )
        } else {
            sim.run_mix_observed(&mix, n, &mut obs)
        }
        .map_err(|e| e.to_string());
        // Journal the finished unit right away (stored report first,
        // then the manifest line), so a crash between units loses at
        // most the unit that was still in flight.
        if let (Ok(r), Some((dir, m))) = (&run, &manifest) {
            let journalled = (|| -> Result<(), String> {
                let j = r.to_json();
                let unit = backend_scoped(kind.name(), system.backend);
                let file = format!("{}.json", metric_slug(&unit));
                write_json(&dir.join(file).display().to_string(), &j)?;
                m.lock()
                    .expect("manifest lock")
                    .record(&unit, &report_digest(&j))
                    .map_err(|e| e.to_string())
            })();
            if let Err(e) = journalled {
                eprintln!("warning: could not journal {}: {e}", kind.name());
            }
        }
        (kind, run)
    });
    if let Some(fleet) = &fleet {
        fleet.finish();
    }
    println!(
        "{:18} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "scheme", "hit %", "locator %", "avg lat (cy)", "offchip MB", "wasted %"
    );
    let mut fresh: HashMap<String, bimodal::sim::RunReport> = HashMap::new();
    for (kind, run) in runs {
        fresh.insert(kind.name().to_owned(), run?);
    }
    let mut reports = Vec::new();
    let mut reg = MetricsRegistry::new();
    for kind in SchemeKind::all() {
        if let Some(r) = fresh.remove(kind.name()) {
            println!(
                "{:18} {:>8.2} {:>10.2} {:>12.1} {:>12.2} {:>10.2}",
                kind.name(),
                r.scheme.hit_rate() * 100.0,
                r.scheme.locator_hit_rate() * 100.0,
                r.avg_latency(),
                r.offchip_bytes() as f64 / 1048576.0,
                r.scheme.wasted_fetch_fraction() * 100.0,
            );
            if flags.contains_key("metrics-out") {
                let mut one = MetricsRegistry::new();
                r.fill_metrics(&mut one);
                merge_metrics_prefixed(&mut reg, &metric_slug(kind.name()), &one);
            }
            reports.push(r.to_json());
        } else {
            let j = cached
                .remove(kind.name())
                .expect("every scheme is either fresh or cached");
            let v = |path: &[&str]| json_num(&j, path).unwrap_or(f64::NAN);
            println!(
                "{:18} {:>8.2} {:>10.2} {:>12.1} {:>12.2} {:>10.2}  (from manifest)",
                kind.name(),
                v(&["stats", "hit_rate"]) * 100.0,
                v(&["stats", "locator_hit_rate"]) * 100.0,
                v(&["avg_latency"]),
                v(&["offchip_bytes"]) / 1048576.0,
                v(&["stats", "wasted_fetch_fraction"]) * 100.0,
            );
            reports.push(j);
        }
    }
    write_metrics(flags, &reg)?;
    if let Some(path) = flags.get("json") {
        let mut j = Json::object();
        j.set("command", "compare")
            .set("mix", mix.name())
            .set("accesses_per_core", n)
            .set("reports", Json::Arr(reports));
        write_json(path, &j)?;
        println!("wrote comparison JSON to {path}");
    }
    Ok(())
}

fn cmd_antt(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("antt needs --mix")?;
    let scheme = parse_scheme(flags.get("scheme").ok_or("antt needs --scheme")?)?;
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 20_000)?;
    let jobs = parse_jobs(flags)?;
    let heartbeat = parse_heartbeat(flags)?;
    // One fleet aggregate per antt invocation: the multiprogrammed run
    // plus one standalone per program are the fanned units.
    let fleet_for = |interval| Arc::new(FleetProgress::new("programs", 1 + mix.cores(), interval));
    let run_one = |kind: SchemeKind| -> Result<bimodal::sim::AnttReport, String> {
        let fleet = heartbeat.map(fleet_for);
        let r = build_simulation(system.clone(), kind, flags)?
            .run_antt_jobs_with_progress(&mix, n, jobs, fleet.as_ref())
            .map_err(|e| e.to_string())?;
        if let Some(fleet) = &fleet {
            fleet.finish();
        }
        Ok(r)
    };
    let ours = run_one(scheme)?;
    let baseline = run_one(SchemeKind::Alloy)?;
    println!(
        "{} ANTT on {}: {:.3}",
        scheme.name(),
        mix.name(),
        ours.antt()
    );
    println!("AlloyCache ANTT        : {:.3}", baseline.antt());
    println!(
        "improvement            : {:+.1} %",
        ours.improvement_over(&baseline)
    );
    if let Some(path) = flags.get("json") {
        let mut j = Json::object();
        j.set("command", "antt")
            .set("mix", mix.name())
            .set("accesses_per_core", n)
            .set("scheme", ours.to_json())
            .set("baseline", baseline.to_json())
            .set("improvement_percent", ours.improvement_over(&baseline));
        write_json(path, &j)?;
        println!("wrote ANTT JSON to {path}");
    }
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("sweep needs --mix")?;
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 400_000)?;
    let scaled = mix.clone().with_footprint_scale(system.footprint_scale);
    println!(
        "miss rate vs block size (functional, {} MB):",
        system.cache_mb
    );
    let sizes = [64u32, 128, 256, 512, 1024, 2048, 4096];
    // A sweep point's result is one f64, so the manifest digest *is* the
    // result (the miss rate's bit pattern): journalled points replay
    // without any stored report file.
    let mut manifest = parse_manifest(flags)?.map(|(_, m)| m);
    let mut done: HashMap<u32, f64> = HashMap::new();
    if let Some(m) = &manifest {
        for &bs in &sizes {
            if let Some(bits) = m
                .digest(&backend_scoped(&format!("bs{bs}"), system.backend))
                .and_then(|d| u64::from_str_radix(d, 16).ok())
            {
                done.insert(bs, f64::from_bits(bits));
            }
        }
    }
    let pending: Vec<u32> = sizes
        .iter()
        .copied()
        .filter(|bs| !done.contains_key(bs))
        .collect();
    // The functional sweep has no engine heartbeat; progress is
    // unit-granular (one tick per finished block size).
    let fleet = parse_heartbeat(flags)?
        .map(|interval| Arc::new(FleetProgress::new("points", pending.len(), interval)));
    let fresh = if pending.is_empty() {
        Vec::new()
    } else {
        sweep::miss_rate_vs_block_size_with_progress(
            &scaled,
            system.cache_bytes(),
            &pending,
            n,
            system.seed,
            parse_jobs(flags)?,
            fleet.as_ref(),
        )
    };
    if let Some(fleet) = &fleet {
        fleet.finish();
    }
    if let Some(m) = &mut manifest {
        for &(bs, rate) in &fresh {
            m.record(
                &backend_scoped(&format!("bs{bs}"), system.backend),
                &format!("{:016x}", rate.to_bits()),
            )
            .map_err(|e| format!("recording manifest: {e}"))?;
        }
    }
    // Merge journalled and fresh points back into canonical size order.
    let points: Vec<(u32, f64)> = sizes
        .iter()
        .map(|&bs| {
            let rate = done.get(&bs).copied().unwrap_or_else(|| {
                fresh
                    .iter()
                    .find(|&&(b, _)| b == bs)
                    .map(|&(_, r)| r)
                    .expect("every size is journalled or freshly swept")
            });
            (bs, rate)
        })
        .collect();
    for &(bs, rate) in &points {
        let replayed = if done.contains_key(&bs) && manifest.is_some() {
            "  (from manifest)"
        } else {
            ""
        };
        println!("  {bs:>5} B : {:5.1} % miss{replayed}", rate * 100.0);
    }
    if let Some(path) = flags.get("json") {
        let mut j = Json::object();
        j.set("command", "sweep")
            .set("mix", mix.name())
            .set("cache_mb", system.cache_mb)
            .set("accesses", n)
            .set(
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|&(bs, rate)| {
                            let mut p = Json::object();
                            p.set("block_bytes", u64::from(bs)).set("miss_rate", rate);
                            p
                        })
                        .collect(),
                ),
            );
        write_json(path, &j)?;
        println!("wrote sweep JSON to {path}");
    }
    Ok(())
}

fn cmd_record(flags: &HashMap<String, String>) -> Result<(), String> {
    let program = flags.get("program").ok_or("record needs --program")?;
    let out = flags.get("out").ok_or("record needs --out")?;
    let n: usize = num(flags, "n", 100_000)?;
    let seed: u64 = num(flags, "seed", 7)?;
    let spec = spec_profile(program).ok_or_else(|| format!("unknown program {program:?}"))?;
    let accesses: Vec<_> = spec.trace(seed, 0).take(n).collect();
    let written = write_trace(out, &accesses).map_err(|e| e.to_string())?;
    println!("wrote {written} accesses of {program} to {out}");
    Ok(())
}

fn print_campaign(report: &CampaignReport) {
    println!("== fault campaign: {} on {} ==", report.scheme, report.mix);
    println!(
        "injections           : {} attempted, {} landed",
        report.schedule.len(),
        report.counts.total()
    );
    println!(
        "  by kind            : {} metadata ({} multi-bit), {} locator, {} predictor, {} dram",
        report.counts.metadata + report.counts.metadata_multi,
        report.counts.metadata_multi,
        report.counts.locator,
        report.counts.predictor,
        report.counts.dram
    );
    println!(
        "metadata ECC         : {}",
        if report.ecc { "armed" } else { "off" }
    );
    println!("detected, corrected  : {}", report.detected_corrected);
    println!("detected, uncorrected: {}", report.detected_uncorrected);
    println!("silent corruptions   : {}", report.silent_corruptions);
    if let Some(s) = &report.shadow {
        println!(
            "shadow checker       : {} impossible hits over {} checks, max drift {:.4}",
            s.faulted_violations, s.checks, s.max_drift
        );
    }
    match (report.clean_digest, report.faulted_digest) {
        (Some(c), Some(f)) if c == f => {
            println!("contents digest      : {c:#018x} (clean == faulted)");
        }
        (Some(c), Some(f)) => {
            println!("contents digest      : clean {c:#018x} != faulted {f:#018x}");
        }
        _ => {}
    }
    println!(
        "hit rate             : {:6.2} % clean, {:6.2} % faulted ({:+.2} pp)",
        report.clean.scheme.hit_rate() * 100.0,
        report.faulted.scheme.hit_rate() * 100.0,
        -report.hit_rate_degradation() * 100.0
    );
    println!(
        "avg access latency   : {:6.1} cycles clean, {:6.1} faulted ({:+.1})",
        report.clean.avg_latency(),
        report.faulted.avg_latency(),
        report.latency_degradation()
    );
    if let (Some(c), Some(f)) = (report.clean_antt, report.faulted_antt) {
        println!("ANTT                 : {c:6.3} clean, {f:6.3} faulted");
    }
}

fn cmd_inject(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("inject needs --mix")?;
    let scheme_flag = flags.get("scheme").map_or("bimodal", String::as_str);
    // `--scheme all` fans the campaign across every organization in the
    // comparison set, producing one clean-vs-faulted degradation row per
    // scheme.
    let kinds = if scheme_flag.eq_ignore_ascii_case("all") {
        SchemeKind::comparison_set()
    } else {
        vec![parse_scheme(scheme_flag)?]
    };
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let rates = FaultRates {
        metadata: num(flags, "metadata-rate", 0.0)?,
        multi_bit: num(flags, "multi-bit", 0.2)?,
        locator: num(flags, "locator-rate", 0.0)?,
        predictor: num(flags, "predictor-rate", 0.0)?,
        dram: num(flags, "dram-rate", 0.0)?,
    };
    for (name, p) in [
        ("metadata-rate", rates.metadata),
        ("multi-bit", rates.multi_bit),
        ("locator-rate", rates.locator),
        ("predictor-rate", rates.predictor),
        ("dram-rate", rates.dram),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{name} must be a probability in [0, 1]"));
        }
    }
    let watchdog = if flag_bool(flags, "no-watchdog")? {
        None
    } else {
        Some(WatchdogConfig {
            stall_cycles: num(flags, "watchdog", WatchdogConfig::default().stall_cycles)?,
            ..WatchdogConfig::default()
        })
    };
    let seeds: u64 = num(flags, "seeds", 1)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    let base_seed = num(flags, "seed", system.seed)?;
    let mix_name = mix.name().to_owned();
    let accesses: u64 = num(flags, "accesses", 30_000)?;
    let ecc = flag_bool(flags, "ecc")?;
    let shadow_every: u64 = num(flags, "shadow-every", 256)?;
    let antt = flag_bool(flags, "antt")?;
    let campaign_for = |kind: SchemeKind, seed: u64| {
        CampaignConfig::new(system.clone(), kind, mix.clone())
            .with_accesses(accesses)
            .with_seed(seed)
            .with_rates(rates)
            .with_ecc(ecc)
            .with_shadow_cadence(shadow_every)
            .with_watchdog(watchdog)
            .with_antt(antt)
    };

    if kinds.len() == 1 && seeds == 1 {
        for fanned in ["manifest", "retries", "retry-backoff-ms"] {
            if flags.contains_key(fanned) {
                return Err(format!(
                    "--{fanned} applies to fanned campaigns (--scheme all or \
                     --seeds N); a single unit re-runs from scratch"
                ));
            }
        }
        let mut obs = build_observer(flags)?;
        let report = campaign_for(kinds[0], base_seed)
            .run(&mut obs)
            .map_err(|e| e.to_string())?;
        print_campaign(&report);
        let sim_cycles = report
            .faulted
            .core_cycles
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        print_obs(&obs.summary(sim_cycles));
        if let Some(path) = flags.get("trace-out") {
            let counters = obs.bandwidth.counter_events();
            let ring = obs.trace.as_ref().expect("tracing was enabled");
            write_json(path, &ring.chrome_trace_with(&counters))?;
            println!("wrote event trace ({} events) to {path}", ring.len());
        }
        if let Some(path) = flags.get("json") {
            write_json(path, &report.to_json())?;
            println!("wrote campaign JSON to {path}");
        }
        let mut reg = MetricsRegistry::new();
        fill_campaign_metrics(&mut reg, "", &report);
        write_metrics(flags, &reg)?;
        return Ok(());
    }

    // Fan-out: each (scheme, seed) pair is an independent unit with its
    // own injector seed and a disabled observer, reduced in canonical
    // order (schemes in comparison order, then seeds ascending).
    // `--heartbeat` aggregates completion-granular progress into one
    // fleet line instead of being rejected.
    for heavy in ["trace-out", "exact-tails", "epoch", "sample-every"] {
        if flags.contains_key(heavy) {
            return Err(format!(
                "--{heavy} is not available when fanning over schemes or seeds"
            ));
        }
    }
    let jobs = parse_jobs(flags)?;
    let retries: u32 = num(flags, "retries", 3)?;
    if retries == 0 {
        return Err("--retries must be at least 1".to_owned());
    }
    let backoff_ms: u64 = num(flags, "retry-backoff-ms", 100)?;
    let policy = RetryPolicy {
        max_attempts: retries,
        base_backoff_ms: backoff_ms,
        max_backoff_ms: backoff_ms.saturating_mul(50).max(5_000),
        jitter_seed: base_seed,
    };
    let journal = parse_manifest(flags)?;
    if journal.is_some() && flags.contains_key("metrics-out") {
        return Err(
            "--metrics-out cannot be combined with --manifest (units replayed \
             from the journal have no metrics registry); re-run without --manifest"
                .to_owned(),
        );
    }
    // Split the campaign into units already journalled as complete
    // (replayed from their stored reports) and units still to run.
    let mut cached: HashMap<(SchemeKind, u64), Json> = HashMap::new();
    let mut units: Vec<(SchemeKind, u64)> = Vec::new();
    for &kind in &kinds {
        for k in 0..seeds {
            let seed = base_seed + k;
            let hit = journal.as_ref().and_then(|(dir, m)| {
                let unit = backend_scoped(&format!("{}/seed{seed}", kind.name()), system.backend);
                let file = format!(
                    "{}_seed{seed}.json",
                    metric_slug(&backend_scoped(kind.name(), system.backend))
                );
                m.digest(&unit)
                    .and_then(|d| load_cached_unit(dir, &file, d))
            });
            match hit {
                Some(j) => {
                    cached.insert((kind, seed), j);
                }
                None => units.push((kind, k)),
            }
        }
    }
    let manifest = journal.map(|(dir, m)| (dir, std::sync::Mutex::new(m)));
    let fleet = parse_heartbeat(flags)?
        .map(|interval| Arc::new(FleetProgress::new("campaigns", units.len(), interval)));
    let unit_list = units.clone();
    let runs = bimodal::exec::map_fallible(jobs, units, policy, |idx, &(kind, k)| {
        // Test hook: deterministically wreck one unit so the degradation
        // path (retries, failed slot, nonzero exit) can be exercised end
        // to end from the integration tests.
        if std::env::var("BIMODAL_TEST_PANIC_UNIT").ok().as_deref()
            == Some(idx.to_string().as_str())
        {
            panic!("injected test panic in unit {idx}");
        }
        let seed = base_seed + k;
        let mut obs = Observer::disabled();
        let run = campaign_for(kind, seed)
            .run(&mut obs)
            .map_err(|e| e.to_string());
        if let Some(fleet) = &fleet {
            fleet.unit_done(idx);
        }
        let r = run?;
        // Journal the finished unit right away, so a crash (or a later
        // unit exhausting its retries) never forfeits this one.
        if let Some((dir, m)) = &manifest {
            let journalled = (|| -> Result<(), String> {
                let j = r.to_json();
                let file = format!(
                    "{}_seed{seed}.json",
                    metric_slug(&backend_scoped(kind.name(), system.backend))
                );
                write_json(&dir.join(file).display().to_string(), &j)?;
                m.lock()
                    .expect("manifest lock")
                    .record(
                        &backend_scoped(&format!("{}/seed{seed}", kind.name()), system.backend),
                        &report_digest(&j),
                    )
                    .map_err(|e| e.to_string())
            })();
            if let Err(e) = journalled {
                eprintln!("warning: could not journal {}/seed{seed}: {e}", kind.name());
            }
        }
        Ok(r)
    });
    if let Some(fleet) = &fleet {
        fleet.finish();
    }
    println!(
        "{:>16} {:>10} {:>8} {:>9} {:>7} {:>7} {:>12} {:>12} {:>10}",
        "scheme",
        "seed",
        "landed",
        "corrected",
        "uncorr",
        "silent",
        "hit % clean",
        "hit % fault",
        "lat +cy"
    );
    let mut campaigns = Vec::new();
    let mut failed: Vec<Json> = Vec::new();
    let mut total_silent = 0u64;
    let mut reg = MetricsRegistry::new();
    let mut fresh = unit_list.iter().zip(runs);
    for &kind in &kinds {
        for k in 0..seeds {
            let seed = base_seed + k;
            if let Some(j) = cached.remove(&(kind, seed)) {
                let v = |path: &[&str]| json_num(&j, path).unwrap_or(f64::NAN);
                println!(
                    "{:>16} {seed:>10} {:>8} {:>9} {:>7} {:>7} {:>12.2} {:>12.2} {:>10.1}  (from manifest)",
                    kind.name(),
                    v(&["injected", "total"]) as u64,
                    v(&["detected_corrected"]) as u64,
                    v(&["detected_uncorrected"]) as u64,
                    v(&["silent_corruptions"]) as u64,
                    v(&["clean", "hit_rate"]) * 100.0,
                    v(&["faulted", "hit_rate"]) * 100.0,
                    v(&["degradation", "avg_latency"]),
                );
                total_silent += v(&["silent_corruptions"]) as u64;
                campaigns.push(j);
                continue;
            }
            let (unit, result) = fresh
                .next()
                .expect("every campaign unit is either cached or ran");
            debug_assert_eq!(*unit, (kind, k), "pool results stay in unit order");
            match result {
                UnitResult::Ok { value: r, attempts } => {
                    if attempts > 1 {
                        eprintln!(
                            "note: {}/seed{seed} succeeded on attempt {attempts}",
                            kind.name()
                        );
                    }
                    if flags.contains_key("metrics-out") {
                        let prefix = format!("{}.seed{seed}", metric_slug(kind.name()));
                        fill_campaign_metrics(&mut reg, &prefix, &r);
                    }
                    println!(
                        "{:>16} {seed:>10} {:>8} {:>9} {:>7} {:>7} {:>12.2} {:>12.2} {:>10.1}",
                        kind.name(),
                        r.counts.total(),
                        r.detected_corrected,
                        r.detected_uncorrected,
                        r.silent_corruptions,
                        r.clean.scheme.hit_rate() * 100.0,
                        r.faulted.scheme.hit_rate() * 100.0,
                        r.latency_degradation(),
                    );
                    total_silent += r.silent_corruptions;
                    campaigns.push(r.to_json());
                }
                UnitResult::Failed(f) => {
                    eprintln!(
                        "warning: {}/seed{seed} {} after {} attempt(s): {}",
                        kind.name(),
                        if f.panicked { "panicked" } else { "failed" },
                        f.attempts,
                        f.error
                    );
                    println!("{:>16} {seed:>10} {:>8}", kind.name(), "FAILED");
                    let mut fj = Json::object();
                    fj.set("unit", format!("{}/seed{seed}", kind.name()))
                        .set("scheme", kind.name())
                        .set("seed", seed)
                        .set("attempts", u64::from(f.attempts))
                        .set("error", f.error.as_str())
                        .set("panicked", f.panicked);
                    failed.push(fj);
                }
            }
        }
    }
    println!(
        "total silent corruptions across {} campaigns: {total_silent}",
        campaigns.len()
    );
    // Write the (possibly partial) results before deciding the exit
    // code: a degraded campaign still delivers everything it finished.
    if let Some(path) = flags.get("json") {
        let mut j = Json::object();
        j.set("command", "inject")
            .set("mix", mix_name.as_str())
            .set("base_seed", base_seed)
            .set("seeds", seeds)
            .set(
                "schemes",
                Json::Arr(kinds.iter().map(|k| Json::from(k.name())).collect()),
            )
            .set("campaigns", Json::Arr(campaigns))
            .set("failed", Json::Arr(failed.clone()));
        write_json(path, &j)?;
        println!("wrote campaign JSON to {path}");
    }
    write_metrics(flags, &reg)?;
    if !failed.is_empty() {
        return Err(format!(
            "{} campaign unit(s) failed after retries; completed units were \
             still reported (and journalled under --manifest)",
            failed.len()
        ));
    }
    Ok(())
}

/// Registers one campaign's headline counters plus its clean and faulted
/// run metrics, optionally under a `<prefix>.` namespace (fan-outs).
fn fill_campaign_metrics(reg: &mut MetricsRegistry, prefix: &str, r: &CampaignReport) {
    let key = |name: &str| {
        if prefix.is_empty() {
            name.to_owned()
        } else {
            format!("{prefix}.{name}")
        }
    };
    reg.counter(key("campaign.injections_landed"), r.counts.total())
        .counter(key("campaign.detected_corrected"), r.detected_corrected)
        .counter(key("campaign.detected_uncorrected"), r.detected_uncorrected)
        .counter(key("campaign.silent_corruptions"), r.silent_corruptions);
    for (leg, report) in [("clean", &r.clean), ("faulted", &r.faulted)] {
        let mut one = MetricsRegistry::new();
        report.fill_metrics(&mut one);
        merge_metrics_prefixed(reg, &key(leg), &one);
    }
}

fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), String> {
    let window: usize = num(flags, "window", 5)?;
    if window == 0 {
        return Err("--window must be at least 1".to_owned());
    }
    let max_regress: f64 = num(flags, "max-regress", 25.0)?;
    if !(0.0..100.0).contains(&max_regress) {
        return Err("--max-regress must be a percentage in [0, 100)".to_owned());
    }
    if flag_bool(flags, "check-history")? {
        // Pure check mode: no benchmark run, just the trendline gate
        // over an existing history file.
        let path = flags
            .get("history")
            .ok_or("--check-history needs --history FILE")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let verdict = bimodal::selfbench::check_history(&text, window, max_regress)?;
        println!(
            "trendline check over {path}: newest point vs trailing median \
             of {} comparable point(s), budget {max_regress}%",
            verdict.baseline_points
        );
        for line in &verdict.lines {
            println!("  {line}");
        }
        if !verdict.passed() {
            return Err(format!(
                "bench trendline regression: {} fell more than {max_regress}% \
                 below the trailing median",
                verdict.regressions.join(", ")
            ));
        }
        println!("trendline gate passed");
        return Ok(());
    }
    let opts = bimodal::selfbench::BenchOptions {
        quick: flag_bool(flags, "quick")?,
        jobs: parse_jobs(flags)?,
        backend: match flags.get("backend") {
            Some(b) => BackendKind::parse(b)?,
            None => BackendKind::default(),
        },
    };
    // Parse the threshold before the (long) measurement, so a typo
    // fails fast instead of after the whole benchmark has run.
    let min_speedup = flags
        .get("min-speedup")
        .map(|m| {
            m.parse::<f64>()
                .map_err(|_| "--min-speedup must be a number".to_owned())
        })
        .transpose()?;
    eprintln!(
        "benchmarking (quick: {}, jobs: {}, host parallelism: {})...",
        opts.quick,
        opts.jobs,
        bimodal::exec::available_jobs()
    );
    let report = bimodal::selfbench::run(&opts);
    println!(
        "{:10} {:>6} {:>12} {:>14} {:>9}",
        "workload", "units", "serial (s)", "parallel (s)", "speedup"
    );
    for w in &report.workloads {
        println!(
            "{:10} {:>6} {:>12.3} {:>14.3} {:>8.2}x",
            w.name,
            w.units,
            w.serial_secs,
            w.parallel_secs,
            w.speedup()
        );
    }
    println!();
    println!(
        "{:18} {:>12} {:>10} {:>14}",
        "scheme", "accesses", "secs", "accesses/sec"
    );
    for s in &report.schemes {
        println!(
            "{:18} {:>12} {:>10.3} {:>14.0}",
            s.scheme, s.accesses, s.secs, s.accesses_per_sec
        );
    }
    let path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{}.json", report.date));
    write_json(&path, &report.to_json())?;
    println!("wrote benchmark JSON to {path}");
    if let Some(hpath) = flags.get("history") {
        // Read-modify-write with an atomic rename: a crash mid-append
        // can no longer tear the newest history line.
        let mut text = match std::fs::read_to_string(hpath) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("reading {hpath}: {e}")),
        };
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&report.history_line());
        text.push('\n');
        bimodal::ckpt::atomic_write_str(std::path::Path::new(hpath), &text)
            .map_err(|e| format!("appending {hpath}: {e}"))?;
        println!("appended history point to {hpath}");
    }
    if let Some(min) = min_speedup {
        match bimodal::selfbench::speedup_gate(&report, min) {
            GateOutcome::Pass => println!(
                "compare speedup {:.2}x meets the required {min:.2}x",
                report.compare_speedup()
            ),
            GateOutcome::Warn(msg) => eprintln!("warning: {msg}"),
            GateOutcome::Fail(msg) => return Err(msg),
        }
    }
    Ok(())
}

/// Short column label for one traffic class in the breakdown tables.
fn class_label(class: bimodal::obs::TrafficClass) -> &'static str {
    use bimodal::obs::TrafficClass as T;
    match class {
        T::MetadataRead => "md.r",
        T::MetadataWrite => "md.w",
        T::TagProbe => "probe",
        T::DataFill => "fill",
        T::DataHit => "hit",
        T::Writeback => "wb",
        T::MainMemRefill => "refill",
        T::PredictorOverfetch => "spec",
        T::Scrub => "scrub",
        T::Refresh => "refr",
        T::Other => "other",
    }
}

/// Verifies the class-accounting invariant on one module's summary:
/// per-channel class cycles must sum exactly to that channel's busy
/// cycles (they are incremented by the same add, so a mismatch means
/// the attribution layer is broken, not the run).
fn check_class_sums(
    scheme: &str,
    module: &str,
    s: &bimodal::obs::BandwidthSummary,
) -> Result<(), String> {
    for (ch, c) in s.channels.iter().enumerate() {
        if c.busy.total_cycles() != c.busy_cycles {
            return Err(format!(
                "class accounting broken: {scheme} {module} channel {ch}: \
                 classes sum to {} busy cycles but the channel counted {}",
                c.busy.total_cycles(),
                c.busy_cycles
            ));
        }
    }
    Ok(())
}

/// One per-class share row (percent of bus busy cycles) for the table.
fn share_row(name: &str, s: &bimodal::obs::BandwidthSummary, elapsed: u64) -> String {
    use std::fmt::Write as _;
    let util = if elapsed == 0 || s.channels.is_empty() {
        0.0
    } else {
        s.total_busy_cycles() as f64 / (elapsed as f64 * s.channels.len() as f64)
    };
    let mut row = format!("{name:>16} {:>6.1}", util * 100.0);
    for class in bimodal::obs::TrafficClass::ALL {
        let _ = write!(row, " {:>6.1}", s.class_share(class) * 100.0);
    }
    row
}

fn cmd_bandwidth(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("bandwidth needs --mix")?;
    let scheme_flag = flags.get("scheme").map_or("all", String::as_str);
    // `--scheme all` fans the breakdown across the five-organization
    // comparison set (the paper's Fig. 10 shape): one row per scheme.
    let kinds = if scheme_flag.eq_ignore_ascii_case("all") {
        SchemeKind::comparison_set()
    } else {
        vec![parse_scheme(scheme_flag)?]
    };
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 30_000)?;
    let jobs = parse_jobs(flags)?;
    let sims = kinds
        .iter()
        .map(|&kind| build_simulation(system.clone(), kind, flags).map(|s| (kind, s)))
        .collect::<Result<Vec<_>, _>>()?;
    let runs = bimodal::exec::map(jobs, sims, |(kind, sim)| {
        (kind, sim.run_mix(&mix, n).map_err(|e| e.to_string()))
    });
    let mut reports = Vec::new();
    for (kind, run) in runs {
        let r = run?;
        check_class_sums(kind.name(), "cache", &r.bandwidth.cache)?;
        check_class_sums(kind.name(), "offchip", &r.bandwidth.offchip)?;
        reports.push((kind, r));
    }
    let header = {
        use std::fmt::Write as _;
        let mut h = format!("{:>16} {:>6}", "scheme", "util%");
        for class in bimodal::obs::TrafficClass::ALL {
            let _ = write!(h, " {:>6}", class_label(class));
        }
        h
    };
    println!(
        "== bandwidth breakdown on {} ({} accesses/core) ==",
        mix.name(),
        n
    );
    println!("-- stacked DRAM (cache) bus busy-cycle shares, % --");
    println!("{header}");
    for (kind, r) in &reports {
        println!(
            "{}",
            share_row(kind.name(), &r.bandwidth.cache, r.bandwidth.elapsed_cycles)
        );
    }
    println!("-- off-chip DRAM bus busy-cycle shares, % --");
    println!("{header}");
    for (kind, r) in &reports {
        println!(
            "{}",
            share_row(
                kind.name(),
                &r.bandwidth.offchip,
                r.bandwidth.elapsed_cycles
            )
        );
    }
    println!("-- deferred background-op queue --");
    for (kind, r) in &reports {
        let q = &r.bandwidth.deferred_queue;
        println!(
            "{:>16} high-water {:>4}, time-weighted mean {:.3}",
            kind.name(),
            q.high_water,
            q.time_weighted_mean()
        );
    }
    println!(
        "class sums verified: per-class busy cycles match channel totals \
         on {} scheme(s), both modules",
        reports.len()
    );
    if let Some(path) = flags.get("json") {
        let mut j = Json::object();
        j.set("command", "bandwidth")
            .set("mix", mix.name())
            .set("accesses_per_core", n)
            .set(
                "schemes",
                Json::Arr(reports.iter().map(|(k, _)| Json::from(k.name())).collect()),
            )
            .set(
                "reports",
                Json::Arr(reports.iter().map(|(_, r)| r.to_json()).collect()),
            );
        write_json(path, &j)?;
        println!("wrote bandwidth JSON to {path}");
    }
    Ok(())
}

/// Short column labels for the anatomy components, in
/// [`bimodal::obs::Component::ALL`] order.
const COMP_LABELS: [&str; bimodal::obs::COMPONENT_COUNT] = [
    "queue", "bankc", "tagpr", "locat", "burst", "offch", "defer", "other",
];

/// Header of an anatomy table: one column per component plus the mean.
fn anatomy_header(first: &str) -> String {
    use std::fmt::Write as _;
    let mut h = format!("{first:>16} {:>9}", "count");
    for label in COMP_LABELS {
        let _ = write!(h, " {label:>7}");
    }
    let _ = write!(h, " {:>8}", "avg");
    h
}

/// One anatomy table row: mean cycles per access in each component.
fn anatomy_row(name: &str, p: &bimodal::obs::PopSummary) -> String {
    use std::fmt::Write as _;
    let mut row = format!("{name:>16} {:>9}", p.count);
    for i in 0..bimodal::obs::COMPONENT_COUNT {
        let _ = write!(row, " {:>7.1}", p.mean_component(i));
    }
    let _ = write!(row, " {:>8.1}", p.mean_latency());
    row
}

/// Prints a run report's anatomy section as per-population tables.
fn print_anatomy(a: &bimodal::obs::AnatomySummary) {
    println!("-- latency anatomy: mean cycles per access by component --");
    println!("{}", anatomy_header("population"));
    for p in &a.populations {
        if p.count > 0 {
            println!("{}", anatomy_row(p.name, p));
        }
    }
    if a.fused_saved_cycles > 0 {
        println!(
            "fused tag+data bursts saved an estimated {} cycles",
            a.fused_saved_cycles
        );
    }
    for b in &a.background {
        println!(
            "background {:>14}: {} ops, {} cycles",
            b.name,
            b.ops,
            b.cycles.iter().sum::<u64>()
        );
    }
}

/// Checks the structural invariant on a report's anatomy section:
/// every population's component cycles sum exactly to its total
/// measured latency.
fn check_anatomy_sums(scheme: &str, a: &bimodal::obs::AnatomySummary) -> Result<(), String> {
    for p in &a.populations {
        let sum: u64 = p.components.iter().map(|c| c.cycles).sum();
        if sum != p.total_latency {
            return Err(format!(
                "{scheme}: anatomy components of {} sum to {} cycles but \
                 total latency is {}",
                p.name, sum, p.total_latency
            ));
        }
    }
    Ok(())
}

fn cmd_latency(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("latency needs --mix")?;
    let scheme_flag = flags.get("scheme").map_or("all", String::as_str);
    let kinds = if scheme_flag.eq_ignore_ascii_case("all") {
        SchemeKind::comparison_set()
    } else {
        vec![parse_scheme(scheme_flag)?]
    };
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 30_000)?;
    let jobs = parse_jobs(flags)?;
    let sims = kinds
        .iter()
        .map(|&kind| build_simulation(system.clone(), kind, flags).map(|s| (kind, s)))
        .collect::<Result<Vec<_>, _>>()?;
    let runs = bimodal::exec::map(jobs, sims, |(kind, sim)| {
        let mut obs = Observer::enabled(ObserverConfig::default().with_anatomy());
        (
            kind,
            sim.run_mix_observed(&mix, n, &mut obs)
                .map_err(|e| e.to_string()),
        )
    });
    let mut reports = Vec::new();
    for (kind, run) in runs {
        let r = run?;
        let a = r
            .anatomy
            .as_ref()
            .ok_or_else(|| format!("{}: run produced no anatomy section", kind.name()))?;
        check_anatomy_sums(kind.name(), a)?;
        reports.push((kind, r));
    }
    println!(
        "== latency anatomy on {} ({} accesses/core) ==",
        mix.name(),
        n
    );
    // One table per demand population that any scheme saw: a row per
    // scheme of mean cycles spent in each component.
    let pop_count = reports.first().map_or(0, |(_, r)| {
        r.anatomy.as_ref().map_or(0, |a| a.populations.len())
    });
    for pi in 0..pop_count {
        if !reports.iter().any(|(_, r)| {
            r.anatomy
                .as_ref()
                .is_some_and(|a| a.populations[pi].count > 0)
        }) {
            continue;
        }
        let name = reports[0].1.anatomy.as_ref().expect("checked").populations[pi].name;
        println!("-- {name}: mean cycles per access by component --");
        println!("{}", anatomy_header("scheme"));
        for (kind, r) in &reports {
            let p = &r.anatomy.as_ref().expect("checked").populations[pi];
            println!("{}", anatomy_row(kind.name(), p));
        }
    }
    for (kind, r) in &reports {
        let a = r.anatomy.as_ref().expect("checked");
        if a.fused_saved_cycles > 0 {
            println!(
                "{:>16}: fused tag+data bursts saved an estimated {} cycles",
                kind.name(),
                a.fused_saved_cycles
            );
        }
    }
    println!(
        "component sums verified: anatomy components add up to measured \
         latency on {} scheme(s)",
        reports.len()
    );
    if let Some(path) = flags.get("json") {
        let mut j = Json::object();
        j.set("command", "latency")
            .set("mix", mix.name())
            .set("accesses_per_core", n)
            .set(
                "schemes",
                Json::Arr(reports.iter().map(|(k, _)| Json::from(k.name())).collect()),
            )
            .set(
                "reports",
                Json::Arr(reports.iter().map(|(_, r)| r.to_json()).collect()),
            );
        write_json(path, &j)?;
        println!("wrote latency anatomy JSON to {path}");
    }
    Ok(())
}

/// Parses `--addr X` (hex with `0x` prefix, or decimal).
fn parse_addr(flags: &HashMap<String, String>) -> Result<u64, String> {
    let raw = flags.get("addr").ok_or("explain needs --addr")?;
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.map_err(|_| format!("--addr must be a decimal or 0x-hex address, got {raw:?}"))
}

fn cmd_explain(flags: &HashMap<String, String>) -> Result<(), String> {
    let mix_name = flags.get("mix").ok_or("explain needs --mix")?;
    let scheme = parse_scheme(flags.get("scheme").ok_or("explain needs --scheme")?)?;
    let addr = parse_addr(flags)?;
    let (mix, base) = parse_mix(mix_name)?;
    let system = configured_system(base, flags)?;
    let n = num(flags, "accesses", 30_000)?;
    let mut obs = Observer::enabled(ObserverConfig::default().with_journey_addr(addr));
    let report = build_simulation(system, scheme, flags)?
        .run_mix_observed(&mix, n, &mut obs)
        .map_err(|e| e.to_string())?;
    let jl = obs.journeys.as_ref().expect("journey filter was enabled");
    println!(
        "== journeys for {addr:#x}: {} on {} ({} accesses/core) ==",
        scheme.name(),
        mix.name(),
        n
    );
    if jl.entries().is_empty() {
        println!("address {addr:#x} was never accessed during the run");
    }
    for j in jl.entries() {
        println!(
            "seq {:>8} core {} {} issue {:>10} complete {:>10} latency {:>6} {}",
            j.seq,
            j.core,
            if j.is_write { "write" } else { "read " },
            j.at,
            j.at + j.latency,
            j.latency,
            if j.hit { "hit" } else { "miss" },
        );
        let parts: Vec<String> = bimodal::obs::Component::ALL
            .iter()
            .zip(&j.comps)
            .filter(|(_, &c)| c > 0)
            .map(|(comp, &c)| format!("{} {c}", comp.name()))
            .collect();
        println!(
            "         {}",
            if parts.is_empty() {
                "(zero-latency)".to_owned()
            } else {
                parts.join(", ")
            }
        );
    }
    if jl.dropped() > 0 {
        println!("({} further journey(s) dropped at capacity)", jl.dropped());
    }
    let a = report.anatomy.as_ref().expect("journeys imply anatomy");
    check_anatomy_sums(scheme.name(), a)?;
    Ok(())
}

/// Reads one number at `path` inside `j`.
fn json_num(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = j;
    for p in path {
        cur = cur.get(p)?;
    }
    cur.as_f64()
}

/// Relative drift between two scalars, in percent of the larger
/// magnitude (0 when both are 0, so identical runs diff to zero).
fn rel_drift_pct(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom * 100.0
    }
}

/// Per-class cache bus busy-cycle shares from a run report's
/// `bandwidth.cache.by_class` section, as `(class, share)` pairs.
fn cache_class_shares(j: &Json) -> Vec<(String, f64)> {
    let Some(Json::Obj(pairs)) = j
        .get("bandwidth")
        .and_then(|b| b.get("cache"))
        .and_then(|c| c.get("by_class"))
    else {
        return Vec::new();
    };
    let cycles: Vec<(String, f64)> = pairs
        .iter()
        .filter_map(|(name, v)| Some((name.clone(), v.get("cycles")?.as_f64()?)))
        .collect();
    let total: f64 = cycles.iter().map(|(_, c)| c).sum();
    cycles
        .into_iter()
        .map(|(name, c)| (name, if total == 0.0 { 0.0 } else { c / total }))
        .collect()
}

/// How `diff` failed, mapped to distinct exit codes in `main`: drift
/// between readable reports exits 1, unreadable or malformed input
/// exits 2, so CI can tell "the experiment regressed" from "the golden
/// file is broken".
enum DiffError {
    /// The inputs could not be read, parsed, or compared (exit code 2).
    Input(String),
    /// The reports differ beyond the gate (exit code 1).
    Drift(String),
}

/// Drops the sections that legitimately differ between byte-identical
/// runs (wall-clock timings under `obs.wall`, the host-time span
/// profile) before an `--exact` comparison.
fn strip_volatile(j: &mut Json) {
    if let Json::Obj(entries) = j {
        entries.retain(|(k, _)| k != "profile");
        for (k, v) in entries.iter_mut() {
            if k == "obs" {
                if let Json::Obj(obs) = v {
                    obs.retain(|(k, _)| k != "wall");
                }
            }
        }
    }
}

/// Collects the paths where two JSON trees differ (up to `limit`, so a
/// wholly different pair of files prints a digest, not a flood).
fn json_diff_paths(a: &Json, b: &Json, path: &str, out: &mut Vec<String>, limit: usize) {
    if out.len() >= limit {
        return;
    }
    match (a, b) {
        (Json::Obj(xa), Json::Obj(xb)) => {
            let mut keys: Vec<&str> = xa.iter().map(|(k, _)| k.as_str()).collect();
            let extra: Vec<&str> = xb
                .iter()
                .map(|(k, _)| k.as_str())
                .filter(|k| !keys.contains(k))
                .collect();
            keys.extend(extra);
            for k in keys {
                let sub = if path.is_empty() {
                    k.to_owned()
                } else {
                    format!("{path}.{k}")
                };
                let va = xa.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                let vb = xb.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                match (va, vb) {
                    (Some(va), Some(vb)) => json_diff_paths(va, vb, &sub, out, limit),
                    _ => {
                        if out.len() < limit {
                            out.push(format!("{sub} (present in only one report)"));
                        }
                    }
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) if xa.len() == xb.len() => {
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                json_diff_paths(va, vb, &format!("{path}[{i}]"), out, limit);
            }
        }
        _ => {
            if a != b && out.len() < limit {
                out.push(path.to_owned());
            }
        }
    }
}

fn cmd_diff(args: &[String]) -> Result<(), DiffError> {
    // `diff` takes two positional report paths before/between its
    // flags; a flag without `=` consumes the next argument as its value.
    let mut paths: Vec<String> = Vec::new();
    let mut flag_args: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            flag_args.push(args[i].clone());
            if !args[i].contains('=') && !args[i].trim_start_matches("--").eq("exact") {
                if let Some(v) = args.get(i + 1) {
                    flag_args.push(v.clone());
                    i += 1;
                }
            }
        } else {
            paths.push(args[i].clone());
        }
        i += 1;
    }
    let flags = parse_flags(&flag_args, &["threshold", "anatomy-threshold", "exact"])
        .map_err(DiffError::Input)?;
    let [a_path, b_path] = paths.as_slice() else {
        return Err(DiffError::Input(format!(
            "diff needs exactly two report files, got {}",
            paths.len()
        )));
    };
    let exact = flag_bool(&flags, "exact").map_err(DiffError::Input)?;
    if exact && (flags.contains_key("threshold") || flags.contains_key("anatomy-threshold")) {
        return Err(DiffError::Input(
            "--exact and --threshold/--anatomy-threshold are mutually exclusive".to_owned(),
        ));
    }
    let anatomy_threshold: Option<f64> = match flags.get("anatomy-threshold") {
        Some(v) => {
            let cy: f64 = v
                .parse()
                .map_err(|_| DiffError::Input("--anatomy-threshold must be cycles".to_owned()))?;
            if cy < 0.0 {
                return Err(DiffError::Input(
                    "--anatomy-threshold must be non-negative".to_owned(),
                ));
            }
            Some(cy)
        }
        None => None,
    };
    let threshold: f64 = num(&flags, "threshold", 2.0).map_err(DiffError::Input)?;
    if threshold < 0.0 {
        return Err(DiffError::Input(
            "--threshold must be non-negative".to_owned(),
        ));
    }
    let load = |path: &str| -> Result<Json, DiffError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| DiffError::Input(format!("reading {path}: {e}")))?;
        let j = Json::parse(&text).map_err(|e| DiffError::Input(format!("parsing {path}: {e}")))?;
        if j.get("reports").is_some() || j.get("campaigns").is_some() {
            return Err(DiffError::Input(format!(
                "{path} is a fanned multi-run file; diff compares single-run \
                 reports (write one with `bimodal run --json` or pick one \
                 entry out of the `reports` array)"
            )));
        }
        Ok(j)
    };
    let mut a = load(a_path)?;
    let mut b = load(b_path)?;

    if exact {
        // Byte-exactness gate for checkpoint/resume validation: every
        // field must match except wall-clock and the span profile.
        strip_volatile(&mut a);
        strip_volatile(&mut b);
        if a == b {
            println!("reports are identical (ignoring wall clock and span profile)");
            return Ok(());
        }
        let mut diffs = Vec::new();
        json_diff_paths(&a, &b, "", &mut diffs, 16);
        for d in &diffs {
            println!("  differs: {d}");
        }
        return Err(DiffError::Drift(format!(
            "reports differ at {} path(s) between {a_path} and {b_path}",
            diffs.len()
        )));
    }

    // Scalar metrics: relative drift in percent.
    let scalars: &[(&str, &[&str])] = &[
        ("avg_latency", &["avg_latency"]),
        ("mean_core_cycles", &["mean_core_cycles"]),
        ("hit_rate", &["stats", "hit_rate"]),
        ("offchip_bytes", &["offchip_bytes"]),
        ("read p50", &["obs", "latency", "read", "p50"]),
        ("read p99", &["obs", "latency", "read", "p99"]),
    ];
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for (label, path) in scalars {
        match (json_num(&a, path), json_num(&b, path)) {
            (Some(x), Some(y)) => rows.push(((*label).to_owned(), x, y, rel_drift_pct(x, y))),
            // Percentiles are absent in unobserved reports; skip quietly.
            _ if path.first() == Some(&"obs") => {}
            _ => {
                return Err(DiffError::Input(format!(
                    "metric {label:?} missing from one of the reports"
                )))
            }
        }
    }
    // Per-class bandwidth shares: absolute drift in percentage points,
    // gated by the same threshold.
    let (sa, sb) = (cache_class_shares(&a), cache_class_shares(&b));
    let mut classes: Vec<String> = sa.iter().chain(sb.iter()).map(|(n, _)| n.clone()).collect();
    classes.sort();
    classes.dedup();
    let share = |shares: &[(String, f64)], name: &str| {
        shares
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    for name in classes {
        let (x, y) = (share(&sa, &name), share(&sb, &name));
        rows.push((format!("cache share {name}"), x, y, (x - y).abs() * 100.0));
    }

    println!(
        "{:>24} {:>14} {:>14} {:>9}",
        "metric", a_path, b_path, "drift%"
    );
    let mut over = 0usize;
    for (label, x, y, drift) in &rows {
        let mark = if *drift > threshold { " <-- drift" } else { "" };
        if *drift > threshold {
            over += 1;
        }
        println!("{label:>24} {x:>14.4} {y:>14.4} {drift:>9.3}{mark}");
    }

    // Anatomy drift: per-population per-component mean cycles, gated by
    // an absolute cycle threshold (relative drift would over-trigger on
    // tiny components).
    let mut anat_over = 0usize;
    if let Some(cy_threshold) = anatomy_threshold {
        let (ma, mb) = (anatomy_means(&a), anatomy_means(&b));
        let (Some(ma), Some(mb)) = (ma, mb) else {
            return Err(DiffError::Input(
                "--anatomy-threshold needs an `anatomy` section in both reports \
                 (write them with `bimodal run --anatomy --json`)"
                    .to_owned(),
            ));
        };
        let mut labels: Vec<&String> = ma.iter().chain(mb.iter()).map(|(l, _)| l).collect();
        labels.sort();
        labels.dedup();
        let get =
            |m: &[(String, f64)], l: &str| m.iter().find(|(n, _)| n == l).map_or(0.0, |(_, v)| *v);
        println!(
            "{:>32} {:>14} {:>14} {:>9}",
            "anatomy mean cycles", a_path, b_path, "|dcy|"
        );
        for label in labels {
            let (x, y) = (get(&ma, label), get(&mb, label));
            let d = (x - y).abs();
            let mark = if d > cy_threshold { " <-- drift" } else { "" };
            if d > cy_threshold {
                anat_over += 1;
            }
            println!("{label:>32} {x:>14.2} {y:>14.2} {d:>9.2}{mark}");
        }
        if anat_over == 0 {
            println!("no anatomy drift above {cy_threshold} cycles");
        }
    }

    if over + anat_over > 0 {
        return Err(DiffError::Drift(format!(
            "{over} metric(s) over {threshold}% and {anat_over} anatomy \
             component(s) over the absolute cycle threshold between \
             {a_path} and {b_path}"
        )));
    }
    println!("no drift above {threshold}%");
    Ok(())
}

/// Per-population per-component mean cycles from a report's `anatomy`
/// section, labelled `population.component`. `None` when the report has
/// no anatomy section; populations with zero accesses are skipped.
fn anatomy_means(j: &Json) -> Option<Vec<(String, f64)>> {
    let pops = j.get("anatomy")?.get("populations")?;
    let Json::Obj(pairs) = pops else { return None };
    let mut out = Vec::new();
    for (pop, body) in pairs {
        let count = body.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        if count == 0.0 {
            continue;
        }
        if let Some(Json::Obj(comps)) = body.get("components") {
            for (comp, c) in comps {
                let cycles = c.get("cycles").and_then(Json::as_f64).unwrap_or(0.0);
                out.push((format!("{pop}.{comp}"), cycles / count));
            }
        }
    }
    Some(out)
}

/// Flags each command accepts; anything else is rejected up front.
fn allowed_flags(command: &str) -> &'static [&'static str] {
    const RUN: &[&str] = &[
        "mix",
        "backend",
        "scheme",
        "accesses",
        "cache-mb",
        "seed",
        "warmup",
        "mlp",
        "prefetch",
        "json",
        "trace-out",
        "stream",
        "sample-every",
        "epoch",
        "heartbeat",
        "exact-tails",
        "profile",
        "metrics-out",
        "metrics-format",
        "anatomy",
        "journeys",
        "checkpoint",
        "checkpoint-every",
        "resume",
    ];
    const INJECT: &[&str] = &[
        "mix",
        "backend",
        "scheme",
        "accesses",
        "cache-mb",
        "seed",
        "seeds",
        "jobs",
        "warmup",
        "mlp",
        "metadata-rate",
        "multi-bit",
        "locator-rate",
        "predictor-rate",
        "dram-rate",
        "ecc",
        "antt",
        "shadow-every",
        "watchdog",
        "no-watchdog",
        "json",
        "trace-out",
        "sample-every",
        "epoch",
        "heartbeat",
        "exact-tails",
        "metrics-out",
        "metrics-format",
        "manifest",
        "retries",
        "retry-backoff-ms",
    ];
    const COMPARE: &[&str] = &[
        "mix",
        "backend",
        "accesses",
        "cache-mb",
        "seed",
        "warmup",
        "mlp",
        "prefetch",
        "jobs",
        "json",
        "heartbeat",
        "metrics-out",
        "metrics-format",
        "manifest",
        "checkpoint",
        "checkpoint-every",
        "resume",
    ];
    const ANTT: &[&str] = &[
        "mix",
        "backend",
        "scheme",
        "accesses",
        "cache-mb",
        "seed",
        "warmup",
        "mlp",
        "prefetch",
        "jobs",
        "json",
        "heartbeat",
    ];
    const SWEEP: &[&str] = &[
        "mix",
        "backend",
        "accesses",
        "cache-mb",
        "seed",
        "jobs",
        "json",
        "heartbeat",
        "manifest",
    ];
    const RECORD: &[&str] = &["program", "out", "n", "seed"];
    const BENCH: &[&str] = &[
        "quick",
        "backend",
        "jobs",
        "min-speedup",
        "out",
        "history",
        "check-history",
        "window",
        "max-regress",
    ];
    const BANDWIDTH: &[&str] = &[
        "mix", "backend", "scheme", "accesses", "cache-mb", "seed", "warmup", "mlp", "prefetch",
        "jobs", "json",
    ];
    const LATENCY: &[&str] = &[
        "mix", "backend", "scheme", "accesses", "cache-mb", "seed", "warmup", "mlp", "prefetch",
        "jobs", "json",
    ];
    const EXPLAIN: &[&str] = &[
        "mix", "backend", "scheme", "addr", "accesses", "cache-mb", "seed", "warmup", "mlp",
        "prefetch",
    ];
    match command {
        "run" => RUN,
        "compare" => COMPARE,
        "antt" => ANTT,
        "sweep" => SWEEP,
        "record" => RECORD,
        "inject" => INJECT,
        "bench" => BENCH,
        "bandwidth" => BANDWIDTH,
        "latency" => LATENCY,
        "explain" => EXPLAIN,
        _ => &[],
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `diff` takes positional file arguments, which the --flag parser
    // would reject; hand it the raw tail instead.
    if command == "diff" {
        // Distinct exit codes so CI can tell a real regression (1) from
        // a broken or missing golden file (2).
        return match cmd_diff(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(DiffError::Drift(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
            Err(DiffError::Input(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let flags = match parse_flags(&args[1..], allowed_flags(command)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => cmd_run(&flags),
        "compare" => cmd_compare(&flags),
        "antt" => cmd_antt(&flags),
        "sweep" => cmd_sweep(&flags),
        "record" => cmd_record(&flags),
        "inject" => cmd_inject(&flags),
        "bench" => cmd_bench(&flags),
        "bandwidth" => cmd_bandwidth(&flags),
        "latency" => cmd_latency(&flags),
        "explain" => cmd_explain(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each command in the usage text's `commands:` block with the
    /// `--flags` its synopsis names. A command line starts two spaces in;
    /// its synopsis runs on until the next command line.
    fn synopsis_flags() -> Vec<(String, Vec<String>)> {
        let block = usage()
            .split_once("commands:\n")
            .and_then(|(_, rest)| rest.split_once("\n\n"))
            .map(|(block, _)| block)
            .expect("usage has a commands block");
        let mut out: Vec<(String, Vec<String>)> = Vec::new();
        for line in block.lines() {
            let body = line
                .strip_prefix("  ")
                .expect("synopsis lines are indented");
            if !body.starts_with(' ') {
                let name = body.split_whitespace().next().expect("a command name");
                out.push((name.to_owned(), Vec::new()));
            }
            let flags = &mut out.last_mut().expect("a command line comes first").1;
            for piece in body.split("--").skip(1) {
                let flag: String = piece
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                    .collect();
                flags.push(flag);
            }
        }
        out
    }

    #[test]
    fn every_synopsis_names_exactly_the_flags_its_command_accepts() {
        let synopses = synopsis_flags();
        let names: Vec<&str> = synopses.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names.join(" "),
            "list run compare antt sweep record inject bench bandwidth latency explain diff"
        );
        for (command, mut flags) in synopses {
            // `diff` takes positional files and parses its own flags.
            if command == "diff" {
                continue;
            }
            flags.sort_unstable();
            flags.dedup();
            let mut allowed = allowed_flags(&command).to_vec();
            allowed.sort_unstable();
            assert_eq!(flags, allowed, "{command}: synopsis flags vs allowed_flags");
        }
    }

    fn one_flag(key: &str, value: &str) -> HashMap<String, String> {
        HashMap::from([(key.to_owned(), value.to_owned())])
    }

    #[test]
    fn mlp_is_bounded_at_parse_time() {
        let mlp = |v: &str| configured_system(SystemConfig::quad_core(), &one_flag("mlp", v));
        assert_eq!(mlp("1").map(|s| s.mlp), Ok(1));
        assert_eq!(mlp("64").map(|s| s.mlp), Ok(64));
        // Parsed only: an engine sized for this many in-flight misses
        // per core would try to reserve them all up front.
        for bad in ["0", "65", "4294967295"] {
            let err = mlp(bad).expect_err(bad);
            assert!(err.starts_with("--mlp "), "{bad}: {err}");
        }
    }

    #[test]
    fn epoch_zero_is_rejected_with_or_without_observing() {
        let mut flags = one_flag("epoch", "0");
        for observing in [false, true] {
            if observing {
                flags.insert("anatomy".to_owned(), String::new());
            }
            let err = build_observer(&flags).expect_err("epoch 0");
            assert!(err.starts_with("--epoch "), "{err}");
        }
        flags.insert("epoch".to_owned(), "1".to_owned());
        assert!(build_observer(&flags).is_ok_and(|o| o.is_enabled()));
    }
}
