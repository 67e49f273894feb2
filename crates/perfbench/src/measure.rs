//! The parent side: runs reps of a workload in fresh worker processes,
//! one at a time, accounts failures, and turns the reps into metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bimodal_obs::Json;

use crate::catalog::{per_layer, Workload, END_TO_END, SCHEMES, SCHEME_FIELDS};
use crate::stats::{median, Summary};

/// Timed reps a run makes at least, however short `seconds` is.
const MIN_REPS: usize = 3;
/// Observer on/off rep pairs the traced run makes at least.
const MIN_PAIRS: usize = 2;

/// How to measure.
#[derive(Debug, Clone)]
pub struct Options {
    /// The `perfbench` executable the reps run in.
    pub exe: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// How long the timed reps run, at least [`MIN_REPS`] of them.
    pub seconds: f64,
    /// Where the traced rep writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
}

/// One named metric with its samples.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The samples; single-valued metrics have one.
    pub summary: Summary,
}

/// What measuring one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Scheme runs attempted.
    pub attempted: u64,
    /// Scheme runs that failed: a typed error, a panic, a worker that
    /// exited without a report, a failed check, or a report that differs
    /// from the first rep's.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Report hash per `scheme[+obs]@accesses_per_core`.
    pub hashes: BTreeMap<String, String>,
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True when every scheme run passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric's value (the median) with its unit.
    #[must_use]
    pub fn result_line(&self) -> Json {
        let mut m = Json::object();
        for x in &self.metrics {
            let mut v = Json::object();
            v.set("value", x.summary.median).set("unit", x.unit);
            m.set(&x.name, v);
        }
        let mut j = Json::object();
        j.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", m);
        j
    }

    /// Prints every metric by name with its unit, and every failure.
    pub fn print(&self) {
        println!(
            "{}: {} scheme runs, {} failed",
            self.workload, self.attempted, self.failed
        );
        for e in &self.errors {
            println!("  FAILED {e}");
        }
        for m in &self.metrics {
            let s = &m.summary;
            if s.samples.len() > 1 {
                println!(
                    "  {:<36} {:>14.6} {:<10} median of {} (min {:.6}, q1 {:.6}, q3 {:.6}, max {:.6})",
                    m.name,
                    s.median,
                    m.unit,
                    s.samples.len(),
                    s.min,
                    s.q1,
                    s.q3,
                    s.max
                );
            } else {
                println!("  {:<36} {:>14.6} {}", m.name, s.median, m.unit);
            }
        }
    }

    fn absorb(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.errors.extend(tally.errors);
        self.hashes.extend(tally.hashes);
    }
}

/// The end-to-end metrics of `w`: one discarded warm-up rep, then timed
/// reps until `opts.seconds` have passed; each metric is the median.
#[must_use]
pub fn end_to_end(w: &Workload, opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    tally.account(w, &spawn(opts, w, w.observed, false), false);
    let mut reps = Vec::new();
    run_for(opts.seconds, MIN_REPS, || {
        if let Some(r) = tally.account(w, &spawn(opts, w, w.observed, false), false) {
            reps.push(r);
        }
    });
    let pick = |f: fn(&RepNumbers) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let values = [
        pick(|r| r.accesses / r.run_s),
        pick(|r| r.setup_s[0] + r.setup_s[1] + r.setup_s[2]),
        pick(|r| r.peak_rss_mb),
    ];
    let mut out = Outcome {
        workload: w.name.to_owned(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, summary)| Metric {
                name: m.name.to_owned(),
                unit: m.unit,
                summary,
            })
            .collect(),
        ..Outcome::default()
    };
    out.absorb(tally);
    out
}

/// The per-layer metrics of `w`: a warm-up rep, observer on/off pairs
/// for `opts.seconds / 2`, then one traced rep. No traced number feeds
/// an end-to-end metric.
///
/// A `--trace 1` result line carries a measured value for every
/// per-layer name in `BENCHMARK.json`, `obs.*` included, and one
/// `measure` call sees one workload. So every workload times its own
/// configuration with the observer switched the other way: `obs.*` is the
/// observer's cost on that workload. On `bimodal-q1` and
/// `bimodal-q1-observed` this is the cost of the one against the other.
#[must_use]
pub fn per_layer_metrics(w: &Workload, opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    tally.account(w, &spawn(opts, w, w.observed, false), false);
    let (mut plain, mut toggled) = (Vec::new(), Vec::new());
    run_for(opts.seconds / 2.0, MIN_PAIRS, || {
        if let Some(r) = tally.account(w, &spawn(opts, w, w.observed, false), false) {
            plain.push(r);
        }
        if let Some(r) = tally.account(w, &spawn(opts, w, !w.observed, false), false) {
            toggled.push(r);
        }
    });
    let traced = spawn(opts, w, w.observed, true);
    let traced_ok = tally.account(w, &traced, true).is_some();

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let med = |reps: &[RepNumbers], f: fn(&RepNumbers) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    for (i, name) in ["setup.traces_s", "setup.scheme_s", "setup.memory_s"]
        .iter()
        .enumerate()
    {
        v.insert(
            (*name).to_owned(),
            median(&plain.iter().map(|r| r.setup_s[i]).collect::<Vec<_>>()),
        );
    }
    let (on, off) = if w.observed {
        (&plain, &toggled)
    } else {
        (&toggled, &plain)
    };
    let ns_per_access = |r: &RepNumbers| r.run_s * 1e9 / r.accesses;
    let (on_s, off_s) = (med(on, |r| r.run_s), med(off, |r| r.run_s));
    v.insert("obs.overhead_pct".into(), pct_over(on_s, off_s));
    v.insert(
        "obs.record_ns_per_access".into(),
        med(on, ns_per_access) - med(off, ns_per_access),
    );
    if let (true, Ok(rep)) = (traced_ok, &traced) {
        traced_layers(rep, med(&plain, |r| r.run_s), &mut v);
    }

    let mut out = Outcome {
        workload: w.name.to_owned(),
        metrics: per_layer()
            .into_iter()
            .map(|l| Metric {
                summary: Summary::of(&[v.get(&l.name).copied().unwrap_or(0.0)]),
                name: l.name,
                unit: l.unit,
            })
            .collect(),
        ..Outcome::default()
    };
    out.absorb(tally);
    out
}

/// `a` over `b` as a percentage increase (0 when `b` is 0).
fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        (a / b - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The metrics only the traced rep gives. `plain_run_s` is the untraced
/// median engine time of the same work.
fn traced_layers(rep: &Json, plain_run_s: f64, v: &mut BTreeMap<String, f64>) {
    let units = rep.get("units").and_then(Json::as_arr).unwrap_or(&[]);
    let own: Vec<&Json> = units.iter().filter(|u| !flag(u, "companion")).collect();
    let sum = |f: &dyn Fn(&Json) -> f64| own.iter().map(|u| f(u)).sum::<f64>();
    let timing = |u: &Json, k: &str| u.get("timing").map_or(0.0, |t| num(t, k));
    let issued = sum(&|u| timing(u, "issued")).max(1.0);
    let run_ns = sum(&|u| num(u, "run_s")) * 1e9;
    let decode_ns = sum(&|u| timing(u, "decode_ns"));
    let access_ns = sum(&|u| timing(u, "access_ns"));
    v.insert("workloads.decode_ns_per_access".into(), decode_ns / issued);
    v.insert(
        "sim.engine_ns_per_access".into(),
        (run_ns - access_ns - decode_ns) / issued,
    );
    v.insert(
        "sim.trace_overhead_pct".into(),
        pct_over(run_ns / 1e9, plain_run_s),
    );

    for u in units {
        let slug = u.get("slug").and_then(Json::as_str).unwrap_or("");
        for (field, _, deterministic) in SCHEME_FIELDS {
            let x = if deterministic {
                num(u, field)
            } else {
                timing(u, field)
            };
            v.insert(format!("scheme.{slug}.{field}"), x);
        }
    }

    let accesses = sum(&|u| num(u, "accesses")).max(1.0);
    let depths: Vec<f64> = own.iter().map(|u| num(u, "deferred_mean_depth")).collect();
    v.insert(
        "dram.cache.ops_per_access".into(),
        sum(&|u| num(u, "cache_ops")) / accesses,
    );
    v.insert(
        "dram.cache.row_hit_rate".into(),
        sum(&|u| num(u, "cache_row_hits")) / sum(&|u| num(u, "cache_row_accesses")).max(1.0),
    );
    v.insert(
        "dram.offchip.bytes_per_access".into(),
        sum(&|u| num(u, "offchip_bytes")) / accesses,
    );
    v.insert(
        "dram.deferred.high_water".into(),
        own.iter()
            .map(|u| num(u, "deferred_high_water"))
            .fold(0.0, f64::max),
    );
    v.insert("dram.deferred.mean_depth".into(), median(&depths));
    if let Some(d) = rep.get("dram") {
        for k in [
            "column_ns_row_hit",
            "column_ns_row_miss",
            "offchip_read_ns",
            "deferred_ns_per_op",
        ] {
            v.insert(format!("dram.{k}"), num(d, k));
        }
    }
}

/// Calls `rep` at least `min` times and until `seconds` have passed.
fn run_for(seconds: f64, min: usize, mut rep: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        rep();
        n += 1;
    }
}

/// The numbers one passing rep contributes, over the workload's own
/// schemes.
#[derive(Debug, Clone, Copy)]
struct RepNumbers {
    accesses: f64,
    run_s: f64,
    /// traces, scheme, memory.
    setup_s: [f64; 3],
    peak_rss_mb: f64,
}

/// Failure accounting across the reps of one workload.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    hashes: BTreeMap<String, String>,
}

impl Tally {
    /// Accounts one rep and returns its numbers when every scheme run in
    /// it passed.
    fn account(
        &mut self,
        w: &Workload,
        rep: &Result<Json, String>,
        traced: bool,
    ) -> Option<RepNumbers> {
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                // A worker that died reports nothing: every scheme run it
                // was given counts as failed. A traced rep runs all eight.
                let n = if traced {
                    SCHEMES.len()
                } else {
                    w.schemes.len()
                } as u64;
                self.attempted += n;
                self.failed += n;
                self.errors.push(e.clone());
                return None;
            }
        };
        let units = rep.get("units").and_then(Json::as_arr).unwrap_or(&[]);
        let observed = if flag(rep, "observe") { "+obs" } else { "" };
        let mut all_ok = true;
        let mut n = RepNumbers {
            accesses: 0.0,
            run_s: 0.0,
            setup_s: [0.0; 3],
            peak_rss_mb: num(rep, "peak_rss_mb"),
        };
        for u in units {
            self.attempted += 1;
            let scheme = u.get("scheme").and_then(Json::as_str).unwrap_or("?");
            let key = format!("{scheme}{observed}@{}", num(u, "accesses_per_core"));
            let error = if flag(u, "ok") {
                let hash = u.get("hash").and_then(Json::as_str).unwrap_or("");
                match self.hashes.get(&key) {
                    Some(first) if first != hash => Some(format!(
                        "report hash {hash} differs from the first rep's {first}"
                    )),
                    Some(_) => None,
                    None => {
                        self.hashes.insert(key.clone(), hash.to_owned());
                        None
                    }
                }
            } else {
                Some(
                    u.get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error")
                        .to_owned(),
                )
            };
            if let Some(e) = error {
                self.failed += 1;
                self.errors.push(format!("{} {key}: {e}", w.name));
                all_ok = false;
                continue;
            }
            if !flag(u, "companion") {
                n.accesses += num(u, "accesses");
                n.run_s += num(u, "run_s");
                for (i, k) in ["traces_s", "scheme_s", "memory_s"].iter().enumerate() {
                    n.setup_s[i] += num(u, k);
                }
            }
        }
        (all_ok && n.run_s > 0.0).then_some(n)
    }
}

/// Runs one rep in a fresh worker process and parses its JSON line. The
/// traced rep writes the Chrome trace, if one was asked for.
fn spawn(opts: &Options, w: &Workload, observe: bool, traced: bool) -> Result<Json, String> {
    let mut cmd = Command::new(&opts.exe);
    cmd.arg("worker")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--accesses-per-core", &w.accesses_per_core.to_string()])
        .args(["--observe", if observe { "1" } else { "0" }])
        .args(["--traced", if traced { "1" } else { "0" }]);
    if let (true, Some(p)) = (traced, &opts.trace_out) {
        cmd.arg("--trace-out").arg(p);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start a worker: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{}: worker exited with {}", w.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{}: worker printed nothing", w.name))?;
    Json::parse(line).map_err(|e| format!("{}: unreadable worker output: {e}", w.name))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn flag(j: &Json, key: &str) -> bool {
    matches!(j.get(key), Some(Json::Bool(true)))
}
