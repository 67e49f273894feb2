//! Self-benchmarking harness behind `bimodal bench`.
//!
//! Times representative serial-vs-parallel workloads (the multi-scheme
//! compare, the functional block-size sweep, and the ANTT standalone
//! fan-out) and reports per-scheme simulation throughput, so every PR
//! has a perf trajectory to regress against. The numbers go into
//! `BENCH_<date>.json` (see [`BenchReport::to_json`] for the schema).
//!
//! Wall-clock numbers are honest about the host: `host_parallelism`
//! records how many cores the measurement actually had, so a ~1.0×
//! "speedup" on a single-core box reads as the hardware limit it is,
//! not a regression.

use std::time::Instant;

use bimodal_dram::BackendKind;
use bimodal_obs::Json;
use bimodal_sim::{sweep, SchemeKind, Simulation, SystemConfig};
use bimodal_workloads::WorkloadMix;

/// What `bimodal bench` should run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Shrink every workload (CI smoke mode).
    pub quick: bool,
    /// Worker threads for the parallel passes.
    pub jobs: usize,
    /// Memory-substrate backend the timed runs execute on. Non-default
    /// backends get their own history keys (`<scheme>@<backend>`), so
    /// substrate trendlines never mix with the paper-default ones.
    pub backend: BackendKind,
}

/// One serial-vs-parallel timing of a fanned command.
#[derive(Debug, Clone)]
pub struct WorkloadTiming {
    /// Command-like name (`compare`, `sweep`, `antt`).
    pub name: &'static str,
    /// Independent units the command fans out.
    pub units: usize,
    /// Wall-clock seconds with `--jobs 1`.
    pub serial_secs: f64,
    /// Wall-clock seconds with `--jobs N`.
    pub parallel_secs: f64,
}

impl WorkloadTiming {
    /// Serial time over parallel time (1.0 = no gain).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.parallel_secs > 0.0 {
            self.serial_secs / self.parallel_secs
        } else {
            1.0
        }
    }
}

/// Simulation throughput of one scheme on the compare workload.
#[derive(Debug, Clone)]
pub struct SchemeRate {
    /// Scheme name as reported by the scheme itself.
    pub scheme: String,
    /// DRAM-cache accesses the timed run performed.
    pub accesses: u64,
    /// Wall-clock seconds of that run.
    pub secs: f64,
    /// `accesses / secs`.
    pub accesses_per_sec: f64,
}

/// Everything `bimodal bench` measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// UTC date the benchmark ran (`YYYY-MM-DD`).
    pub date: String,
    /// Cores the host actually offered the measurement.
    pub host_parallelism: usize,
    /// Worker threads the parallel passes used.
    pub jobs: usize,
    /// Whether the quick (CI smoke) sizes were used.
    pub quick: bool,
    /// Serial-vs-parallel timings per command.
    pub workloads: Vec<WorkloadTiming>,
    /// Per-scheme simulation throughput on the compare workload.
    pub schemes: Vec<SchemeRate>,
    /// Memory-substrate backend the measurement ran on.
    pub backend: BackendKind,
}

impl BenchReport {
    /// Speedup of the compare workload (the CI assertion target).
    #[must_use]
    pub fn compare_speedup(&self) -> f64 {
        self.workloads
            .iter()
            .find(|w| w.name == "compare")
            .map_or(1.0, WorkloadTiming::speedup)
    }

    /// The `BENCH_*.json` document:
    ///
    /// ```json
    /// {
    ///   "schema": "bimodal-bench-v1",
    ///   "date": "2026-08-05",
    ///   "host_parallelism": 4, "jobs": 4, "quick": false,
    ///   "workloads": [{"name": "compare", "units": 9,
    ///                  "serial_secs": 1.2, "parallel_secs": 0.4,
    ///                  "speedup": 3.0}, ...],
    ///   "schemes": [{"scheme": "BiModal", "accesses": 123456,
    ///                "secs": 0.21, "accesses_per_sec": 587885.7}, ...]
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("schema", "bimodal-bench-v1")
            .set("date", self.date.as_str())
            .set("backend", self.backend.name())
            .set("host_parallelism", self.host_parallelism as u64)
            .set("jobs", self.jobs as u64)
            .set("quick", self.quick)
            .set(
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            let mut o = Json::object();
                            o.set("name", w.name)
                                .set("units", w.units as u64)
                                .set("serial_secs", w.serial_secs)
                                .set("parallel_secs", w.parallel_secs)
                                .set("speedup", w.speedup());
                            if w.speedup() < 1.0 {
                                // Sub-1.0 points must be self-describing:
                                // on a starved host they are the hardware
                                // ceiling, not a parallelism regression.
                                o.set("host_limited", self.host_parallelism == 1)
                                    .set("host_parallelism", self.host_parallelism as u64);
                            }
                            o
                        })
                        .collect(),
                ),
            )
            .set(
                "schemes",
                Json::Arr(
                    self.schemes
                        .iter()
                        .map(|s| {
                            let mut o = Json::object();
                            o.set("scheme", s.scheme.as_str())
                                .set("accesses", s.accesses)
                                .set("secs", s.secs)
                                .set("accesses_per_sec", s.accesses_per_sec);
                            o
                        })
                        .collect(),
                ),
            );
        j
    }
}

/// Outcome of a perf gate: pass, degrade to a warning (the measurement
/// cannot support the assertion), or fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateOutcome {
    /// The gate held.
    Pass,
    /// The gate could not be meaningfully evaluated; explains why.
    Warn(String),
    /// The gate tripped; explains by how much.
    Fail(String),
}

/// Evaluates the `--min-speedup` gate against the compare workload.
///
/// On a single-core host parallel speedup is physically capped at ~1.0×,
/// so any threshold above that would flake on every run; the gate
/// degrades to [`GateOutcome::Warn`] there instead of failing.
#[must_use]
pub fn speedup_gate(report: &BenchReport, min_speedup: f64) -> GateOutcome {
    let got = report.compare_speedup();
    if got >= min_speedup {
        GateOutcome::Pass
    } else if report.host_parallelism == 1 {
        GateOutcome::Warn(format!(
            "compare speedup {got:.2}x below {min_speedup:.2}x, but the host offered only \
             1 core; parallel speedup is not measurable here (gate downgraded to a warning)"
        ))
    } else {
        GateOutcome::Fail(format!(
            "compare speedup {got:.2}x below required {min_speedup:.2}x \
             (host_parallelism {})",
            report.host_parallelism
        ))
    }
}

impl BenchReport {
    /// One line of `BENCH_HISTORY.jsonl`: the per-scheme throughput of
    /// this run, compact, self-describing:
    ///
    /// ```json
    /// {"schema": "bimodal-bench-history-v1", "date": "2026-08-08",
    ///  "quick": true, "jobs": 2, "host_parallelism": 2,
    ///  "schemes": {"BiModal": 587885.7, ...}}
    /// ```
    #[must_use]
    pub fn history_line(&self) -> String {
        // Non-default substrates get their own keys so their trendlines
        // never mix with the paper-default ones.
        let tag = if self.backend == BackendKind::default() {
            String::new()
        } else {
            format!("@{}", self.backend.name())
        };
        let mut schemes = Json::object();
        for s in &self.schemes {
            schemes.set(format!("{}{tag}", s.scheme).as_str(), s.accesses_per_sec);
        }
        let mut j = Json::object();
        j.set("schema", "bimodal-bench-history-v1")
            .set("date", self.date.as_str())
            .set("quick", self.quick)
            .set("jobs", self.jobs as u64)
            .set("host_parallelism", self.host_parallelism as u64)
            .set("schemes", schemes);
        j.to_compact()
    }
}

/// One parsed `BENCH_HISTORY.jsonl` point.
#[derive(Debug, Clone)]
struct HistoryPoint {
    quick: bool,
    /// `(scheme, accesses_per_sec)` pairs.
    schemes: Vec<(String, f64)>,
}

/// What [`check_history`] concluded.
#[derive(Debug, Clone)]
pub struct HistoryVerdict {
    /// Trailing points (matching the newest point's `quick` flag) the
    /// medians were computed over.
    pub baseline_points: usize,
    /// One human-readable line per scheme in the newest point.
    pub lines: Vec<String>,
    /// Schemes whose newest throughput regressed beyond the threshold.
    pub regressions: Vec<String>,
}

impl HistoryVerdict {
    /// Whether the newest point passed the trendline gate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Checks the newest `BENCH_HISTORY.jsonl` point against the trailing
/// median of the previous up-to-`window` points with the same `quick`
/// flag (quick and full runs have incomparable sizes). A scheme regresses
/// when its newest accesses/sec falls more than `max_regress_pct`
/// percent below its median. With fewer than two comparable points the
/// check passes vacuously (noted in `lines`).
///
/// # Errors
///
/// Returns a message if `text` holds no valid history lines (corrupt
/// JSON, wrong schema, or empty input).
pub fn check_history(
    text: &str,
    window: usize,
    max_regress_pct: f64,
) -> Result<HistoryVerdict, String> {
    let mut points = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("history line {}: {e}", i + 1))?;
        if j.get("schema").and_then(Json::as_str) != Some("bimodal-bench-history-v1") {
            return Err(format!("history line {}: not a bench-history point", i + 1));
        }
        let quick = matches!(j.get("quick"), Some(Json::Bool(true)));
        let Some(Json::Obj(pairs)) = j.get("schemes") else {
            return Err(format!("history line {}: missing schemes object", i + 1));
        };
        let schemes = pairs
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|r| (k.clone(), r)))
            .collect();
        points.push(HistoryPoint { quick, schemes });
    }
    let Some(newest) = points.pop() else {
        return Err("history is empty; run `bimodal bench --history FILE` first".into());
    };
    let baseline: Vec<&HistoryPoint> = points
        .iter()
        .rev()
        .filter(|p| p.quick == newest.quick)
        .take(window.max(1))
        .collect();
    let mut verdict = HistoryVerdict {
        baseline_points: baseline.len(),
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    if baseline.is_empty() {
        verdict.lines.push(format!(
            "no earlier {} points to compare against; gate passes vacuously",
            if newest.quick { "quick" } else { "full" }
        ));
        return Ok(verdict);
    }
    for (scheme, rate) in &newest.schemes {
        let mut rates: Vec<f64> = baseline
            .iter()
            .filter_map(|p| p.schemes.iter().find(|(s, _)| s == scheme).map(|&(_, r)| r))
            .collect();
        if rates.is_empty() {
            verdict
                .lines
                .push(format!("{scheme}: new scheme, no baseline"));
            continue;
        }
        rates.sort_by(f64::total_cmp);
        let median = rates[rates.len() / 2];
        let floor = median * (1.0 - max_regress_pct / 100.0);
        let delta_pct = if median > 0.0 {
            (rate / median - 1.0) * 100.0
        } else {
            0.0
        };
        let ok = *rate >= floor;
        verdict.lines.push(format!(
            "{scheme}: {rate:.0} acc/s vs median {median:.0} over {} points ({delta_pct:+.1}%){}",
            rates.len(),
            if ok { "" } else { "  << REGRESSION" },
        ));
        if !ok {
            verdict.regressions.push(scheme.clone());
        }
    }
    Ok(verdict)
}

/// The standard Q-mix compare setup: every scheme on Q3, the same system
/// the `compare` command defaults to.
fn compare_setup(backend: BackendKind) -> (WorkloadMix, SystemConfig) {
    let mix = WorkloadMix::quad("Q3").expect("Q3 is a known mix");
    let system = SystemConfig::quad_core()
        .with_backend(backend)
        .with_cache_mb(8);
    (mix, system)
}

/// Runs the benchmark.
///
/// # Panics
///
/// Panics if a simulation rejects its parameters, which cannot happen
/// with the built-in workload sizes.
#[must_use]
pub fn run(opts: &BenchOptions) -> BenchReport {
    let jobs = opts.jobs.max(1);
    let mut workloads = Vec::new();

    // -------- compare: every scheme on the standard Q-mix, timed run.
    let accesses = if opts.quick { 3_000 } else { 20_000 };
    let (mix, system) = compare_setup(opts.backend);
    let run_compare = |jobs: usize| -> Vec<(String, u64, f64)> {
        bimodal_exec::map(jobs, SchemeKind::all(), |kind| {
            let t = Instant::now();
            let r = Simulation::new(system.clone(), kind)
                .run_mix(&mix, accesses)
                .expect("bench parameters are valid");
            let accesses = r.dram_cache_accesses();
            (r.scheme_name, accesses, t.elapsed().as_secs_f64())
        })
    };
    let t = Instant::now();
    let serial_runs = run_compare(1);
    let serial_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel_runs = run_compare(jobs);
    let parallel_secs = t.elapsed().as_secs_f64();
    workloads.push(WorkloadTiming {
        name: "compare",
        units: parallel_runs.len(),
        serial_secs,
        parallel_secs,
    });
    let schemes = serial_runs
        .into_iter()
        .map(|(scheme, accesses, secs)| SchemeRate {
            scheme,
            accesses,
            accesses_per_sec: if secs > 0.0 {
                accesses as f64 / secs
            } else {
                0.0
            },
            secs,
        })
        .collect();

    // -------- sweep: functional miss rate across block sizes.
    let sweep_accesses = if opts.quick { 40_000 } else { 300_000 };
    let sizes = [64u32, 128, 256, 512, 1024, 2048, 4096];
    let scaled = mix.clone().with_footprint_scale(system.footprint_scale);
    let run_sweep = |jobs: usize| -> f64 {
        let t = Instant::now();
        let points = sweep::miss_rate_vs_block_size_jobs(
            &scaled,
            system.cache_bytes(),
            &sizes,
            sweep_accesses,
            system.seed,
            jobs,
        );
        assert_eq!(points.len(), sizes.len());
        t.elapsed().as_secs_f64()
    };
    let serial_secs = run_sweep(1);
    let parallel_secs = run_sweep(jobs);
    workloads.push(WorkloadTiming {
        name: "sweep",
        units: sizes.len(),
        serial_secs,
        parallel_secs,
    });

    // -------- antt: multiprogrammed run plus per-program standalones.
    let antt_accesses = if opts.quick { 2_000 } else { 10_000 };
    let sim = Simulation::new(system.clone(), SchemeKind::BiModal);
    let run_antt = |jobs: usize| -> f64 {
        let t = Instant::now();
        let r = sim
            .run_antt_jobs(&mix, antt_accesses, jobs)
            .expect("bench parameters are valid");
        assert!(r.antt() > 0.0);
        t.elapsed().as_secs_f64()
    };
    let serial_secs = run_antt(1);
    let parallel_secs = run_antt(jobs);
    workloads.push(WorkloadTiming {
        name: "antt",
        units: 1 + mix.cores(),
        serial_secs,
        parallel_secs,
    });

    BenchReport {
        date: utc_date_string(),
        host_parallelism: bimodal_exec::available_jobs(),
        jobs,
        quick: opts.quick,
        workloads,
        schemes,
        backend: opts.backend,
    }
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock alone (no
/// external time crates; civil-from-days per Howard Hinnant's algorithm).
fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = u32::try_from(doy - (153 * mp + 2) / 5 + 1).expect("day of month");
    let m = u32::try_from(if mp < 10 { mp + 3 } else { mp - 9 }).expect("month");
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_670), (2026, 8, 5));
    }

    fn report_with(host_parallelism: usize, serial: f64, parallel: f64) -> BenchReport {
        BenchReport {
            date: "2026-08-08".into(),
            host_parallelism,
            jobs: 2,
            quick: true,
            workloads: vec![WorkloadTiming {
                name: "compare",
                units: 9,
                serial_secs: serial,
                parallel_secs: parallel,
            }],
            schemes: vec![SchemeRate {
                scheme: "BiModal".into(),
                accesses: 1000,
                secs: 0.5,
                accesses_per_sec: 2000.0,
            }],
            backend: BackendKind::default(),
        }
    }

    #[test]
    fn speedup_gate_warns_instead_of_failing_on_one_core() {
        // 1.0x speedup against a 1.2x requirement.
        let r = report_with(1, 1.0, 1.0);
        match speedup_gate(&r, 1.2) {
            GateOutcome::Warn(msg) => assert!(msg.contains("1 core"), "{msg}"),
            other => panic!("expected Warn on a single-core host, got {other:?}"),
        }
        // The same shortfall on a multi-core host is a hard failure...
        assert!(matches!(
            speedup_gate(&report_with(4, 1.0, 1.0), 1.2),
            GateOutcome::Fail(_)
        ));
        // ...and meeting the bar passes regardless of cores.
        assert_eq!(
            speedup_gate(&report_with(1, 2.0, 1.0), 1.2),
            GateOutcome::Pass
        );
    }

    fn history_point(rate: f64) -> String {
        format!(
            "{{\"schema\": \"bimodal-bench-history-v1\", \"date\": \"2026-08-08\", \
             \"quick\": true, \"jobs\": 2, \"host_parallelism\": 2, \
             \"schemes\": {{\"BiModal\": {rate}}}}}"
        )
    }

    #[test]
    fn history_line_round_trips_through_check() {
        let r = report_with(2, 1.0, 0.5);
        let text = format!("{}\n{}\n", r.history_line(), r.history_line());
        let v = check_history(&text, 5, 25.0).expect("parses");
        assert_eq!(v.baseline_points, 1);
        assert!(v.passed());
    }

    #[test]
    fn check_history_trips_on_regression_and_passes_on_flat() {
        let mut lines: Vec<String> = (0..5).map(|_| history_point(1000.0)).collect();
        lines.push(history_point(900.0)); // -10%: within a 25% budget
        let v = check_history(&lines.join("\n"), 5, 25.0).expect("parses");
        assert!(v.passed(), "{:?}", v.lines);

        lines.pop();
        lines.push(history_point(500.0)); // -50%: trips
        let v = check_history(&lines.join("\n"), 5, 25.0).expect("parses");
        assert!(!v.passed());
        assert_eq!(v.regressions, vec!["BiModal".to_owned()]);
    }

    #[test]
    fn check_history_single_point_passes_vacuously() {
        let v = check_history(&history_point(1000.0), 5, 25.0).expect("parses");
        assert!(v.passed());
        assert_eq!(v.baseline_points, 0);
    }

    #[test]
    fn check_history_ignores_points_with_other_quick_flag() {
        let full = history_point(4000.0).replace("\"quick\": true", "\"quick\": false");
        let text = format!(
            "{}\n{}\n{}",
            full,
            history_point(1000.0),
            history_point(990.0)
        );
        let v = check_history(&text, 5, 25.0).expect("parses");
        // Only the quick point is a comparable baseline.
        assert_eq!(v.baseline_points, 1);
        assert!(v.passed(), "{:?}", v.lines);
    }

    #[test]
    fn check_history_rejects_garbage() {
        assert!(check_history("", 5, 25.0).is_err());
        assert!(check_history("{not json", 5, 25.0).is_err());
        assert!(check_history("{\"schema\": \"other\"}", 5, 25.0).is_err());
    }

    #[test]
    fn quick_bench_produces_all_sections() {
        let r = run(&BenchOptions {
            quick: true,
            jobs: 2,
            backend: BackendKind::default(),
        });
        assert_eq!(r.workloads.len(), 3);
        assert_eq!(r.schemes.len(), SchemeKind::all().len());
        assert!(r.schemes.iter().all(|s| s.accesses_per_sec > 0.0));
        assert!(r.compare_speedup() > 0.0);
        let json = r.to_json().to_pretty();
        for key in ["bimodal-bench-v1", "workloads", "schemes", "speedup"] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn sub_unity_speedups_carry_host_context() {
        // 0.8x "speedup" on a 1-core host: annotated as host-limited.
        let r = report_with(1, 0.8, 1.0);
        let json = r.to_json().to_pretty();
        assert!(json.contains("\"host_limited\": true"), "{json}");
        // The same shape on a 4-core host is a real slowdown, not a
        // hardware ceiling.
        let r = report_with(4, 0.8, 1.0);
        let json = r.to_json().to_pretty();
        assert!(json.contains("\"host_limited\": false"), "{json}");
        // At or above 1.0x no annotation appears at all.
        let r = report_with(1, 1.0, 1.0);
        assert!(!r.to_json().to_pretty().contains("host_limited"));
    }

    #[test]
    fn non_default_backend_rates_ride_history_under_scoped_keys() {
        let mut r = report_with(2, 1.0, 0.5);
        r.backend = BackendKind::Hbm2;
        let line = r.history_line();
        assert!(line.contains("\"BiModal@hbm2\""), "{line}");
        // The default-backend key must NOT appear: substrate trendlines
        // stay separate.
        assert!(!line.contains("\"BiModal\":"), "{line}");
        let text = format!("{line}\n{line}\n");
        let v = check_history(&text, 5, 25.0).expect("parses");
        assert!(v.passed());
    }
}
