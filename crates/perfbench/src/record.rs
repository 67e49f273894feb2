//! `perf.json`: the record of a full set of runs, and the comparison of
//! two records under the benchmark's bounds.

use bimodal_obs::Json;

use crate::catalog::{per_layer, Better, EndToEnd, END_TO_END};
use crate::measure::Outcome;
use crate::stats::Summary;

/// Schema tag of `perf.json`.
pub const SCHEMA: &str = "bimodal-perfbench-v1";

/// The `perf.json` document for one set: per workload, its end-to-end
/// outcome and its per-layer outcome.
#[must_use]
pub fn to_json(seed: u64, quick: bool, sets: &[(Outcome, Outcome)]) -> Json {
    let workloads = sets
        .iter()
        .map(|(e2e, layers)| {
            let mut ends = Json::object();
            for m in &e2e.metrics {
                let s = &m.summary;
                let mut o = Json::object();
                o.set("unit", m.unit)
                    .set("median", s.median)
                    .set("min", s.min)
                    .set("q1", s.q1)
                    .set("q3", s.q3)
                    .set("max", s.max)
                    .set("n", s.samples.len())
                    .set(
                        "samples",
                        Json::Arr(s.samples.iter().map(|&x| Json::from(x)).collect()),
                    );
                ends.set(&m.name, o);
            }
            let mut per = Json::object();
            for m in &layers.metrics {
                let mut o = Json::object();
                o.set("unit", m.unit).set("value", m.summary.median);
                per.set(&m.name, o);
            }
            let mut hashes = Json::object();
            for (k, h) in e2e.hashes.iter().chain(&layers.hashes) {
                hashes.set(k, h.as_str());
            }
            let mut o = Json::object();
            o.set("name", e2e.workload.as_str())
                .set("attempted", e2e.attempted + layers.attempted)
                .set("failed", e2e.failed + layers.failed)
                .set(
                    "errors",
                    Json::Arr(
                        e2e.errors
                            .iter()
                            .chain(&layers.errors)
                            .map(|e| Json::from(e.as_str()))
                            .collect(),
                    ),
                )
                .set("hashes", hashes)
                .set("end_to_end", ends)
                .set("per_layer", per);
            o
        })
        .collect();
    let mut j = Json::object();
    j.set("schema", SCHEMA)
        .set("seed", seed)
        .set("quick", quick)
        .set("workloads", Json::Arr(workloads));
    j
}

/// How one (metric, workload) pair moved from a parent record to a
/// change's. Ordered by severity: a workload's row shows its most severe
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the bound.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// The run-to-run spread exceeds the bound, so a move within it
    /// cannot be told from noise.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    /// Lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges one metric: `a` is the parent's samples, `b` the change's.
///
/// Where either side's quartile spread exceeds the bound, the pair is
/// unresolved unless every run of the change reads better than every run
/// of the parent.
#[must_use]
pub fn judge(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse = |x: f64, y: f64| match m.better {
        Better::Higher => y < x,
        Better::Lower => y > x,
    };
    if a.spread().max(b.spread()) > m.bound {
        let all_better = a
            .samples
            .iter()
            .all(|&x| b.samples.iter().all(|&y| worse(y, x)));
        return if all_better && !b.samples.is_empty() {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE);
    let worsened = match m.better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    if worsened > m.bound {
        Verdict::Regressed
    } else if worsened < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two `perf.json` records, one row per workload. Returns the
/// printable table and whether anything regressed: a metric past its
/// bound, more failed runs, or a workload missing from the change. A row
/// also names every report hash and deterministic per-layer count that
/// differs, which a speed-only change must leave identical.
///
/// # Errors
///
/// When either document is not a `perf.json` record, or the two were
/// made with different seeds or one with `--quick` and one without.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (label, doc) in [("first", a), ("second", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("the {label} file is not a {SCHEMA} record"));
        }
    }
    for key in ["seed", "quick"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the records differ in {key:?}; compare like with like"
            ));
        }
    }
    let mut out = String::new();
    let mut regressed = false;
    for wa in workloads(a) {
        let Some(wb) = workloads(b).iter().find(|w| name(w) == name(wa)) else {
            out.push_str(&format!(
                "{:<22} regressed  missing from the second record\n",
                name(wa)
            ));
            regressed = true;
            continue;
        };
        let mut cells = Vec::new();
        let mut row = Verdict::Unchanged;
        for m in &END_TO_END {
            let samples = |w: &Json| {
                let s: Vec<f64> = w
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|x| x.get("samples"))
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                Summary::of(&s)
            };
            let (sa, sb) = (samples(wa), samples(wb));
            let v = judge(m, &sa, &sb);
            row = row.max(v);
            cells.push(format!(
                "{} {:.6}->{:.6} ({:+.2}%, spread {:.1}%/{:.1}%, bound {:.0}%) {}",
                m.name,
                sa.median,
                sb.median,
                (sb.median / sa.median - 1.0) * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                m.bound * 100.0,
                v.name()
            ));
        }
        let frac = |w: &Json| {
            let n = |k| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        if frac(wb) > frac(wa) {
            row = Verdict::Regressed;
            cells.push(format!(
                "failed fraction {:.4}->{:.4} regressed",
                frac(wa),
                frac(wb)
            ));
        }
        let changed = model_changes(wa, wb);
        if !changed.is_empty() {
            cells.push(format!("model output changed: {}", changed.join(", ")));
        }
        regressed |= row == Verdict::Regressed;
        out.push_str(&format!(
            "{:<22} {:<10} {}\n",
            name(wa),
            row.name(),
            cells.join("; ")
        ));
    }
    Ok((out, regressed))
}

/// The report hashes (by run key) and deterministic per-layer counts (by
/// metric name) that differ between two records of one workload.
fn model_changes(wa: &Json, wb: &Json) -> Vec<String> {
    let keys = |w: &Json| match w.get("hashes") {
        Some(Json::Obj(h)) => h.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    let hash = |w: &Json, k: &str| {
        w.get("hashes")
            .and_then(|h| h.get(k))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    let mut runs: Vec<String> = keys(wa);
    runs.extend(keys(wb));
    runs.sort();
    runs.dedup();
    let mut changed: Vec<String> = runs
        .into_iter()
        .filter(|k| hash(wa, k) != hash(wb, k))
        .map(|k| format!("hash {k}"))
        .collect();
    let value = |w: &Json, name: &str| {
        w.get("per_layer")
            .and_then(|p| p.get(name))
            .and_then(|x| x.get("value"))
            .and_then(Json::as_f64)
            .map(f64::to_bits)
    };
    changed.extend(
        per_layer()
            .into_iter()
            .filter(|l| l.deterministic && value(wa, &l.name) != value(wb, &l.name))
            .map(|l| l.name),
    );
    changed
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn name(w: &Json) -> &str {
    w.get("name").and_then(Json::as_str).unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> EndToEnd {
        END_TO_END[0]
    }

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        let a = Summary::of(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let same = Summary::of(&[100.2, 100.9, 99.1, 100.0, 100.4]);
        let slower = Summary::of(&[80.0, 81.0, 79.0, 80.0, 80.5]);
        let faster = Summary::of(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        assert_eq!(judge(&rate(), &a, &same), Verdict::Unchanged);
        assert_eq!(judge(&rate(), &a, &slower), Verdict::Regressed);
        assert_eq!(judge(&rate(), &a, &faster), Verdict::Improved);
        // For a lower-is-better metric the same numbers flip.
        let setup = END_TO_END[1];
        assert_eq!(
            judge(&setup, &a, &Summary::of(&[130.0; 5])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&setup, &a, &Summary::of(&[70.0; 5])),
            Verdict::Improved
        );
    }

    /// A one-workload record whose run `BiModal@100` has report hash `hash`.
    fn record(seed: u64, quick: bool, hash: &str) -> Json {
        let e2e = Outcome {
            workload: "w".into(),
            attempted: 5,
            hashes: [("BiModal@100".to_owned(), hash.to_owned())].into(),
            metrics: END_TO_END
                .iter()
                .map(|m| crate::measure::Metric {
                    name: m.name.to_owned(),
                    unit: m.unit,
                    summary: Summary::of(&[1.0, 1.0, 1.0]),
                })
                .collect(),
            ..Outcome::default()
        };
        to_json(seed, quick, &[(e2e, Outcome::default())])
    }

    #[test]
    fn compare_refuses_records_of_other_seeds_or_modes() {
        let a = record(1, false, "aa");
        assert!(compare(&a, &record(2, false, "aa")).is_err());
        assert!(compare(&a, &record(1, true, "aa")).is_err());
        let (table, regressed) = compare(&a, &a).expect("same settings");
        assert!(
            !regressed && !table.contains("model output changed"),
            "{table}"
        );
    }

    #[test]
    fn compare_names_report_hashes_that_differ() {
        let (table, regressed) =
            compare(&record(1, false, "aa"), &record(1, false, "bb")).expect("comparable");
        assert!(!regressed, "a model change alone is not a regression");
        assert!(
            table.contains("model output changed: hash BiModal@100"),
            "{table}"
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = Summary::of(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        let slightly_worse = Summary::of(&[58.0, 98.0, 138.0, 78.0, 118.0]);
        assert_eq!(judge(&rate(), &noisy, &slightly_worse), Verdict::Unresolved);
        let all_better = Summary::of(&[150.0, 160.0, 170.0, 155.0, 165.0]);
        assert_eq!(judge(&rate(), &noisy, &all_better), Verdict::Improved);
    }
}
