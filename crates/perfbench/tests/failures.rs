//! Failed scheme runs are counted against the runs attempted, and a set
//! with failures still completes with every metric reported.

use std::path::PathBuf;

use bimodal_perfbench::catalog::{per_layer, workload, Workload, END_TO_END, SCHEMES};
use bimodal_perfbench::measure::{end_to_end, per_layer_metrics, Options};

fn options(exe: PathBuf) -> Options {
    Options {
        exe,
        seed: 7,
        seconds: 0.0,
        trace_out: None,
    }
}

/// A workload no run of which can succeed: zero accesses per core is a
/// `SimError::InvalidRun`.
fn invalid() -> Workload {
    Workload {
        accesses_per_core: 0,
        ..workload("bimodal-q1").expect("known").clone()
    }
}

#[test]
fn invalid_runs_are_counted_as_failed_and_the_set_completes() {
    let opts = options(PathBuf::from(env!("CARGO_BIN_EXE_perfbench")));
    let e2e = end_to_end(&invalid(), &opts);
    // One warm-up rep and the minimum of three timed reps, one scheme.
    assert_eq!((e2e.attempted, e2e.failed), (4, 4));
    assert!(!e2e.correct());
    assert!(
        e2e.errors.iter().all(|e| e.contains("invalid run")),
        "{:?}",
        e2e.errors
    );
    let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.name));

    let layers = per_layer_metrics(&invalid(), &opts);
    // Warm-up, two observer on/off pairs, and a traced rep covering all
    // eight schemes.
    assert_eq!(layers.attempted, 1 + 4 + SCHEMES.len() as u64);
    assert_eq!(layers.failed, layers.attempted);
    assert_eq!(layers.metrics.len(), per_layer().len());

    let line = e2e.result_line();
    assert_eq!(line.get("correct"), Some(&bimodal_obs::Json::Bool(false)));
}

#[test]
fn a_worker_that_exits_without_a_report_fails_its_runs() {
    let all = workload("all-q1-pcm-mlp4").expect("known");
    let e2e = end_to_end(all, &options(PathBuf::from("false")));
    let per_rep = all.schemes.len() as u64;
    assert_eq!((e2e.attempted, e2e.failed), (4 * per_rep, 4 * per_rep));
    assert!(
        e2e.errors.iter().all(|e| e.contains("worker exited")),
        "{:?}",
        e2e.errors
    );
}
