//! Smoke tests for the `bimodal` command-line binary.

use std::process::Command;

fn bimodal() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bimodal"))
}

#[test]
fn list_names_mixes_and_programs() {
    let out = bimodal().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Q1..Q24"));
    assert!(text.contains("mcf"));
    assert!(text.contains("bimodal"));
}

#[test]
fn run_reports_statistics() {
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "2000",
            "--cache-mb",
            "4",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hit rate"));
    assert!(text.contains("avg access latency"));
}

#[test]
fn unknown_scheme_fails_with_usage() {
    let out = bimodal()
        .args(["run", "--mix", "Q2", "--scheme", "nonsense"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheme"));
    assert!(err.contains("usage:"));
}

#[test]
fn unknown_mix_fails() {
    let out = bimodal()
        .args(["run", "--mix", "Z9", "--scheme", "bimodal"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mix"));
}

#[test]
fn record_then_reload_trace() {
    let path = std::env::temp_dir().join(format!("bimodal-cli-{}.bmt", std::process::id()));
    let out = bimodal()
        .args([
            "record",
            "--program",
            "gcc",
            "--out",
            path.to_str().expect("utf8"),
            "--n",
            "1000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let accesses: Vec<_> = bimodal::workloads::read_trace(&path)
        .expect("opens")
        .collect::<Result<Vec<_>, _>>()
        .expect("parses");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(accesses.len(), 1000);
}

#[test]
fn no_arguments_prints_usage() {
    let out = bimodal().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn equals_flag_syntax_is_accepted() {
    let out = bimodal()
        .args([
            "run",
            "--mix=Q2",
            "--scheme=bimodal",
            "--accesses=1000",
            "--cache-mb=4",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("hit rate"));
}

#[test]
fn duplicate_flags_are_rejected() {
    let out = bimodal()
        .args(["run", "--mix", "Q2", "--mix", "Q3", "--scheme", "bimodal"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate flag --mix"));
}

#[test]
fn unknown_flags_are_rejected() {
    let out = bimodal()
        .args(["run", "--mix", "Q2", "--scheme", "bimodal", "--bogus", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));
}

#[test]
fn unknown_backend_fails_listing_the_valid_names() {
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "100",
            "--backend",
            "bogus",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--backend bogus must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend \"bogus\""), "stderr: {err}");
    for name in ["paper2014", "hbm2", "ddr5", "pcm-far", "tdram"] {
        assert!(err.contains(name), "error must list {name}: {err}");
    }
}

#[test]
fn backend_rides_through_run_and_marks_the_report() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for (backend, expect_key) in [("paper2014", false), ("hbm2", true)] {
        let path = dir.join(format!("bimodal-bkend-{backend}-{pid}.json"));
        let out = bimodal()
            .args([
                "run",
                "--mix",
                "Q2",
                "--scheme",
                "bimodal",
                "--accesses",
                "1000",
                "--cache-mb",
                "4",
                "--backend",
                backend,
                "--json",
                path.to_str().expect("utf8"),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--backend {backend} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let j = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
        std::fs::remove_file(&path).expect("cleanup");
        // The default backend keeps the pre-refactor report shape (no
        // `backend` key — golden byte-identity depends on it); any other
        // substrate stamps its name into the report.
        assert_eq!(
            j.get("backend").and_then(Json::as_str),
            expect_key.then_some(backend),
            "--backend {backend}"
        );
    }
}

#[test]
fn resume_under_a_different_backend_is_rejected() {
    let dir = std::env::temp_dir().join(format!("bimodal-cli-xbkend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("run.ckpt");
    let base = |json: &str| {
        vec![
            "run".to_owned(),
            "--mix".to_owned(),
            "Q1".to_owned(),
            "--scheme".to_owned(),
            "bimodal".to_owned(),
            "--accesses".to_owned(),
            "20000".to_owned(),
            "--json".to_owned(),
            dir.join(json).display().to_string(),
        ]
    };
    let out = bimodal()
        .args(base("a.json"))
        .args(["--checkpoint", &ck.display().to_string()])
        .args(["--checkpoint-every", "8000"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "checkpointed run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ck.exists(), "a snapshot was written");
    let out = bimodal()
        .args(base("b.json"))
        .args(["--resume", &ck.display().to_string()])
        .args(["--backend", "hbm2"])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "resuming a paper2014 snapshot under hbm2 must fail"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("checkpoint does not match this run"),
        "stderr: {err}"
    );
    assert!(err.contains("paper2014") && err.contains("hbm2"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_knob_flags_are_accepted() {
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "1000",
            "--cache-mb",
            "4",
            "--warmup",
            "100",
            "--mlp",
            "4",
            "--prefetch",
            "2:bypass",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn run_json_export_has_expected_shape() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let json_path = dir.join(format!("bimodal-cli-{}.json", std::process::id()));
    let trace_path = dir.join(format!("bimodal-cli-{}.trace.json", std::process::id()));
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "2000",
            "--cache-mb",
            "4",
            "--json",
            json_path.to_str().expect("utf8"),
            "--trace-out",
            trace_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The report: all RunReport sections plus the observability layer.
    let text = std::fs::read_to_string(&json_path).expect("json written");
    let j = Json::parse(&text).expect("valid JSON");
    for key in [
        "mix",
        "scheme",
        "accesses_per_core",
        "core_cycles",
        "avg_latency",
        "stats",
        "cache_dram",
        "offchip_dram",
        "obs",
    ] {
        assert!(j.get(key).is_some(), "missing key {key}");
    }
    let stats = j.get("stats").expect("stats");
    assert!(stats.get("hit_rate").and_then(Json::as_f64).is_some());
    let read = j
        .get("obs")
        .and_then(|o| o.get("latency"))
        .and_then(|l| l.get("read"))
        .expect("read latency summary");
    for key in ["count", "mean", "p50", "p95", "p99", "max"] {
        assert!(
            read.get(key).and_then(Json::as_f64).is_some(),
            "missing {key}"
        );
    }
    assert!(read.get("count").and_then(Json::as_f64).expect("count") > 0.0);
    let epochs = j
        .get("obs")
        .and_then(|o| o.get("epochs"))
        .and_then(Json::as_arr)
        .expect("epoch series");
    assert!(!epochs.is_empty());
    assert!(epochs[0].get("hit_rate").is_some());
    let wall = j.get("obs").and_then(|o| o.get("wall")).expect("wall");
    assert!(wall.get("sim_cycles_per_second").is_some());
    // The bandwidth-attribution section rides along on every report.
    let bw = j.get("bandwidth").expect("bandwidth section");
    for key in ["elapsed_cycles", "cache", "offchip", "deferred_queue"] {
        assert!(bw.get(key).is_some(), "missing bandwidth key {key}");
    }
    assert!(bw.get("cache").and_then(|c| c.get("by_class")).is_some());

    // The trace: Chrome trace-event object format.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let t = Json::parse(&trace_text).expect("valid trace JSON");
    let events = t.get("traceEvents").and_then(Json::as_arr).expect("events");
    assert!(!events.is_empty());
    for key in ["name", "ph", "ts", "pid", "tid"] {
        assert!(events[0].get(key).is_some(), "missing trace key {key}");
    }

    std::fs::remove_file(&json_path).expect("cleanup");
    std::fs::remove_file(&trace_path).expect("cleanup");
}

#[test]
fn compare_json_export_covers_all_schemes() {
    use bimodal::obs::Json;
    let path = std::env::temp_dir().join(format!("bimodal-cmp-{}.json", std::process::id()));
    let out = bimodal()
        .args([
            "compare",
            "--mix",
            "Q2",
            "--accesses",
            "500",
            "--cache-mb",
            "4",
            "--json",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let j = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
    let reports = j.get("reports").and_then(Json::as_arr).expect("reports");
    assert!(reports.len() >= 5, "one report per scheme");
    assert!(reports[0].get("stats").is_some());
    std::fs::remove_file(&path).expect("cleanup");
}

/// Runs `command` twice — `--jobs 1` and `--jobs 4` — writing JSON to a
/// temp file each time, and asserts the two documents are byte-identical.
fn assert_jobs_byte_identical(tag: &str, args: &[&str]) {
    let dir = std::env::temp_dir();
    let mut docs = Vec::new();
    for jobs in ["1", "4"] {
        let path = dir.join(format!("bimodal-{tag}-j{jobs}-{}.json", std::process::id()));
        let out = bimodal()
            .args(args)
            .args(["--jobs", jobs, "--json", path.to_str().expect("utf8")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--jobs {jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        docs.push(std::fs::read(&path).expect("json written"));
        std::fs::remove_file(&path).expect("cleanup");
    }
    assert_eq!(
        docs[0], docs[1],
        "{tag}: --jobs 4 JSON differs from --jobs 1"
    );
}

#[test]
fn compare_is_byte_identical_across_jobs() {
    assert_jobs_byte_identical(
        "cmp",
        &[
            "compare",
            "--mix",
            "Q2",
            "--accesses",
            "400",
            "--cache-mb",
            "4",
        ],
    );
}

#[test]
fn sweep_is_byte_identical_across_jobs() {
    assert_jobs_byte_identical("sweep", &["sweep", "--mix", "Q2", "--accesses", "20000"]);
}

/// Bad flag values end in a typed error that names the flag, never in
/// a panic: each case exits non-zero, mentions its flag on stderr and
/// leaves no panic message behind.
#[test]
fn bad_flag_values_fail_naming_the_flag() {
    for (command, flag) in [
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --shards 2",
            "--shards",
        ),
        ("compare --mix Q2 --accesses 100 --shards 2", "--shards"),
        ("bench --quick --shards 2", "--shards"),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --cache-mb 0",
            "--cache-mb",
        ),
        ("compare --mix Q2 --accesses 100 --cache-mb 0", "--cache-mb"),
        ("sweep --mix Q2 --accesses 100 --cache-mb 0", "--cache-mb"),
        (
            "antt --mix Q2 --scheme alloy --accesses 100 --cache-mb 0",
            "--cache-mb",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --cache-mb 3",
            "--cache-mb",
        ),
        (
            "run --mix Q2 --scheme fixed512 --accesses 100 --cache-mb 3",
            "--cache-mb",
        ),
        ("compare --mix Q2 --accesses 100 --cache-mb 3", "--cache-mb"),
        (
            "latency --mix Q2 --scheme all --accesses 100 --cache-mb 3",
            "--cache-mb",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --prefetch 0",
            "--prefetch",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --prefetch 0:bypass",
            "--prefetch",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --heartbeat inf",
            "--heartbeat",
        ),
        (
            "compare --mix Q2 --accesses 100 --heartbeat 1e30",
            "--heartbeat",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --heartbeat nan",
            "--heartbeat",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --heartbeat -1",
            "--heartbeat",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --mlp 65",
            "--mlp",
        ),
        ("compare --mix Q2 --accesses 100 --mlp 65", "--mlp"),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --epoch 0",
            "--epoch",
        ),
        (
            "run --mix Q2 --scheme bimodal --accesses 100 --anatomy --epoch 0",
            "--epoch",
        ),
    ] {
        let out = bimodal()
            .args(command.split_whitespace())
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{command}: should be rejected");
        // The usage text after the error names every flag, so only the
        // `error:` line counts.
        let error_line = err.lines().find(|l| l.starts_with("error:")).unwrap_or("");
        assert!(
            error_line.contains(flag),
            "{command}: error line does not name {flag}: {err}"
        );
        assert!(!err.contains("panicked"), "{command}: panicked: {err}");
    }
}

#[test]
fn inject_is_byte_identical_across_jobs() {
    assert_jobs_byte_identical(
        "inj",
        &[
            "inject",
            "--mix",
            "Q2",
            "--accesses",
            "1500",
            "--metadata-rate",
            "0.001",
            "--seeds",
            "3",
        ],
    );
}

#[test]
fn sample_every_requires_trace_out() {
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "500",
            "--sample-every",
            "4",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sample-every"));
}

#[test]
fn sample_every_thins_the_event_trace() {
    let dir = std::env::temp_dir();
    let mut counts = Vec::new();
    for every in ["1", "8"] {
        let path = dir.join(format!("bimodal-se{every}-{}.json", std::process::id()));
        let out = bimodal()
            .args([
                "run",
                "--mix",
                "Q2",
                "--scheme",
                "bimodal",
                "--accesses",
                "2000",
                "--cache-mb",
                "4",
                "--trace-out",
                path.to_str().expect("utf8"),
                "--sample-every",
                every,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let t = bimodal::obs::Json::parse(&std::fs::read_to_string(&path).expect("written"))
            .expect("valid trace JSON");
        counts.push(
            t.get("traceEvents")
                .and_then(bimodal::obs::Json::as_arr)
                .expect("events")
                .len(),
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
    assert!(
        counts[1] * 4 < counts[0],
        "sampling every 8th access should thin the trace well over 4x \
         (got {} vs {})",
        counts[1],
        counts[0]
    );
}

#[test]
fn bandwidth_covers_all_schemes_and_classes_sum_to_busy() {
    use bimodal::obs::Json;
    let path = std::env::temp_dir().join(format!("bimodal-bw-{}.json", std::process::id()));
    let out = bimodal()
        .args([
            "bandwidth",
            "--mix",
            "Q2",
            "--accesses",
            "800",
            "--cache-mb",
            "4",
            "--json",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("class sums verified"));
    let j = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(j.get("command").and_then(Json::as_str), Some("bandwidth"));
    let reports = j.get("reports").and_then(Json::as_arr).expect("reports");
    assert!(reports.len() >= 5, "one report per organization");
    for r in reports {
        let scheme = r.get("scheme").and_then(Json::as_str).expect("scheme");
        for module in ["cache", "offchip"] {
            let s = r
                .get("bandwidth")
                .and_then(|b| b.get(module))
                .unwrap_or_else(|| panic!("{scheme}: missing {module} summary"));
            let channels = s.get("channels").and_then(Json::as_arr).expect("channels");
            assert!(!channels.is_empty());
            for (i, ch) in channels.iter().enumerate() {
                let busy = ch
                    .get("busy_cycles")
                    .and_then(Json::as_f64)
                    .expect("busy_cycles");
                let Some(Json::Obj(by_class)) = ch.get("by_class") else {
                    panic!("{scheme} {module} ch{i}: by_class must be an object");
                };
                let sum: f64 = by_class
                    .iter()
                    .filter_map(|(_, v)| v.get("cycles").and_then(Json::as_f64))
                    .sum();
                assert_eq!(
                    sum, busy,
                    "{scheme} {module} ch{i}: class cycles must sum to busy"
                );
            }
        }
        let cache_busy = r
            .get("bandwidth")
            .and_then(|b| b.get("cache"))
            .and_then(|c| c.get("busy_cycles"))
            .and_then(Json::as_f64)
            .expect("cache busy");
        assert!(cache_busy > 0.0, "{scheme}: cache bus never moved");
    }
}

#[test]
fn bandwidth_is_byte_identical_across_jobs() {
    assert_jobs_byte_identical(
        "bw",
        &[
            "bandwidth",
            "--mix",
            "Q2",
            "--accesses",
            "400",
            "--cache-mb",
            "4",
        ],
    );
}

#[test]
fn diff_of_identical_runs_reports_zero_drift() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let run = |accesses: &str, path: &std::path::Path| {
        let out = bimodal()
            .args([
                "run",
                "--mix",
                "Q2",
                "--scheme",
                "bimodal",
                "--accesses",
                accesses,
                "--cache-mb",
                "4",
                "--seed",
                "11",
                "--json",
                path.to_str().expect("utf8"),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let a = dir.join(format!("bimodal-diff-a-{pid}.json"));
    let b = dir.join(format!("bimodal-diff-b-{pid}.json"));
    let c = dir.join(format!("bimodal-diff-c-{pid}.json"));
    run("600", &a);
    run("600", &b);
    run("1800", &c);

    // Same seed, same config: every metric matches exactly.
    let same = bimodal()
        .args(["diff", a.to_str().expect("utf8"), b.to_str().expect("utf8")])
        .output()
        .expect("binary runs");
    assert!(
        same.status.success(),
        "identical runs must not drift: {}{}",
        String::from_utf8_lossy(&same.stdout),
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("no drift"));

    // 3x the accesses: mean core cycles drifts far past any threshold.
    let drifted = bimodal()
        .args([
            "diff",
            a.to_str().expect("utf8"),
            c.to_str().expect("utf8"),
            "--threshold",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        !drifted.status.success(),
        "a 3x-longer run must trip the drift gate"
    );
    assert!(String::from_utf8_lossy(&drifted.stdout).contains("drift"));

    for p in [&a, &b, &c] {
        std::fs::remove_file(p).expect("cleanup");
    }
}

#[test]
fn diff_needs_two_report_files() {
    let out = bimodal()
        .args(["diff", "only-one.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("two report files"));
}

#[test]
fn stream_requires_trace_out() {
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "500",
            "--stream",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-out"));
}

#[test]
fn streamed_trace_matches_the_ring_export() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut counts = Vec::new();
    let mut streamed_doc = None;
    for mode in ["ring", "stream"] {
        let path = dir.join(format!("bimodal-{mode}-{pid}.trace.json"));
        let mut args = vec![
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "1500",
            "--cache-mb",
            "4",
        ];
        let p = path.to_str().expect("utf8").to_owned();
        args.extend(["--trace-out", &p]);
        if mode == "stream" {
            args.push("--stream");
        }
        let out = bimodal().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{mode} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let t = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
        std::fs::remove_file(&path).expect("cleanup");
        counts.push(
            t.get("traceEvents")
                .and_then(Json::as_arr)
                .expect("events")
                .len(),
        );
        if mode == "stream" {
            streamed_doc = Some(t);
        }
    }
    assert_eq!(
        counts[0], counts[1],
        "streaming must produce the same events as the ring export"
    );
    let t = streamed_doc.expect("streamed");
    assert_eq!(
        t.get("otherData")
            .and_then(|o| o.get("streamed"))
            .and_then(Json::as_f64),
        None,
        "streamed flag is a bool, not a number"
    );
    assert!(matches!(
        t.get("otherData").and_then(|o| o.get("streamed")),
        Some(Json::Bool(true))
    ));
    // Streamed traces carry the per-class counter track too.
    let events = t.get("traceEvents").and_then(Json::as_arr).expect("events");
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
}

#[test]
fn bench_quick_writes_schema_json_and_appends_history() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("bimodal-bench-{pid}.json"));
    let hist = dir.join(format!("bimodal-bench-hist-{pid}.jsonl"));
    let out = bimodal()
        .args([
            "bench",
            "--quick",
            "--out",
            path.to_str().expect("utf8"),
            "--history",
            hist.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let j = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("bimodal-bench-v1")
    );
    let workloads = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 3);
    let schemes = j.get("schemes").and_then(Json::as_arr).expect("schemes");
    assert!(schemes.len() >= 8, "one rate per scheme");
    std::fs::remove_file(&path).expect("cleanup");

    // The trendline history got one compact JSONL point appended...
    let text = std::fs::read_to_string(&hist).expect("history written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one run appends one point");
    let point = Json::parse(lines[0]).expect("history line is valid JSON");
    assert_eq!(
        point.get("schema").and_then(Json::as_str),
        Some("bimodal-bench-history-v1")
    );
    assert!(point
        .get("schemes")
        .and_then(|s| s.get("BiModal"))
        .and_then(Json::as_f64)
        .is_some_and(|r| r > 0.0));

    // ...and a single point passes the gate vacuously (nothing to
    // compare against), so the first CI run never trips it.
    let check = bimodal()
        .args([
            "bench",
            "--check-history",
            "--history",
            hist.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&hist).expect("cleanup");
    assert!(
        check.status.success(),
        "single-point history must pass: {}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
}

#[test]
fn bench_check_history_gates_on_trendline() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let point = |rate: f64| {
        format!(
            "{{\"schema\":\"bimodal-bench-history-v1\",\"date\":\"2026-01-01\",\
             \"quick\":true,\"jobs\":1,\"host_parallelism\":1,\
             \"schemes\":{{\"bimodal\":{rate:.1}}}}}\n"
        )
    };

    // Flat history: the newest point sits on the trailing median.
    let flat = dir.join(format!("bimodal-hist-flat-{pid}.jsonl"));
    std::fs::write(&flat, [point(100.0), point(101.0), point(100.0)].concat()).expect("write");
    let ok = bimodal()
        .args([
            "bench",
            "--check-history",
            "--history",
            flat.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&flat).expect("cleanup");
    assert!(
        ok.status.success(),
        "flat history must pass: {}{}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("trendline gate passed"));

    // Synthetic regression: the newest point is 50% below the median,
    // far past the default 25% budget, so the gate must exit nonzero.
    let bad = dir.join(format!("bimodal-hist-bad-{pid}.jsonl"));
    std::fs::write(
        &bad,
        [point(100.0), point(101.0), point(100.0), point(50.0)].concat(),
    )
    .expect("write");
    let out = bimodal()
        .args([
            "bench",
            "--check-history",
            "--history",
            bad.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&bad).expect("cleanup");
    assert!(
        !out.status.success(),
        "a 50% drop must trip the trendline gate"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bench trendline regression"));
}

#[test]
fn check_history_requires_a_history_file() {
    let out = bimodal()
        .args(["bench", "--check-history"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--history"));
}

#[test]
fn run_metrics_export_json_and_prometheus() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let base = [
        "run",
        "--mix",
        "Q1",
        "--scheme",
        "bimodal",
        "--accesses",
        "5000",
        "--cache-mb",
        "4",
        "--seed",
        "7",
        "--profile",
    ];

    // JSON snapshot (the default --metrics-format).
    let jpath = dir.join(format!("bimodal-metrics-{pid}.json"));
    let out = bimodal()
        .args(base)
        .args(["--metrics-out", jpath.to_str().expect("utf8")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let j = Json::parse(&std::fs::read_to_string(&jpath).expect("written")).expect("valid");
    std::fs::remove_file(&jpath).expect("cleanup");
    assert_eq!(
        j.get("schema").and_then(Json::as_str),
        Some("bimodal-metrics-v1")
    );
    let metrics = j.get("metrics").expect("metrics object");
    for key in [
        "run.avg_latency",
        "scheme.accesses",
        "scheme.hits",
        "scheme.hit_rate",
        "dram.cache.activates",
        "dram.offchip.reads",
        "bandwidth.elapsed_cycles",
        "span.scheme.access.calls",
    ] {
        assert!(metrics.get(key).is_some(), "missing metric {key}");
    }
    // Log2 latency histograms export as summary objects.
    let read = metrics.get("latency.read").expect("latency.read");
    for key in ["count", "mean", "p50", "p95", "p99", "max"] {
        assert!(read.get(key).is_some(), "latency.read missing {key}");
    }

    // Prometheus text exposition.
    let ppath = dir.join(format!("bimodal-metrics-{pid}.prom"));
    let out = bimodal()
        .args(base)
        .args([
            "--metrics-out",
            ppath.to_str().expect("utf8"),
            "--metrics-format",
            "prom",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&ppath).expect("written");
    std::fs::remove_file(&ppath).expect("cleanup");
    assert!(prom.contains("# TYPE bimodal_scheme_hits counter"));
    assert!(prom.contains("# TYPE bimodal_scheme_hit_rate gauge"));
    assert!(prom.contains("# TYPE bimodal_latency_read summary"));
    assert!(prom.contains("bimodal_latency_read{quantile=\"0.95\"}"));

    // --metrics-format without a destination is a flag error.
    let out = bimodal()
        .args(base)
        .args(["--metrics-format", "prom"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics-out"));
}

/// The canonical run's metric names, pinned against
/// `tests/golden/metrics_keys.txt`. Renaming or dropping a metric is a
/// contract change: regenerate the golden file deliberately with
/// `bimodal run --mix Q1 --scheme bimodal --accesses 5000 --cache-mb 4
/// --seed 7 --profile --anatomy --metrics-out -` and update it in the
/// same commit.
#[test]
fn metrics_keys_match_golden_snapshot() {
    use bimodal::obs::Json;
    let path = std::env::temp_dir().join(format!("bimodal-mkeys-{}.json", std::process::id()));
    let out = bimodal()
        .args([
            "run",
            "--mix",
            "Q1",
            "--scheme",
            "bimodal",
            "--accesses",
            "5000",
            "--cache-mb",
            "4",
            "--seed",
            "7",
            "--profile",
            "--anatomy",
            "--metrics-out",
            path.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let j = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid");
    std::fs::remove_file(&path).expect("cleanup");
    let Some(Json::Obj(pairs)) = j.get("metrics") else {
        panic!("metrics must be an object");
    };
    let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let golden: Vec<&str> = include_str!("golden/metrics_keys.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(
        got, golden,
        "metric names drifted from tests/golden/metrics_keys.txt; \
         renames are deliberate events — update the golden file in the \
         same commit if this change is intended"
    );
}

/// Drops the volatile parts of a run report: the `profile` section
/// (whose content legitimately differs when profiling is on) and the
/// host wall-clock summary (nondeterministic between any two runs).
fn without_volatile(j: &bimodal::obs::Json) -> bimodal::obs::Json {
    use bimodal::obs::Json;
    let Json::Obj(pairs) = j else {
        panic!("report must be an object");
    };
    Json::Obj(
        pairs
            .iter()
            .filter(|(k, _)| k != "profile")
            .map(|(k, v)| {
                if k == "obs" {
                    let Json::Obj(op) = v else {
                        panic!("obs must be an object");
                    };
                    let kept = op.iter().filter(|(ok, _)| ok != "wall").cloned().collect();
                    (k.clone(), Json::Obj(kept))
                } else {
                    (k.clone(), v.clone())
                }
            })
            .collect(),
    )
}

#[test]
fn profile_rides_along_without_perturbing_the_report() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut docs = Vec::new();
    for profiled in [false, true] {
        let path = dir.join(format!("bimodal-prof{}-{pid}.json", u8::from(profiled)));
        let mut args = vec![
            "run",
            "--mix",
            "Q1",
            "--scheme",
            "bimodal",
            "--accesses",
            "3000",
            "--cache-mb",
            "4",
            "--seed",
            "7",
        ];
        let p = path.to_str().expect("utf8").to_owned();
        args.extend(["--json", &p]);
        if profiled {
            args.push("--profile");
        }
        let out = bimodal().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "profiled={profiled} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        docs.push(Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid"));
        std::fs::remove_file(&path).expect("cleanup");
    }

    // The profile section reports its own state...
    let enabled = |d: &Json| {
        matches!(
            d.get("profile").and_then(|p| p.get("enabled")),
            Some(Json::Bool(true))
        )
    };
    assert!(!enabled(&docs[0]), "plain run must not profile");
    assert!(enabled(&docs[1]), "--profile must enable span collection");
    let spans = docs[1]
        .get("profile")
        .and_then(|p| p.get("spans"))
        .and_then(Json::as_arr)
        .expect("spans");
    assert!(!spans.is_empty(), "a profiled run records spans");
    assert!(spans.iter().any(|s| {
        s.get("name").and_then(Json::as_str) == Some("scheme.access")
            && s.get("calls").and_then(Json::as_f64).unwrap_or(0.0) > 0.0
    }));

    // ...and never perturbs the pre-existing report fields.
    assert_eq!(
        without_volatile(&docs[0]).to_pretty(),
        without_volatile(&docs[1]).to_pretty(),
        "--profile changed report fields outside the profile section"
    );
}

/// Walks every `"ph": "X"` span in a Chrome trace document and asserts
/// the spans on each (pid, tid) lane nest properly (child intervals sit
/// fully inside their parent), and every `"ph": "C"` counter sample
/// carries only non-negative series values.
fn assert_trace_is_valid(doc: &bimodal::obs::Json, tag: &str) {
    use bimodal::obs::Json;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    assert!(!events.is_empty(), "{tag}: empty trace");

    let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    let mut counters = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        let num = |key: &str| {
            e.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .unwrap_or_else(|| panic!("{tag}: {ph} event missing {key}"))
        };
        match ph {
            "C" => {
                counters += 1;
                let Some(Json::Obj(args)) = e.get("args") else {
                    panic!("{tag}: counter event without args object");
                };
                for (name, v) in args {
                    let v = v.as_f64().expect("counter series are numeric");
                    assert!(v >= 0.0, "{tag}: counter {name} went negative: {v}");
                }
            }
            "X" => {
                lanes
                    .entry((num("pid"), num("tid")))
                    .or_default()
                    .push((num("ts"), num("dur")));
            }
            _ => {}
        }
    }
    assert!(counters > 0, "{tag}: no counter samples");
    assert!(
        lanes.values().any(|spans| !spans.is_empty()),
        "{tag}: no span events"
    );

    for ((pid, tid), mut spans) in lanes {
        // Sort by start; ties open the longer span first so it becomes
        // the parent.
        spans.sort_by_key(|&(ts, dur)| (ts, std::cmp::Reverse(dur)));
        let mut open: Vec<u64> = Vec::new(); // stack of parent end times
        for (ts, dur) in spans {
            while open.last().is_some_and(|&end| end <= ts) {
                open.pop();
            }
            let end = ts + dur;
            if let Some(&parent_end) = open.last() {
                assert!(
                    end <= parent_end,
                    "{tag}: span [{ts}, {end}) on lane ({pid}, {tid}) \
                     straddles its parent's end {parent_end}"
                );
            }
            open.push(end);
        }
    }
}

#[test]
fn exported_traces_are_valid_in_ring_and_stream_modes() {
    use bimodal::obs::Json;
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    for mode in ["ring", "stream"] {
        let path = dir.join(format!("bimodal-valid-{mode}-{pid}.trace.json"));
        let mut args = vec![
            "run",
            "--mix",
            "Q2",
            "--scheme",
            "bimodal",
            "--accesses",
            "2000",
            "--cache-mb",
            "4",
            "--seed",
            "5",
        ];
        let p = path.to_str().expect("utf8").to_owned();
        args.extend(["--trace-out", &p]);
        if mode == "stream" {
            args.push("--stream");
        }
        let out = bimodal().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{mode} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc =
            Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid JSON");
        std::fs::remove_file(&path).expect("cleanup");
        assert_trace_is_valid(&doc, mode);
    }
}

#[test]
fn kill_mid_run_then_resume_is_byte_identical() {
    // The headline crash-safety contract, driven end to end through the
    // binary: SIGKILL a checkpointing run mid-flight, resume from its
    // snapshot, and the final JSON report matches an uninterrupted run
    // byte for byte (modulo wall-clock, which `diff --exact` ignores).
    let dir = std::env::temp_dir().join(format!("bimodal-cli-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("run.ckpt");
    let interrupted = dir.join("interrupted.json");
    let reference = dir.join("reference.json");
    let args = |json: &std::path::Path| {
        vec![
            "run".to_owned(),
            "--mix".to_owned(),
            "Q1".to_owned(),
            "--scheme".to_owned(),
            "bimodal".to_owned(),
            "--accesses".to_owned(),
            "120000".to_owned(),
            "--json".to_owned(),
            json.display().to_string(),
        ]
    };
    let out = bimodal()
        .args(args(&reference))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut victim = bimodal()
        .args(args(&interrupted))
        .args(["--checkpoint", &ck.display().to_string()])
        .args(["--checkpoint-every", "40000"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    // Wait for the first snapshot to land, then kill without warning.
    // (If the host is so fast the run finishes first, resume still has
    // a valid mid-run snapshot to start from — the assert holds either
    // way, just with less drama.)
    for _ in 0..600 {
        if ck.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(ck.exists(), "a snapshot was written before the kill");
    let _ = victim.kill();
    let _ = victim.wait();
    let out = bimodal()
        .args(args(&interrupted))
        .args(["--resume", &ck.display().to_string()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bimodal()
        .args([
            "diff",
            &reference.display().to_string(),
            &interrupted.display().to_string(),
            "--exact",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "resumed report drifted from the uninterrupted run:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins the checkpoint wire format: `tests/golden/ckpt_q1_alloy_1mb.bin`
/// was written by an earlier build, so this binary must resume it to the
/// uninterrupted report and must write the same bytes again. Regenerate
/// it only for a deliberate format change:
///
/// ```text
/// bimodal run --mix Q1 --scheme alloy --accesses 2000 --cache-mb 1 --seed 7 \
///     --json "$(mktemp)" --checkpoint tests/golden/ckpt_q1_alloy_1mb.bin \
///     --checkpoint-every 3000
/// rm tests/golden/ckpt_q1_alloy_1mb.bin.prev
/// ```
#[test]
fn golden_checkpoint_resumes_and_is_rewritten_byte_for_byte() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ckpt_q1_alloy_1mb.bin");
    let dir = std::env::temp_dir().join(format!("bimodal-cli-golden-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck = dir.join("run.ckpt");
    let reference = dir.join("reference.json");
    let resumed = dir.join("resumed.json");
    let args = |json: &std::path::Path| {
        vec![
            "run".to_owned(),
            "--mix".to_owned(),
            "Q1".to_owned(),
            "--scheme".to_owned(),
            "alloy".to_owned(),
            "--accesses".to_owned(),
            "2000".to_owned(),
            "--cache-mb".to_owned(),
            "1".to_owned(),
            "--seed".to_owned(),
            "7".to_owned(),
            "--json".to_owned(),
            json.display().to_string(),
        ]
    };
    let out = bimodal()
        .args(args(&reference))
        .args(["--checkpoint", &ck.display().to_string()])
        .args(["--checkpoint-every", "3000"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "checkpointed run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read(&ck).expect("checkpoint written");
    let golden = std::fs::read(&fixture).expect("fixture readable");
    let first_diff = written.iter().zip(&golden).position(|(a, b)| a != b);
    assert!(
        written == golden,
        "checkpoint bytes drifted from the fixture: {} vs {} bytes, first difference at {first_diff:?}",
        written.len(),
        golden.len()
    );
    let out = bimodal()
        .args(args(&resumed))
        .args(["--resume", &fixture.display().to_string()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "resume from the fixture failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bimodal()
        .args([
            "diff",
            &reference.display().to_string(),
            &resumed.display().to_string(),
            "--exact",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "report resumed from the fixture drifted from the uninterrupted run:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inject_pool_survives_a_panicking_unit() {
    // One wrecked unit must not sink the campaign: the pool retries it,
    // gives up, reports it under `failed`, finishes every other unit,
    // and exits nonzero with the partial results already written.
    let dir = std::env::temp_dir().join(format!("bimodal-cli-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("campaign.json");
    let manifest = dir.join("manifest");
    let inject_args = |json: &std::path::Path| {
        vec![
            "inject".to_owned(),
            "--mix".to_owned(),
            "Q1".to_owned(),
            "--scheme".to_owned(),
            "all".to_owned(),
            "--accesses".to_owned(),
            "1500".to_owned(),
            "--metadata-rate".to_owned(),
            "0.001".to_owned(),
            "--retries".to_owned(),
            "2".to_owned(),
            "--retry-backoff-ms".to_owned(),
            "0".to_owned(),
            "--json".to_owned(),
            json.display().to_string(),
            "--manifest".to_owned(),
            manifest.display().to_string(),
        ]
    };
    let out = bimodal()
        .args(inject_args(&json))
        .env("BIMODAL_TEST_PANIC_UNIT", "1")
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "a campaign with a failed unit must exit nonzero"
    );
    let doc = bimodal::obs::Json::parse(&std::fs::read_to_string(&json).expect("JSON written"))
        .expect("JSON parses");
    let bimodal::obs::Json::Arr(campaigns) = doc.get("campaigns").expect("campaigns present")
    else {
        panic!("campaigns is an array")
    };
    assert_eq!(campaigns.len(), 4, "the four healthy units completed");
    let bimodal::obs::Json::Arr(failed) = doc.get("failed").expect("failed present") else {
        panic!("failed is an array")
    };
    assert_eq!(failed.len(), 1, "exactly the wrecked unit failed");
    let f = &failed[0];
    assert_eq!(
        f.get("panicked").and_then(|p| p.as_f64()),
        None,
        "panicked serializes as a bool, not a number"
    );
    assert!(f.to_compact().contains("\"panicked\":true"));
    assert_eq!(f.get("attempts").and_then(|a| a.as_f64()), Some(2.0));
    // Re-invoking with the same manifest (panic hook off) runs only the
    // failed unit and completes the campaign cleanly.
    let json2 = dir.join("campaign2.json");
    let out = bimodal()
        .args(inject_args(&json2))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "manifest resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.matches("(from manifest)").count(),
        4,
        "the four finished units replayed from the journal:\n{text}"
    );
    let doc = bimodal::obs::Json::parse(&std::fs::read_to_string(&json2).expect("JSON written"))
        .expect("JSON parses");
    let bimodal::obs::Json::Arr(campaigns) = doc.get("campaigns").expect("campaigns present")
    else {
        panic!("campaigns is an array")
    };
    assert_eq!(campaigns.len(), 5, "the campaign is now complete");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_exit_codes_distinguish_drift_from_bad_input() {
    let dir = std::env::temp_dir().join(format!("bimodal-cli-diffexit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for (path, scheme) in [(&a, "bimodal"), (&b, "alloy")] {
        let out = bimodal()
            .args([
                "run",
                "--mix",
                "Q1",
                "--scheme",
                scheme,
                "--accesses",
                "2000",
                "--json",
                &path.display().to_string(),
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
    }
    let code = |args: &[&str]| {
        bimodal()
            .args(args)
            .output()
            .expect("binary runs")
            .status
            .code()
            .expect("exit code")
    };
    let (a, b) = (a.display().to_string(), b.display().to_string());
    assert_eq!(code(&["diff", &a, &a, "--exact"]), 0, "identical reports");
    assert_eq!(code(&["diff", &a, &b, "--threshold", "0.01"]), 1, "drift");
    assert_eq!(code(&["diff", &a, &b, "--exact"]), 1, "exact difference");
    let missing = dir.join("missing.json").display().to_string();
    assert_eq!(code(&["diff", &a, &missing]), 2, "unreadable input");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json at all").expect("writable");
    assert_eq!(
        code(&["diff", &a, &bad.display().to_string()]),
        2,
        "malformed input"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `latency` command prints the anatomy table and verifies the
/// component-sum invariant on every scheme it runs.
#[test]
fn latency_command_prints_anatomy_table() {
    let out = bimodal()
        .args([
            "latency",
            "--mix",
            "Q1",
            "--scheme",
            "bimodal",
            "--accesses",
            "2000",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("latency anatomy on Q1"));
    assert!(text.contains("read_hit"), "population tables: {text}");
    for label in [
        "queue", "bankc", "tagpr", "locat", "burst", "offch", "defer",
    ] {
        assert!(text.contains(label), "missing column {label}");
    }
    assert!(
        text.contains("component sums verified"),
        "sum invariant line: {text}"
    );
}

/// `explain --addr` replays the run and prints the journeys touching
/// the address (or says it was never touched).
#[test]
fn explain_command_replays_journeys() {
    let out = bimodal()
        .args([
            "explain",
            "--mix",
            "Q1",
            "--scheme",
            "bimodal",
            "--addr",
            "0x1000",
            "--accesses",
            "1000",
            "--seed",
            "7",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("journeys for 0x1000"));
}

/// `diff --anatomy-threshold` gates per-component mean cycles with an
/// absolute threshold, reusing the typed exit codes: 1 on drift, 2 when
/// a report has no anatomy section.
#[test]
fn diff_gates_on_anatomy_drift() {
    let dir = std::env::temp_dir().join(format!("bimodal-cli-anatdiff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |scheme: &str, anatomy: bool, path: &std::path::Path| {
        let mut args = vec![
            "run".to_owned(),
            "--mix".to_owned(),
            "Q1".to_owned(),
            "--scheme".to_owned(),
            scheme.to_owned(),
            "--accesses".to_owned(),
            "2000".to_owned(),
            "--seed".to_owned(),
            "7".to_owned(),
        ];
        if anatomy {
            args.push("--anatomy".to_owned());
        }
        args.push("--json".to_owned());
        args.push(path.display().to_string());
        let out = bimodal().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let plain = dir.join("plain.json");
    run("bimodal", true, &a);
    run("alloy", true, &b);
    run("bimodal", false, &plain);
    let code = |args: &[&str]| {
        bimodal()
            .args(args)
            .output()
            .expect("binary runs")
            .status
            .code()
            .expect("exit code")
    };
    let (a, b, plain) = (
        a.display().to_string(),
        b.display().to_string(),
        plain.display().to_string(),
    );
    // Identical reports: no anatomy drift at any threshold.
    assert_eq!(
        code(&["diff", &a, &a, "--anatomy-threshold", "0"]),
        0,
        "identical anatomy"
    );
    // Different schemes have wildly different component means: a tight
    // absolute threshold trips the gate even when the scalar threshold
    // is wide open (the synthetic regression).
    assert_eq!(
        code(&[
            "diff",
            &a,
            &b,
            "--threshold",
            "1000",
            "--anatomy-threshold",
            "0.5"
        ]),
        1,
        "anatomy drift"
    );
    // A report without an anatomy section is a typed input error.
    assert_eq!(
        code(&["diff", &a, &plain, "--anatomy-threshold", "5"]),
        2,
        "missing anatomy section"
    );
    // Without the flag the same pair passes (no anatomy gate).
    assert_eq!(
        code(&["diff", &a, &plain, "--threshold", "1000"]),
        0,
        "anatomy gate is opt-in"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
