//! `perfbench` command line.
//!
//! ```text
//! perfbench measure --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! perfbench run [--seed N] [--quick] [--out perf.json]
//! perfbench compare PARENT.json CHANGE.json
//! ```
//!
//! `measure` is the command `BENCHMARK.json` names. Whatever runs that
//! command appends `--workload W --seed N --seconds S --trace 0|1` to it,
//! with S the file's `run_seconds`, so every one of those flags is set on
//! every benchmark run; the defaults serve runs by hand.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bimodal_obs::Json;
use bimodal_perfbench::catalog::{workload, RUN_SECONDS, WORKLOADS};
use bimodal_perfbench::measure::{end_to_end, per_layer_metrics, Options};
use bimodal_perfbench::record;
use bimodal_perfbench::worker::{run_rep, RepSpec};

/// `SystemConfig`'s default seed.
const DEFAULT_SEED: u64 = 0xB1_0DA1;

const USAGE: &str = "usage:
  perfbench measure --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
      measure one workload; the last line printed is the JSON result
  perfbench run [--seed N] [--quick] [--out perf.json]
      measure every workload, end to end and per layer
  perfbench compare PARENT.json CHANGE.json
      judge a change's record against its parent's under the benchmark bounds";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("measure") => flags(&args[1..]).and_then(|f| measure(&f)),
        Some("run") => flags(&args[1..]).and_then(|f| run(&f)),
        Some("compare") => compare(&args[1..]),
        Some("worker") => flags(&args[1..]).and_then(|f| worker(&f)),
        _ => Err(String::new()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

type Flags = HashMap<String, String>;

/// `--name value` pairs; `--quick` alone is a switch.
fn flags(args: &[String]) -> Result<Flags, String> {
    let mut f = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = if name == "quick" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        };
        if f.insert(name.to_owned(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(f)
}

fn allow(f: &Flags, known: &[&str]) -> Result<(), String> {
    match f.keys().find(|k| !known.contains(&k.as_str())) {
        Some(k) => Err(format!("unknown flag --{k}")),
        None => Ok(()),
    }
}

fn seed(f: &Flags) -> Result<u64, String> {
    let Some(s) = f.get("seed") else {
        return Ok(DEFAULT_SEED);
    };
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("--seed takes an integer, got {s:?}"))
}

fn parse<T: std::str::FromStr>(f: &Flags, name: &str, default: T) -> Result<T, String> {
    f.get(name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{name} has a bad value {v:?}"))
    })
}

fn options(f: &Flags, seconds: f64) -> Result<Options, String> {
    Ok(Options {
        exe: std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?,
        seed: seed(f)?,
        seconds,
        trace_out: f.get("trace-out").map(PathBuf::from),
    })
}

fn measure(f: &Flags) -> Result<ExitCode, String> {
    allow(f, &["workload", "seed", "seconds", "trace", "trace-out"])?;
    let name = f.get("workload").ok_or("--workload is required")?;
    let w = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })?;
    let seconds: f64 = parse(f, "seconds", RUN_SECONDS)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds takes a non-negative number".into());
    }
    let opts = options(f, seconds)?;
    let outcome = match parse(f, "trace", 0u8)? {
        0 => end_to_end(w, &opts),
        1 => per_layer_metrics(w, &opts),
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    outcome.print();
    println!("{}", outcome.result_line().to_compact());
    Ok(ExitCode::SUCCESS)
}

fn run(f: &Flags) -> Result<ExitCode, String> {
    allow(f, &["seed", "quick", "out"])?;
    let quick = f.contains_key("quick");
    let opts = options(f, if quick { 0.0 } else { RUN_SECONDS })?;
    let mut sets = Vec::new();
    for w in &WORKLOADS {
        let w = if quick { w.quick() } else { w.clone() };
        let e2e = end_to_end(&w, &opts);
        e2e.print();
        let layers = per_layer_metrics(&w, &opts);
        layers.print();
        sets.push((e2e, layers));
    }
    let doc = record::to_json(opts.seed, quick, &sets);
    if let Some(out) = f.get("out") {
        std::fs::write(out, doc.to_pretty() + "\n")
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    let ok = sets.iter().all(|(a, b)| a.correct() && b.correct());
    println!("checks {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two perf.json files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, regressed) = record::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One rep, in the process the parent started for it.
fn worker(f: &Flags) -> Result<ExitCode, String> {
    let name = f.get("workload").ok_or("--workload is required")?;
    let mut w = workload(name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .clone();
    w.accesses_per_core = parse(f, "accesses-per-core", w.accesses_per_core)?;
    let trace_out = f.get("trace-out").map(PathBuf::from);
    let spec = RepSpec {
        workload: &w,
        seed: seed(f)?,
        observe: parse(f, "observe", 0u8)? == 1,
        traced: parse(f, "traced", 0u8)? == 1,
        trace_out: trace_out.as_deref(),
    };
    println!("{}", run_rep(&spec)?.to_compact());
    Ok(ExitCode::SUCCESS)
}
