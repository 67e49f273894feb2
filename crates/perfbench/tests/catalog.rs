//! The benchmark's names stay within the benchmark format's limits, and
//! `BENCHMARK.json` describes exactly what `perfbench` measures.

use std::collections::HashSet;

use bimodal_obs::Json;
use bimodal_perfbench::catalog::{per_layer, END_TO_END, RUN_SECONDS, WORKLOADS};

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_are_well_formed_unique_and_within_limits() {
    let layers = per_layer();
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&layers.len()));
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut seen = HashSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(layers.iter().map(|l| l.name.as_str()));
    for name in names {
        assert!(is_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(layers.iter().map(|l| l.unit))
    {
        assert!(is_unit(unit), "bad unit {unit:?}");
    }
    for m in &END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("set-up time is an end-to-end metric");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?}"))
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing array {key:?}"))
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object"),
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = arr(&b, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["crates/perfbench"]);
    assert_eq!(
        b.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );

    let workloads = arr(&b, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!((str_of(j, "name"), str_of(j, "why")), (w.name, w.why));
    }

    let ends = arr(&b, "end_to_end");
    assert_eq!(ends.len(), END_TO_END.len());
    for (j, m) in ends.iter().zip(&END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
            (m.name, m.unit, m.better.name())
        );
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
    }

    let layers = arr(&b, "per_layer");
    let table = per_layer();
    assert_eq!(layers.len(), table.len());
    for (j, l) in layers.iter().zip(&table) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(
            (str_of(j, "name"), str_of(j, "unit"), str_of(j, "better")),
            (l.name.as_str(), l.unit, l.better.name())
        );
    }
}
