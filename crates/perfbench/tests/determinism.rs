//! Two `--quick` sets of the same seed agree exactly on every count of
//! simulated work and every report hash, and `compare` reads the records.

use std::path::PathBuf;
use std::process::Command;

use bimodal_obs::Json;
use bimodal_perfbench::catalog::{per_layer, END_TO_END, WORKLOADS};

fn quick_set(tag: &str) -> (PathBuf, Json) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perf-{tag}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("perfbench runs");
    assert!(status.success(), "the quick set passes its checks");
    let text = std::fs::read_to_string(&out).expect("perf.json written");
    (out, Json::parse(&text).expect("perf.json parses"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("workload {name} recorded"))
}

#[test]
fn quick_sets_repeat_counts_and_hashes_exactly() {
    let (path_a, a) = quick_set("a");
    let (path_b, b) = quick_set("b");
    for w in &WORKLOADS {
        let (wa, wb) = (workload(&a, w.name), workload(&b, w.name));
        assert_eq!(wa.get("failed").and_then(Json::as_f64), Some(0.0));
        let hashes = wa.get("hashes").expect("hashes");
        assert!(matches!(hashes, Json::Obj(h) if !h.is_empty()));
        assert_eq!(hashes, wb.get("hashes").expect("hashes"), "{}", w.name);
        for m in &END_TO_END {
            let v = wa
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .and_then(|x| x.get("median"))
                .and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{} {}", w.name, m.name);
        }
        for l in per_layer() {
            let value = |doc: &Json| {
                doc.get("per_layer")
                    .and_then(|p| p.get(&l.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{} {} recorded", w.name, l.name))
            };
            if l.deterministic {
                assert_eq!(
                    value(wa).to_bits(),
                    value(wb).to_bits(),
                    "{} {}",
                    w.name,
                    l.name
                );
            }
        }
    }

    let cmp = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("compare")
        .args([&path_a, &path_b])
        .output()
        .expect("compare runs");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert_eq!(table.lines().count(), WORKLOADS.len(), "{table}");
    for w in &WORKLOADS {
        assert!(table.contains(w.name), "{table}");
    }
}
