//! Runs every declared workload at its tiny size, untraced and traced,
//! and checks that the result line names exactly the metrics (and
//! units) `BENCHMARK.json` declares — the one source for metric names.

use std::process::Command;

use serde_json::{Map, Value};

fn declared() -> Map {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let value: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    value
        .as_object()
        .expect("BENCHMARK.json is an object")
        .clone()
}

/// `(name, unit)` of every entry of a declared list (`unit` is empty for
/// workloads).
fn entries(bench: &Map, key: &str) -> Vec<(String, String)> {
    let list = bench[key].as_array().expect("declared list");
    let mut out: Vec<(String, String)> = list
        .iter()
        .map(|e| {
            let e = e.as_object().expect("declared entry");
            let field = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let bench = declared();
    let workloads = entries(&bench, "workloads");
    assert_eq!(workloads.len(), 2, "paris-batch, camps-stream");
    for (workload, _) in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("benchmark binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result line is JSON");
            let result = result.as_object().expect("result is an object");
            let keys: Vec<&str> = result.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result["correct"], Value::Bool(true), "{workload}: {stderr}");
            assert!(result["attempted"].as_f64().unwrap_or(0.0) >= 1.0);
            assert_eq!(result["failed"].as_f64(), Some(0.0));
            let mut printed: Vec<(String, String)> = result["metrics"]
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let m = m.as_object().expect("metric object");
                    assert!(
                        m["value"].as_f64().is_some_and(f64::is_finite),
                        "{workload}: {name} is not a finite number"
                    );
                    let unit = m["unit"].as_str().expect("unit string").to_string();
                    (name.clone(), unit)
                })
                .collect();
            printed.sort();
            assert_eq!(printed, entries(&bench, key), "{workload} --trace {trace}");
        }
    }
}
