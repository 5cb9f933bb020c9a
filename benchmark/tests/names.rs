//! Every metric name the benchmark prints is declared in BENCHMARK.json,
//! and every declared name is printed.

use dcn_benchmark::metrics::{per_layer, END_TO_END};
use dcn_benchmark::workloads::NAMES;
use dcn_obs::json::Json;
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of each entry of a BENCHMARK.json list.
fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn declarations_match_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&json, "per_layer"), layers);
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "{name}");
    }
}

#[test]
fn a_traced_run_prints_only_declared_names() {
    let json = benchmark_json();
    let e2e: BTreeSet<String> = declared(&json, "end_to_end")
        .into_iter()
        .map(|m| m.0)
        .collect();
    let layers: BTreeSet<String> = declared(&json, "per_layer")
        .into_iter()
        .map(|m| m.0)
        .collect();

    let out = Command::new(env!("CARGO_BIN_EXE_dcn-benchmark"))
        .args([
            "--workload",
            "frontier",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    let (summary, body) = lines.split_last().expect("output");

    let printed: BTreeSet<String> = body
        .iter()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().next().expect("name").to_string())
        .collect();
    for name in &printed {
        assert!(
            valid_name(name) && (e2e.contains(name) || layers.contains(name)),
            "{name}"
        );
    }
    assert_eq!(printed, e2e.union(&layers).cloned().collect());

    let summary = Json::parse(summary).expect("JSON summary");
    assert!(matches!(summary.get("correct"), Some(Json::Bool(true))));
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = summary.get("metrics") else {
        panic!("no metrics object");
    };
    let keys: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(keys, layers);
}
