//! Every perf-history file at the repository root (`BENCH_<n>.json`: the
//! end-to-end benchmark's parent/change pairs behind one change's claim)
//! parses with `bcpnn_bench::benchjson::parse_history` and names only
//! workloads and metrics that `BENCHMARK.json` declares.

use std::fs;
use std::path::{Path, PathBuf};

use bcpnn_bench::benchjson::parse_history;
use bcpnn_gateway::json::{self, Json};

/// The `name` of every entry of the `key` array of `BENCHMARK.json`.
fn declared(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} array"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("a {key:?} entry has no name"))
                .to_string()
        })
        .collect()
}

#[test]
fn perf_history_names_only_declared_workloads_and_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json is readable");
    let spec = json::parse(&spec).expect("BENCHMARK.json is JSON");
    let workloads = declared(&spec, "workloads");
    let mut metrics = declared(&spec, "end_to_end");
    metrics.extend(declared(&spec, "per_layer"));

    let mut files: Vec<PathBuf> = fs::read_dir(root)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("root entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for file in files {
        let text = fs::read_to_string(&file).expect("perf-history file is readable");
        let parsed = parse_history(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert!(!parsed.is_empty(), "{}: no workloads", file.display());
        for workload in parsed {
            assert!(
                workloads.contains(&workload.name),
                "{}: workload {:?} is not in BENCHMARK.json",
                file.display(),
                workload.name
            );
            for metric in &workload.metrics {
                assert!(
                    metrics.contains(&metric.name),
                    "{}: {} metric {:?} is not in BENCHMARK.json",
                    file.display(),
                    workload.name,
                    metric.name
                );
            }
        }
    }
}
