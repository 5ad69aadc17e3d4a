//! Runs every workload with a 1 s window, untraced and traced, and holds
//! the result line to `BENCHMARK.json`: every listed name is there with
//! its unit, nothing unlisted is, and nothing failed. Not part of tier-1
//! (`cargo test` here builds the whole stack optimized; ~2 min).

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .expect("metric list")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One test, so the workloads run one after another: side by side on a
/// 2-core box they would starve each other's worker threads.
#[test]
fn every_workload_prints_exactly_the_listed_metrics() {
    let spec = spec();
    // Cargo's scratch directory for integration tests, inside the target
    // directory: nothing is written outside the checkout.
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    for workload in spec.get("workloads").expect("workloads").as_arr() {
        let workload = workload.get("name").and_then(Json::as_str).expect("name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_hecate-benchmark"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--quick",
                ])
                .args(["--trace", trace, "--out"])
                .arg(&out_dir)
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} exited {}:\n{stdout}\n{stderr}",
                out.status
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
                "{workload}"
            );

            let listed = names_and_units(&spec, list);
            let printed = result.get("metrics").expect("metrics").as_obj();
            let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            let listed_names: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed_names, listed_names, "{workload} --trace {trace}");
            for ((name, unit), (_, value)) in listed.iter().zip(printed) {
                assert_eq!(
                    value.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = value.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}/{name}: {value}");
                // The readable lines name every metric with its unit too.
                assert!(
                    stdout.lines().any(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(name) && words.last() == Some(unit)
                    }),
                    "{workload}: no readable line for {name} [{unit}]"
                );
            }
            if trace == "0" {
                for (name, _) in &listed {
                    let v = result
                        .get("metrics")
                        .unwrap()
                        .get(name)
                        .unwrap()
                        .get("value");
                    assert!(
                        v.and_then(Json::as_f64) > Some(0.0),
                        "{workload}/{name} is zero"
                    );
                }
            } else {
                let trace_file = out_dir.join(format!("trace-{workload}.json"));
                let doc = Json::parse(&std::fs::read_to_string(&trace_file).expect("trace file"))
                    .expect("trace file parses");
                assert!(!doc.get("spans").expect("spans").as_arr().is_empty());
            }
        }
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
