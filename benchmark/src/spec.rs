//! The contract in `BENCHMARK.json`, compiled into the binary so the names
//! it prints can never drift from the names the file lists.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` names it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .expect("metric list present")
                .as_arr()
                .iter()
                .map(|m| MetricSpec {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    lower_is_better: field(m, "better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            workloads: doc
                .get("workloads")
                .expect("workloads")
                .as_arr()
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

fn field(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string field '{key}'"))
        .to_string()
}
