//! Per-layer metrics of one traced run, by the names `BENCHMARK.json`
//! lists. Each name starts with the module it measures; `README.md` says
//! which end-to-end metric each should move, on which workload.

use crate::common::{BackendObs, Base, RuntimeObs, Sample, Window, KIND_NAMES};
use crate::probe::EvaBaseline;
use crate::stats::median;
use crate::trace::SpanRec;
use std::collections::BTreeMap;

/// Everything a traced run measured besides its window.
pub struct Traced<'a> {
    pub base: &'a Base,
    pub window: &'a Window,
    /// Spans of the last set-up repetition only.
    pub setup_spans: &'a [SpanRec],
    pub kernels: Vec<(&'static str, f64)>,
    /// From the window where it drives the layer, else from the probe.
    pub backend: &'a BackendObs,
    pub runtime: &'a RuntimeObs,
    pub eva: EvaBaseline,
    pub plan_key_us: Vec<(String, f64)>,
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// `100 × (median traced ÷ median untraced − 1)`: what the recorder costs
/// a unit of work, from the two halves of one window.
pub fn trace_overhead_pct(samples: &[Sample]) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    100.0 * (median(&on) / median(&off) - 1.0)
}

pub fn per_layer(t: &Traced) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = t.base.exact_counts();

    let build_ms: f64 = t
        .setup_spans
        .iter()
        .filter(|s| s.name == "apps.build")
        .map(SpanRec::ms)
        .sum();
    m.insert("apps.build_ms".into(), build_ms);

    let keys: Vec<f64> = t.plan_key_us.iter().map(|(_, us)| *us).collect();
    m.insert(
        "ir.plan_key_us".into(),
        keys.iter().sum::<f64>() / keys.len() as f64,
    );

    // compile-paper8 compiles in its window: per program the median over
    // passes. Elsewhere the plan set is compiled once, in set-up.
    let compile_ms: f64 = if t.window.compile_ms.is_empty() {
        t.base.own().iter().map(|p| p.compile_ms).sum()
    } else {
        t.window.compile_ms.values().map(|v| median(v)).sum()
    };
    m.insert("compiler.compile_ms".into(), compile_ms);
    m.insert("compiler.eva_compile_ms".into(), t.eva.compile_ms);
    m.insert(
        "compiler.est_speedup_vs_eva_geomean".into(),
        t.eva.est_speedup_geomean,
    );

    for (name, us) in &t.kernels {
        m.insert((*name).into(), *us);
    }

    let b = t.backend;
    let total_us = median_or_zero(&b.total_us);
    m.insert(
        "backend.engine_new_ms".into(),
        median_or_zero(&b.engine_new_ms),
    );
    m.insert("backend.ops_ms".into(), total_us / 1e3);
    let nonop: Vec<f64> = b
        .wall_ms
        .iter()
        .zip(&b.total_us)
        .map(|(wall, us)| wall - us / 1e3)
        .collect();
    m.insert("backend.nonop_ms".into(), median_or_zero(&nonop));
    let kind_us: Vec<f64> = b.kind_us.iter().map(|v| median_or_zero(v)).collect();
    let kind_sum: f64 = kind_us.iter().sum();
    for (name, us) in KIND_NAMES.iter().zip(&kind_us) {
        let share = if kind_sum > 0.0 {
            100.0 * us / kind_sum
        } else {
            0.0
        };
        m.insert(format!("backend.op_share.{name}"), share);
    }
    m.insert("backend.peak_bytes".into(), b.peak_bytes as f64);
    m.insert(
        "compiler.estimate_ratio".into(),
        if total_us > 0.0 {
            b.est_us / total_us
        } else {
            0.0
        },
    );

    let r = t.runtime;
    m.insert(
        "runtime.overhead_ms".into(),
        median_or_zero(&r.hit_overhead_ms),
    );
    m.insert("runtime.hit_p50_ms".into(), median_or_zero(&r.hit_ms));
    m.insert("runtime.miss_p50_ms".into(), median_or_zero(&r.miss_ms));
    m.insert("runtime.compiles".into(), r.compiles as f64);
    m.insert("runtime.cache_hits".into(), r.cache_hits as f64);
    m.insert("runtime.cache_evictions".into(), r.cache_evictions as f64);
    let lookups = r.cache_hits + r.cache_misses;
    m.insert(
        "runtime.hit_ratio".into(),
        if lookups > 0 {
            r.cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    m.insert("runtime.batches_executed".into(), r.batches_executed as f64);
    m.insert(
        "runtime.occupancy4_share".into(),
        if r.replies > 0 {
            r.occupancy4 as f64 / r.replies as f64
        } else {
            0.0
        },
    );

    m.insert(
        "trace_overhead_pct".into(),
        trace_overhead_pct(&t.window.samples),
    );
    m
}
