//! The closed estimator loop, end to end: execute benchmarks under
//! encryption with the tracer on, fold the `exec-op` spans into a
//! measured [`CostTable`], and check that the table (a) respects the
//! cost structure of RNS-CKKS (cost grows with active primes, i.e.
//! shrinks with level) and (b) feeds [`CostModel::Profiled`] so a
//! re-estimate reproduces the traced latency.
//!
//! Every traced run goes through `trace::capture`, which serializes
//! captures within this test binary — concurrent tests cannot steal or
//! pollute each other's event streams.

use hecate::apps::{all_benchmarks, benchmark, Benchmark, Preset};
use hecate::backend::exec::{execute_encrypted, BackendOptions, EncryptedRun};
use hecate::compiler::estimator::estimate_latency_us;
use hecate::compiler::{
    compile, CompileOptions, CompiledProgram, CostModel, CostOp, CostTable, Scheme,
};
use hecate::telemetry::trace;
use std::collections::BTreeMap;
use std::sync::Arc;

fn opts() -> CompileOptions {
    let mut o = CompileOptions::with_waterline(24.0);
    o.degree = Some(512);
    o
}

/// Compiles and executes one benchmark with the tracer on, returning the
/// program, the run, and its events (compile spans excluded).
fn traced_run(bench: &Benchmark) -> (CompiledProgram, EncryptedRun, Vec<hecate::telemetry::Event>) {
    let mut o = opts();
    o.degree = Some((2 * bench.func.vec_size).max(512));
    let prog = compile(&bench.func, Scheme::Hecate, &o).expect("benchmark compiles");
    let (run, events) =
        trace::capture(|| execute_encrypted(&prog, &bench.inputs, &BackendOptions::default()));
    (prog, run.expect("benchmark executes"), events)
}

/// The HECATE cost premise (paper §II-C): an op over more active primes
/// is never cheaper. The traced table must come out monotone — the PAVA
/// repair in `CostTable::from_trace` guarantees it even on noisy
/// measurements — which is exactly "cost nonincreasing in level", since
/// level = chain_len − active_primes.
#[test]
fn traced_cost_table_is_monotone_in_active_primes() {
    for name in ["SF", "HCD"] {
        let bench = benchmark(name, Preset::Small).unwrap();
        let (prog, _, events) = traced_run(&bench);
        let table = CostTable::from_trace(&events, prog.params.degree);
        let mut by_op: BTreeMap<CostOp, Vec<(usize, f64)>> = BTreeMap::new();
        for (op, active, us) in table.measurements() {
            by_op.entry(op).or_default().push((active, us));
        }
        assert!(
            !by_op.is_empty(),
            "{name}: traced run produced an empty cost table"
        );
        for (op, mut cells) in by_op {
            cells.sort_by_key(|&(active, _)| active);
            for pair in cells.windows(2) {
                let (c0, us0) = pair[0];
                let (c1, us1) = pair[1];
                assert!(
                    us1 >= us0,
                    "{name}: {op:?} got cheaper with more primes: \
                     {us0:.3}µs @ {c0} primes vs {us1:.3}µs @ {c1} primes"
                );
            }
        }
    }
}

/// Closing the loop: a `Profiled` model built from a traced run must
/// re-estimate that run's latency almost exactly. The weighted PAVA
/// pooling preserves per-block weighted means, so the re-estimate's sum
/// over ops equals the traced kernel-time sum up to float noise.
#[test]
fn profiled_reestimate_reproduces_traced_latency() {
    let bench = benchmark("SF", Preset::Small).unwrap();
    let (prog, run, events) = traced_run(&bench);
    let traced = run.total_us;
    assert!(traced > 0.0, "traced run must record kernel time");
    let table = CostTable::from_trace(&events, prog.params.degree);
    let profiled = estimate_latency_us(
        &prog.func,
        &prog.types,
        &CostModel::Profiled(Arc::new(table)),
        prog.params.chain_len,
        prog.params.degree,
    );
    let ratio = profiled / traced;
    assert!(
        (ratio - 1.0).abs() < 0.02,
        "profiled re-estimate {profiled:.1}µs vs traced {traced:.1}µs (ratio {ratio:.4})"
    );
}

/// Fig. 8's practical claim: the analytic estimator ranks benchmarks the
/// way the machine does. Absolute debug-build timings are noisy, so the
/// assertion is confined to pairs the estimator separates by at least 2×
/// — those must never invert under measurement.
#[test]
fn analytic_ranking_matches_traced_ranking() {
    let rows: Vec<(String, f64, f64)> = all_benchmarks(Preset::Small)
        .iter()
        .map(|bench| {
            let (prog, run, _) = traced_run(bench);
            let traced = run.total_us;
            assert!(traced > 0.0, "{}: empty trace", bench.name);
            (bench.name.clone(), prog.stats.estimated_latency_us, traced)
        })
        .collect();
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            let (na, est_a, tr_a) = &rows[i];
            let (nb, est_b, tr_b) = &rows[j];
            if est_a * 2.0 <= *est_b {
                assert!(
                    tr_a < tr_b,
                    "estimator says {na} ({est_a:.0}µs) is >=2x faster than {nb} \
                     ({est_b:.0}µs), but traced {tr_a:.0}µs vs {tr_b:.0}µs"
                );
            }
        }
    }
}
