//! Packed (slot-batched) execution against solo execution.
//!
//! A packed engine serves several tenants from one ciphertext. Bit-exact
//! agreement with solo runs is *not* possible at occupancy ≥ 2: CKKS
//! encoding is a global FFT over all slots, so packing different tenants
//! changes the rounding noise in every slot. What batching guarantees —
//! and what these tests pin down — is that every tenant's demultiplexed
//! result approximates the same plaintext reference within the noise
//! tolerance the solo path itself meets, across every benchmark workload,
//! and that execution is fully deterministic: at a fixed occupancy the
//! outputs agree to the bit across repeated runs and kernel thread counts
//! — solo being occupancy 1 of the same driver.

use hecate_apps::{all_benchmarks, Preset};
use hecate_backend::exec::{execute, execute_sequential, BackendOptions, ExecEngine, ExecError};
use hecate_backend::rms_error;
use hecate_compiler::lowering::physical_step;
use hecate_compiler::{compile, CompileOptions, Scheme};
use hecate_ir::interp::interpret;
use hecate_ir::{packed_shift, slot_reaches, Function, FunctionBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-tenant inputs derived from a benchmark's bindings: tenant `t`
/// rotates every vector by `t`, so tenants are distinct but keep the same
/// magnitude profile.
fn tenant_inputs(base: &HashMap<String, Vec<f64>>, t: usize) -> HashMap<String, Vec<f64>> {
    base.iter()
        .map(|(k, v)| {
            let mut rot = v.clone();
            if !rot.is_empty() {
                let by = t % rot.len();
                rot.rotate_left(by);
            }
            (k.clone(), rot)
        })
        .collect()
}

/// Smallest degree at which `occupancy` blocks fit the plan's footprint:
/// the widest backward and forward reaches around the logical window
/// (block must be a power of two ≥ the footprint and a multiple of the
/// vector width, slots = occupancy * block, degree = 2 * slots).
fn batch_degree(func: &Function, occupancy: usize) -> usize {
    let reaches = slot_reaches(func);
    let back = reaches.iter().map(|r| r.0).max().unwrap_or(0);
    let fwd = reaches.iter().map(|r| r.1).max().unwrap_or(0);
    let width = func.vec_size;
    2 * occupancy * (back + width + fwd).next_power_of_two().max(width)
}

/// Compiles `bench`, runs it packed at `occupancy`, and checks every
/// tenant's demultiplexed outputs against a solo run at the same degree
/// and the plaintext reference.
fn check_benchmark(bench: &hecate_apps::Benchmark, occupancy: usize) {
    let mut copts = CompileOptions::with_waterline(24.0);
    copts.degree = Some(512);
    let prog = compile(&bench.func, Scheme::Pars, &copts)
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", bench.name));
    let degree = batch_degree(&prog.func, occupancy);
    let prog = Arc::new(prog);

    let tenants: Vec<HashMap<String, Vec<f64>>> = (0..occupancy)
        .map(|t| tenant_inputs(&bench.inputs, t))
        .collect();

    // Solo engine at the same degree: the per-tenant reference.
    let solo = ExecEngine::new(
        prog.clone(),
        &BackendOptions {
            degree_override: Some(degree),
            ..BackendOptions::default()
        },
    )
    .unwrap();
    // Packed engine serving every tenant at once.
    let packed = ExecEngine::new(
        prog.clone(),
        &BackendOptions {
            degree_override: Some(degree),
            batch_occupancy: occupancy,
            ..BackendOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: packed engine: {e}", bench.name));
    assert_eq!(packed.occupancy(), occupancy);

    let refs: Vec<&HashMap<String, Vec<f64>>> = tenants.iter().collect();
    let batch = execute(&packed, &refs, None, None)
        .unwrap_or_else(|e| panic!("{}: batched run: {e}", bench.name));
    assert_eq!(batch.len(), occupancy, "one run per tenant");

    // One solo reference run calibrates the noise regime; each tenant's
    // packed result must sit in it, both against the plaintext truth and
    // against its own solo run (tenant 0 only, to keep the test fast).
    let solo_run = execute_sequential(&solo, &tenants[0]).unwrap();
    let truth0 = interpret(&prog.func, &tenants[0]).unwrap();
    let solo_vs_truth = truth0
        .iter()
        .map(|(name, t)| rms_error(&solo_run.outputs[name], t))
        .fold(0.0f64, f64::max);
    let bound = (solo_vs_truth * 64.0).max(2f64.powi(-8));
    for (t, inputs) in tenants.iter().enumerate() {
        let truth = interpret(&prog.func, inputs).unwrap();
        for (name, got) in &batch[t].outputs {
            let vs_truth = rms_error(got, &truth[name]);
            assert!(
                vs_truth < bound,
                "{} tenant {t} output {name}: packed rms {vs_truth} vs solo rms {solo_vs_truth}",
                bench.name
            );
        }
    }
    for (name, got) in &batch[0].outputs {
        let vs_solo = rms_error(got, &solo_run.outputs[name]);
        assert!(
            vs_solo < bound,
            "{} output {name}: packed-vs-solo rms {vs_solo}",
            bench.name
        );
    }
}

#[test]
fn image_benchmarks_demux_to_the_solo_answer() {
    // The two rotation-heavy image pipelines (guard bands in both
    // directions) as the always-on check; the full 8-benchmark soak below
    // is CI's batching job.
    for bench in all_benchmarks(Preset::Small)
        .iter()
        .filter(|b| b.name == "SF" || b.name == "HCD")
    {
        check_benchmark(bench, 2);
    }
}

#[test]
#[ignore = "batching soak: run explicitly (CI soaks job)"]
fn every_benchmark_demuxes_to_the_solo_answer() {
    for bench in &all_benchmarks(Preset::Small) {
        check_benchmark(bench, 2);
    }
}

#[test]
fn runs_are_bit_identical_across_jobs_and_repeats() {
    let bench = all_benchmarks(Preset::Small)
        .into_iter()
        .find(|b| b.name == "SF")
        .unwrap();
    let mut copts = CompileOptions::with_waterline(24.0);
    copts.degree = Some(512);
    let prog = Arc::new(compile(&bench.func, Scheme::Pars, &copts).unwrap());
    let degree = batch_degree(&prog.func, 4);
    for occupancy in [1usize, 4] {
        let tenants: Vec<HashMap<String, Vec<f64>>> = (0..occupancy)
            .map(|t| tenant_inputs(&bench.inputs, t))
            .collect();
        let refs: Vec<&HashMap<String, Vec<f64>>> = tenants.iter().collect();
        // Reference: the first run, one kernel thread. The second
        // kernel_jobs = 1 run is the plain repeat-determinism check.
        let mut reference: Option<Vec<HashMap<String, Vec<f64>>>> = None;
        for jobs in [1usize, 1, 2, 4] {
            let engine = ExecEngine::new(
                prog.clone(),
                &BackendOptions {
                    degree_override: Some(degree),
                    batch_occupancy: occupancy,
                    kernel_jobs: jobs,
                    ..BackendOptions::default()
                },
            )
            .unwrap();
            let runs = execute(&engine, &refs, None, None).unwrap();
            let got: Vec<_> = runs.into_iter().map(|r| r.outputs).collect();
            let want = reference.get_or_insert_with(|| got.clone());
            for (t, (got, want)) in got.iter().zip(want.iter()).enumerate() {
                for (name, vw) in want {
                    let vg = &got[name];
                    assert_eq!(vg.len(), vw.len());
                    for (x, y) in vg.iter().zip(vw) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "occupancy {occupancy} kernel_jobs {jobs} tenant {t} output {name}"
                        );
                    }
                }
            }
        }
    }
}

/// A run takes exactly as many tenants as its engine packs: anything else
/// is the typed occupancy error, never a mis-laid-out ciphertext.
#[test]
fn tenant_count_must_match_the_engine_occupancy() {
    let mut b = FunctionBuilder::new("sq", 8);
    let x = b.input_cipher("x");
    let sq = b.square(x);
    b.output(sq);
    let mut copts = CompileOptions::with_waterline(24.0);
    copts.degree = Some(256);
    let prog = Arc::new(compile(&b.finish(), Scheme::Pars, &copts).unwrap());
    let inputs: HashMap<String, Vec<f64>> = [("x".to_string(), vec![0.5; 8])].into();
    let solo = ExecEngine::new(prog.clone(), &BackendOptions::default()).unwrap();
    let err = execute(&solo, &[&inputs, &inputs], None, None).unwrap_err();
    assert!(
        matches!(err, ExecError::BatchUnsupported { occupancy: 2, .. }),
        "{err}"
    );
    let packed = ExecEngine::new(
        prog,
        &BackendOptions {
            batch_occupancy: 2,
            ..BackendOptions::default()
        },
    )
    .unwrap();
    let err = execute_sequential(&packed, &inputs).unwrap_err();
    assert!(
        matches!(err, ExecError::BatchUnsupported { occupancy: 1, .. }),
        "{err}"
    );
}

#[test]
fn infeasible_occupancy_is_a_typed_error() {
    // A rotation-heavy function at a degree whose blocks cannot hold the
    // guard bands must be rejected at engine build, not miscomputed.
    let mut b = FunctionBuilder::new("wide", 16);
    let x = b.input_cipher("x");
    let r = b.rotate(x, 1);
    let s = b.add(x, r);
    b.output(s);
    let mut copts = CompileOptions::with_waterline(24.0);
    copts.degree = Some(256);
    let prog = Arc::new(compile(&b.finish(), Scheme::Pars, &copts).unwrap());
    // footprint: width 16, fwd 1 → block needs ≥ 17 slots, but at degree
    // 64 (32 slots) occupancy 2 leaves 16-slot blocks.
    let err = ExecEngine::new(
        prog,
        &BackendOptions {
            degree_override: Some(64),
            batch_occupancy: 2,
            ..BackendOptions::default()
        },
    )
    .err()
    .expect("must not build");
    match err {
        ExecError::BatchUnsupported {
            occupancy,
            block,
            needed,
        } => {
            assert_eq!(occupancy, 2);
            assert_eq!(block, 16);
            assert_eq!(needed, 17);
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn physical_step_agrees_with_packed_shift() {
    let (w, slots) = (16usize, 128usize);
    for step in 0..3 * w {
        let solo = physical_step(step, w, slots, 1);
        assert_eq!(solo, step % slots);
        let packed = physical_step(step, w, slots, 4);
        let (fwd, back) = packed_shift(step, w);
        if fwd > 0 {
            assert_eq!(packed, fwd);
        } else if back > 0 {
            assert_eq!(packed, slots - back);
        } else {
            assert_eq!(packed, 0);
        }
    }
}
