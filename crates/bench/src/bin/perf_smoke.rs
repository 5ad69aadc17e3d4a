//! `perf_smoke` — CI gate for the encrypted hot-path optimizations.
//!
//! Two checks, both hard failures:
//!
//! 1. **Bit-identity**: LeNet, HCD (Harris), and SF (Sobel) decrypt to
//!    *bit-identical* outputs (`f64::to_bits`) with rotation hoisting
//!    on/off, `kernel_jobs` ∈ {1, 2, 4}, and the op driver on 1, 2, or 4
//!    DAG workers. Hoisting reassociates nothing, the per-limb kernels
//!    split only independent RNS limbs, and the driver's schedule decides
//!    *when* an op runs, never *what* it computes — so any drift is a
//!    real bug, not tolerance noise.
//! 2. **Hoisted-not-slower**: on a synthetic 8-way rotation fan-out the
//!    rotate kernel time with hoisting must not exceed the unhoisted
//!    time (with slack for CI timer jitter; the expected win is ≥1.3×).
//!
//! Exit code 0 on success, 1 with a message on any violation.

#![forbid(unsafe_code)]

use hecate_apps::{benchmark, Preset};
use hecate_backend::exec::{execute, execute_encrypted, BackendOptions, ExecEngine};
use hecate_bench::median_us;
use hecate_compiler::{compile, CompileOptions, Scheme};
use hecate_ir::{FunctionBuilder, Op};
use std::collections::HashMap;
use std::sync::Arc;

const DEGREE: usize = 512;
const WORKLOADS: [&str; 3] = ["LeNet", "HCD", "SF"];
/// (hoist_rotations, kernel_jobs) engines, each run on every
/// [`DRIVER_JOBS`] count and compared against the reference run
/// (hoisting off, one kernel thread, one DAG worker).
const VARIANTS: [(bool, usize); 6] = [
    (false, 1),
    (true, 1),
    (true, 2),
    (true, 4),
    (false, 2),
    (false, 4),
];
const DRIVER_JOBS: [usize; 3] = [1, 2, 4];
/// Allowed slowdown of the hoisted rotate kernel before the gate trips;
/// generous because CI timers are noisy, but far below the ≥1.3×
/// speedup the hoisted path delivers.
const HOIST_SLACK: f64 = 1.15;
const TIMING_ITERS: usize = 7;

fn backend(hoist: bool, jobs: usize) -> BackendOptions {
    BackendOptions {
        degree_override: Some(DEGREE),
        hoist_rotations: hoist,
        kernel_jobs: jobs,
        ..BackendOptions::default()
    }
}

/// Runs every workload under every variant and compares the decrypted
/// outputs bit-for-bit against the (hoist=off, kernel_jobs=1, jobs=1)
/// reference.
fn check_bit_identity() -> Result<(), String> {
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(DEGREE);
    for name in WORKLOADS {
        let bench = benchmark(name, Preset::Small).expect("known benchmark");
        let prog = compile(&bench.func, Scheme::Pars, &opts)
            .map_err(|e| format!("{name}: compile failed: {e}"))?;
        let prog = Arc::new(prog);
        let mut reference: Option<HashMap<String, Vec<f64>>> = None;
        for (hoist, kernel_jobs) in VARIANTS {
            let engine = ExecEngine::new(prog.clone(), &backend(hoist, kernel_jobs))
                .map_err(|e| format!("{name}: engine build failed: {e}"))?;
            for jobs in DRIVER_JOBS {
                let variant = format!("hoist={hoist} kernel_jobs={kernel_jobs} jobs={jobs}");
                let run = execute(&engine, &[&bench.inputs], jobs, None, None)
                    .map_err(|e| format!("{name}: {variant} failed: {e}"))?
                    .pop()
                    .expect("one run per tenant");
                let want = reference.get_or_insert_with(|| run.outputs.clone());
                for (out, want) in want.iter() {
                    let got = &run.outputs[out];
                    for (k, (a, b)) in want.iter().zip(got).enumerate() {
                        if a.to_bits() != b.to_bits() {
                            return Err(format!(
                                "{name}: output {out}[{k}] differs with {variant}: {a:e} vs {b:e}"
                            ));
                        }
                    }
                }
            }
            println!(
                "  {name:<6} hoist={hoist:<5} kernel_jobs={kernel_jobs} jobs=1,2,4  bit-identical"
            );
        }
    }
    Ok(())
}

/// `sum_{s=1..=8} rot(x*x, s)`: the rotation fan-out shape hoisting
/// targets (same shape as the `bench_runtime` microbenchmark).
fn rotation_fan_func(width: usize, fan: usize) -> hecate_ir::Function {
    let mut b = FunctionBuilder::new("rotfan", width);
    let x = b.input_cipher("x");
    let x2 = b.mul(x, x);
    let mut acc = x2;
    for step in 1..=fan {
        let r = b.rotate(x2, step);
        acc = b.add(acc, r);
    }
    b.output(acc);
    b.finish()
}

/// Median microseconds inside rotate ops per run for one hoist setting.
fn rotate_kernel_us(hoist: bool) -> Result<f64, String> {
    let width = 64;
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(DEGREE);
    let prog = compile(&rotation_fan_func(width, 8), Scheme::Pars, &opts)
        .map_err(|e| format!("rot-fan: compile failed: {e}"))?;
    let rotate_ops: Vec<usize> = prog
        .func
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Rotate { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut inputs = HashMap::new();
    inputs.insert(
        "x".to_string(),
        (0..width).map(|i| (i as f64) * 0.01 - 0.3).collect(),
    );
    let bopts = backend(hoist, 1);
    let samples: Vec<f64> = (0..=TIMING_ITERS)
        .map(|_| {
            execute_encrypted(&prog, &inputs, &bopts)
                .map(|run| rotate_ops.iter().map(|&i| run.op_us[i]).sum())
        })
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("rot-fan: run failed: {e}"))?
        .into_iter()
        .skip(1) // warmup
        .collect();
    Ok(median_us(samples))
}

fn check_hoisted_not_slower() -> Result<(), String> {
    let nohoist = rotate_kernel_us(false)?;
    let hoisted = rotate_kernel_us(true)?;
    println!(
        "  rot-fan8 rotate kernel: nohoist {nohoist:.0}us, hoisted {hoisted:.0}us \
         ({:.2}x)",
        nohoist / hoisted
    );
    if hoisted > nohoist * HOIST_SLACK {
        return Err(format!(
            "hoisted rotate kernel is slower: {hoisted:.0}us vs {nohoist:.0}us \
             (allowed {HOIST_SLACK}x slack)"
        ));
    }
    Ok(())
}

fn main() {
    println!("perf smoke: bit-identity across hoist x kernel_jobs x driver jobs");
    let result = check_bit_identity().and_then(|()| {
        println!("perf smoke: hoisted rotate kernel not slower");
        check_hoisted_not_slower()
    });
    match result {
        Ok(()) => println!("perf smoke: OK"),
        Err(msg) => {
            eprintln!("perf smoke FAILED: {msg}");
            std::process::exit(1);
        }
    }
}
