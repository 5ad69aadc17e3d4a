//! The layer probe that ends every traced run.
//!
//! A workload's window drives some layers and not others (compile-paper8
//! never reaches the backend, the exec workloads never reach the runtime),
//! and no window calls a kernel by itself. So each traced run finishes by
//! calling every remaining layer's public functions directly, on the
//! workload's probe plan at the workload's ring degree:
//!
//! - `kernels`: `RnsPoly::to_ntt`/`to_coeff` and the `Evaluator` /
//!   `Encryptor` / `Decryptor` / `key_switch` calls at the top of the
//!   plan's chain, each timed call by call;
//! - `backend`: `ExecEngine::new` + `execute_sequential` (where the window
//!   did not already do exactly that);
//! - `runtime`: one tenant sending the probe program through a
//!   one-worker `Runtime`, one miss then hits (where the window is not a
//!   serve workload);
//! - `compiler`: the EVA baseline of every plan, for Fig. 7 in estimate;
//! - `ir`: `plan_key` on every program, the hash each request pays.

use crate::check::{catching, Tally, RMS_BOUND};
use crate::common::{backend, ms_since, op_kinds, options, request, BackendObs, Base, RuntimeObs};
use crate::stats::median;
use hecate_backend::exec::{build_params, execute_sequential, ExecEngine};
use hecate_ckks::keys::key_switch;
use hecate_ckks::{CkksEncoder, Decryptor, Encryptor, EvalKeys, Evaluator, KeyGenerator};
use hecate_compiler::{compile, Scheme};
use hecate_runtime::{plan_key, Runtime, RuntimeConfig};
use std::time::Instant;

/// Calls of one kernel timed: enough for a steady median, cheap enough
/// that the whole probe stays a few seconds at degree 4096.
const KERNEL_REPS: usize = 40;
const BACKEND_RUNS: usize = 5;
const RUNTIME_HITS: usize = 5;
const PLAN_KEY_REPS: usize = 20;

fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e6
}

/// Median over `KERNEL_REPS` calls, each timed on its own.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_REPS).map(|_| time_us(&mut f)).collect();
    median(&samples)
}

/// Times the math and ckks kernels at the probe plan's parameters, all at
/// level 0 (every prime of the chain active).
pub fn kernels(base: &Base) -> Result<Vec<(&'static str, f64)>, String> {
    let (plan, _) = base.probe();
    let params =
        build_params(&plan.compiled, &backend(base.probe_degree)).map_err(|e| e.to_string())?;
    let chain = params.basis().chain_len();
    let encoder = CkksEncoder::new(&params);
    let mut kg = KeyGenerator::new(&params, 0xB0B);
    let pk = kg.public_key();
    let keys = EvalKeys::generate(&mut kg, &[chain], &[(1, chain)]);
    let relin = kg.relin_key(chain);
    let decryptor = Decryptor::new(&params, kg.secret_key().clone());
    let mut encryptor = Encryptor::new(&params, pk, 0xB0C);
    let eval = Evaluator::new(&params, keys);

    // The scale the backend's own profiler uses: room for one product
    // under the smallest prime.
    let (q0, sf) = (plan.compiled.params.q0_bits, plan.compiled.params.sf_bits);
    let scale = (q0.clamp(24, 60).min(sf) as f64 - 10.0).max(20.0);
    let data: Vec<f64> = (0..params.slots()).map(|i| (i % 7) as f64 * 0.25).collect();
    let pt = encoder.encode(&data, scale, 0).map_err(|e| e.to_string())?;
    let ct = encryptor.encrypt(&pt);
    let ct2 = encryptor.encrypt(&pt);
    let err = |e: hecate_ckks::eval::EvalError| e.to_string();

    // Ciphertexts live in NTT form; the transforms are no-ops on a poly
    // already in the target form, so each timed call gets a fresh copy
    // made outside the timer.
    assert!(ct.c0.is_ntt(), "ciphertexts are kept in NTT form");
    let mut coeff = ct.c0.clone();
    coeff.to_coeff(params.basis());
    let transform = |from: &hecate_math::poly::RnsPoly, to_ntt: bool| {
        let samples: Vec<f64> = (0..KERNEL_REPS)
            .map(|_| {
                let mut p = from.clone();
                time_us(|| {
                    if to_ntt {
                        p.to_ntt(params.basis())
                    } else {
                        p.to_coeff(params.basis())
                    }
                })
            })
            .collect();
        median(&samples)
    };
    let mut out = vec![
        ("math.ntt_fwd_us", transform(&coeff, true)),
        ("math.ntt_inv_us", transform(&ct.c0, false)),
    ];
    // Each fallible kernel is called once for its error before the timed
    // calls unwrap it.
    eval.rotate(&ct, 1).map_err(err)?;
    out.push(("ckks.rotate_us", median_us(|| eval.rotate(&ct, 1).ok())));
    let hoisted = eval.hoist(&ct);
    eval.rotate_hoisted(&ct, &hoisted, 1).map_err(err)?;
    out.push((
        "ckks.rotate_hoisted_us",
        median_us(|| eval.rotate_hoisted(&ct, &hoisted, 1).ok()),
    ));
    out.push((
        "ckks.key_switch_us",
        median_us(|| key_switch(&coeff, &relin, &params)),
    ));
    let product = eval.mul(&ct, &ct2).map_err(err)?;
    out.push(("ckks.mul_relin_us", median_us(|| eval.mul(&ct, &ct2).ok())));
    eval.rescale(&product).map_err(err)?;
    out.push(("ckks.rescale_us", median_us(|| eval.rescale(&product).ok())));
    out.push(("ckks.encrypt_us", median_us(|| encryptor.encrypt(&pt))));
    out.push(("ckks.decrypt_us", median_us(|| decryptor.decrypt(&ct))));
    Ok(out)
}

/// `ExecEngine::new` once and `execute_sequential` a few times on the
/// probe plan, every output checked.
pub fn backend_layer(base: &Base, tally: &mut Tally) -> Result<BackendObs, String> {
    let (plan, program) = base.probe();
    let t0 = Instant::now();
    let engine = ExecEngine::new(plan.compiled.clone(), &backend(base.probe_degree))
        .map_err(|e| e.to_string())?;
    let mut obs = BackendObs {
        engine_new_ms: vec![ms_since(t0)],
        est_us: plan.compiled.stats.estimated_latency_us,
        ..BackendObs::default()
    };
    let kinds = op_kinds(&plan.compiled.func);
    for _ in 0..BACKEND_RUNS {
        let t0 = Instant::now();
        let result =
            catching(|| execute_sequential(&engine, &program.inputs).map_err(|e| e.to_string()));
        let wall_ms = ms_since(t0);
        if let Ok(run) = &result {
            obs.record_run(wall_ms, run, &kinds);
        }
        tally.record(
            "probe execute",
            &program.reference,
            result.as_ref().map(|r| &r.outputs).map_err(Clone::clone),
            RMS_BOUND,
        );
    }
    Ok(obs)
}

/// One tenant, one worker, solo execution: the probe program once cold
/// (compile + keygen) and then warm, every reply checked.
pub fn runtime_layer(base: &Base, tally: &mut Tally) -> RuntimeObs {
    let (plan, program) = base.probe();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        jobs_per_request: 1,
        max_batch: 1,
        backend: backend(base.probe_degree),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let before = rt.stats();
    let mut obs = RuntimeObs::default();
    for _ in 0..=RUNTIME_HITS {
        let req = request(session, program, plan.waterline, base.probe_degree);
        let t0 = Instant::now();
        let reply = rt
            .run_batch(vec![req])
            .pop()
            .expect("one reply per request");
        let wall_ms = ms_since(t0);
        if let Ok(resp) = &reply {
            obs.record_reply(
                wall_ms,
                resp.run.total_us,
                resp.cache_hit,
                resp.batch_occupancy,
            );
        }
        tally.record(
            "probe request",
            &program.reference,
            reply
                .as_ref()
                .map(|r| &r.run.outputs)
                .map_err(|e| e.to_string()),
            RMS_BOUND,
        );
    }
    obs.take_stats(&before, &rt.stats());
    obs
}

/// The EVA baseline of the workload's plan set.
pub struct EvaBaseline {
    /// Total EVA compile time, and it per program.
    pub compile_ms: f64,
    pub per_program: Vec<(String, f64)>,
    /// Geometric mean over plans of EVA's estimate ÷ HECATE's.
    pub est_speedup_geomean: f64,
}

pub fn eva_baseline(base: &Base) -> Result<EvaBaseline, String> {
    let mut per_program = Vec::new();
    let mut log_sum = 0.0;
    for plan in base.own() {
        let program = &base.programs[plan.program];
        let t0 = Instant::now();
        let eva = compile(
            &program.func,
            Scheme::Eva,
            &options(plan.waterline, plan.degree),
        )
        .map_err(|e| e.to_string())?;
        per_program.push((plan.label(program), ms_since(t0)));
        log_sum += (eva.stats.estimated_latency_us / plan.compiled.stats.estimated_latency_us).ln();
    }
    Ok(EvaBaseline {
        compile_ms: per_program.iter().map(|(_, ms)| ms).sum(),
        per_program,
        est_speedup_geomean: (log_sum / base.own().len() as f64).exp(),
    })
}

/// Median time of `plan_key` (canonical print + FNV) per program of the
/// plan set, in microseconds.
pub fn plan_key_us(base: &Base) -> Vec<(String, f64)> {
    base.own()
        .iter()
        .map(|plan| {
            let program = &base.programs[plan.program];
            let opts = options(plan.waterline, plan.degree);
            let samples: Vec<f64> = (0..PLAN_KEY_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(plan_key(&program.func, Scheme::Hecate, &opts));
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            (plan.label(program), median(&samples))
        })
        .collect()
}
