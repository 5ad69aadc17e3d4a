//! Scheduler-level slot batching: coalescing compatible requests into one
//! packed execution, demux correctness against the plaintext reference,
//! stats accounting, and the degradation paths (chaos member, expired
//! deadline, infeasible footprint, packed plan over the noise budget).

use hecate_backend::noise::predict_rms;
use hecate_compiler::{compile, CompileOptions, Scheme};
use hecate_ir::interp::interpret;
use hecate_ir::FunctionBuilder;
use hecate_runtime::{ChaosKind, ChaosOptions, Request, Runtime, RuntimeConfig, RuntimeError};
use std::collections::HashMap;
use std::time::Duration;

/// A small rotation-bearing pipeline (the rotate exercises the packed
/// guard bands end to end).
fn batched_func() -> hecate_ir::Function {
    let mut b = FunctionBuilder::new("batched", 8);
    let x = b.input_cipher("x");
    let y = b.input_cipher("y");
    let r = b.rotate(x, 1);
    let s = b.add(x, r);
    let y2 = b.square(y);
    let m = b.add(s, y2);
    b.output(m);
    b.finish()
}

fn options() -> CompileOptions {
    let mut o = CompileOptions::with_waterline(22.0);
    // Degree 256 gives 128 slots: occupancy 4 leaves 32-slot blocks,
    // comfortably above the plan's 9-slot footprint.
    o.degree = Some(256);
    o
}

/// Per-member inputs: member `t` rotates the base vectors by `t`, so
/// members are distinct but share the magnitude profile.
fn member_inputs(t: usize) -> HashMap<String, Vec<f64>> {
    let base_x: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 - 0.3).collect();
    let base_y: Vec<f64> = (0..8).map(|i| 0.7 - 0.05 * i as f64).collect();
    let rot = |v: &[f64]| {
        let mut v = v.to_vec();
        let by = t % v.len();
        v.rotate_left(by);
        v
    };
    let mut m = HashMap::new();
    m.insert("x".to_string(), rot(&base_x));
    m.insert("y".to_string(), rot(&base_y));
    m
}

fn request(session: u64, t: usize) -> Request {
    Request {
        session,
        func: batched_func(),
        scheme: Scheme::Pars,
        options: options(),
        inputs: member_inputs(t),
        deadline: None,
        max_retries: 0,
    }
}

fn batching_config(max_batch: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers: 1, // one worker makes the coalescing deterministic
        max_batch,
        batch_window: Duration::from_millis(200),
        ..RuntimeConfig::default()
    }
}

#[test]
fn coalesced_batch_serves_every_member_correctly() {
    // A packed run's engine stripes its kernels over `jobs_per_request`
    // threads like a solo one's — and must not change a bit for it.
    let mut one_thread: Vec<HashMap<String, Vec<f64>>> = Vec::new();
    for jobs_per_request in [1, 4] {
        let rt = Runtime::new(RuntimeConfig {
            jobs_per_request,
            ..batching_config(4)
        });
        let sessions: Vec<u64> = (0..4).map(|_| rt.open_session()).collect();
        let reqs: Vec<Request> = sessions
            .iter()
            .enumerate()
            .map(|(t, &s)| request(s, t))
            .collect();
        let responses = rt.run_batch(reqs);
        for (t, resp) in responses.into_iter().enumerate() {
            let resp = resp.unwrap_or_else(|e| panic!("member {t}: {e}"));
            assert_eq!(resp.batch_occupancy, 4, "member {t} not batched");
            let truth = interpret(&batched_func(), &member_inputs(t)).unwrap();
            for (name, expected) in &truth {
                let got = &resp.run.outputs[name];
                let rms = hecate_backend::rms_error(&got[..expected.len()], expected);
                assert!(rms < 1e-2, "member {t} output {name}: rms {rms}");
            }
            if jobs_per_request == 1 {
                one_thread.push(resp.run.outputs);
            } else {
                assert_eq!(
                    resp.run.outputs, one_thread[t],
                    "member {t}: {jobs_per_request} threads changed the packed result"
                );
            }
        }
        let snap = rt.stats();
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.batched_requests, 4);
        assert_eq!(snap.batches_executed, 1);
        assert_eq!(snap.batch_occupancy_buckets[2], 1, "one occupancy-4 batch");
        rt.shutdown();
    }
}

#[test]
fn default_config_stays_solo() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.open_session();
    let responses = rt.run_batch(vec![request(s, 0), request(s, 1)]);
    for resp in responses {
        assert_eq!(resp.unwrap().batch_occupancy, 1);
    }
    let snap = rt.stats();
    assert_eq!(snap.batched_requests, 0);
    assert_eq!(snap.batches_executed, 0);
    rt.shutdown();
}

/// One member draws an injected panic at collection: it fails alone with
/// a typed `Panicked` response while the remaining members still complete
/// (two batched, one solo — 3 does not make a power-of-two batch).
#[test]
fn chaos_member_degrades_without_poisoning_the_batch() {
    let rt = Runtime::new(RuntimeConfig {
        chaos: Some(ChaosOptions::only(ChaosKind::Panic, 4)),
        ..batching_config(4)
    });
    let sessions: Vec<u64> = (0..4).map(|_| rt.open_session()).collect();
    let reqs: Vec<Request> = sessions
        .iter()
        .enumerate()
        .map(|(t, &s)| request(s, t))
        .collect();
    let responses = rt.run_batch(reqs);
    let mut panicked = 0;
    let mut occupancies = Vec::new();
    for resp in responses {
        match resp {
            Ok(r) => occupancies.push(r.batch_occupancy),
            Err(RuntimeError::Panicked { .. }) => panicked += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    occupancies.sort_unstable();
    assert_eq!(panicked, 1, "exactly the injected member fails");
    assert_eq!(occupancies, vec![1, 2, 2], "two batched, one solo");
    let snap = rt.stats();
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.batches_executed, 1);
    assert_eq!(snap.batched_requests, 2);
    rt.shutdown();
}

/// A member whose deadline expired in the queue fails fast with a typed
/// timeout and never holds the batch its peers form.
#[test]
fn expired_member_times_out_while_peers_complete() {
    let rt = Runtime::new(batching_config(4));
    let sessions: Vec<u64> = (0..4).map(|_| rt.open_session()).collect();
    let reqs: Vec<Request> = sessions
        .iter()
        .enumerate()
        .map(|(t, &s)| {
            let mut r = request(s, t);
            if t == 3 {
                r.deadline = Some(Duration::ZERO);
            }
            r
        })
        .collect();
    let responses = rt.run_batch(reqs);
    let mut timed_out = 0;
    let mut ok = 0;
    for resp in responses {
        match resp {
            Ok(_) => ok += 1,
            Err(RuntimeError::TimedOut { .. }) => timed_out += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(timed_out, 1);
    assert_eq!(ok, 3);
    let snap = rt.stats();
    assert_eq!(snap.timeouts, 1);
    assert_eq!(snap.batches_executed, 1);
    rt.shutdown();
}

/// Occupancy changes the noise prediction: under a budget the solo plan
/// meets but the packed one exceeds, the packed engine is refused at
/// build and every member is served, correctly, alone.
#[test]
fn packed_engine_over_the_noise_budget_degrades_to_solo() {
    let prog = compile(&batched_func(), Scheme::Pars, &options()).unwrap();
    let worst = |occupancy| {
        predict_rms(&prog, prog.params.degree, occupancy, None)
            .into_iter()
            .fold(0.0, f64::max)
    };
    let (solo, packed) = (worst(1), worst(2));
    assert!(
        packed > solo,
        "packing raises the prediction: {solo} vs {packed}"
    );
    let mut config = batching_config(2);
    config.backend.guard.max_rms = Some(solo);
    let rt = Runtime::new(config);
    let sessions = [rt.open_session(), rt.open_session()];
    let reqs = (0..2).map(|t| request(sessions[t], t)).collect();
    for (t, resp) in rt.run_batch(reqs).into_iter().enumerate() {
        let resp = resp.unwrap_or_else(|e| panic!("member {t}: {e}"));
        assert_eq!(resp.batch_occupancy, 1, "member {t} must run solo");
        let truth = interpret(&batched_func(), &member_inputs(t)).unwrap();
        for (name, expected) in &truth {
            let got = &resp.run.outputs[name];
            let rms = hecate_backend::rms_error(&got[..expected.len()], expected);
            assert!(rms < 1e-2, "member {t} output {name}: rms {rms}");
        }
    }
    let snap = rt.stats();
    assert_eq!((snap.completed, snap.batches_executed), (2, 0));
    rt.shutdown();
}

/// A plan whose slot footprint cannot fit any packed block degrades every
/// member to correct solo service instead of failing or miscomputing.
#[test]
fn infeasible_footprint_degrades_to_solo() {
    // width 16 with rotate(8): the footprint needs 24 slots per block,
    // but degree 64 (32 slots) at occupancy 2 leaves 16-slot blocks.
    let mut b = FunctionBuilder::new("wide", 16);
    let x = b.input_cipher("x");
    let r = b.rotate(x, 8);
    let s = b.add(x, r);
    b.output(s);
    let func = b.finish();
    let mut opts = CompileOptions::with_waterline(22.0);
    opts.degree = Some(64);
    let inputs: HashMap<String, Vec<f64>> =
        [("x".to_string(), (0..16).map(|i| 0.05 * i as f64).collect())].into();

    let rt = Runtime::new(batching_config(2));
    let s1 = rt.open_session();
    let s2 = rt.open_session();
    let make = |session| Request {
        session,
        func: func.clone(),
        scheme: Scheme::Pars,
        options: opts.clone(),
        inputs: inputs.clone(),
        deadline: None,
        max_retries: 0,
    };
    let responses = rt.run_batch(vec![make(s1), make(s2)]);
    for resp in responses {
        let resp = resp.unwrap();
        assert_eq!(resp.batch_occupancy, 1, "infeasible plan must run solo");
        let truth = interpret(&func, &inputs).unwrap();
        let got = &resp.run.outputs["out0"];
        assert!(hecate_backend::rms_error(&got[..16], &truth["out0"]) < 1e-2);
    }
    let snap = rt.stats();
    assert_eq!(snap.batches_executed, 0);
    assert_eq!(snap.completed, 2);
    rt.shutdown();
}
