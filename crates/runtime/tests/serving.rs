//! Serving-layer behavior: single-flight compilation under contention,
//! cache hits on resubmission, session isolation, and a stress run.

use hecate_backend::exec::BackendOptions;
use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::FunctionBuilder;
use hecate_runtime::{PlanCache, Request, Runtime, RuntimeConfig, RuntimeStats, SessionManager};
use hecate_telemetry::{trace, AttrValue, EventKind};
use std::collections::HashMap;
use std::sync::Arc;

fn sample_func(vec: usize) -> hecate_ir::Function {
    let mut b = FunctionBuilder::new("serve", vec);
    let x = b.input_cipher("x");
    let y = b.input_cipher("y");
    let x2 = b.square(x);
    let y2 = b.square(y);
    let s = b.add(x2, y2);
    let c = b.splat(0.25);
    let m = b.mul(s, c);
    b.output(m);
    b.finish()
}

fn sample_inputs(vec: usize) -> HashMap<String, Vec<f64>> {
    let mut m = HashMap::new();
    m.insert("x".to_string(), (0..vec).map(|i| i as f64 * 0.1).collect());
    m.insert(
        "y".to_string(),
        (0..vec).map(|i| 1.0 - i as f64 * 0.05).collect(),
    );
    m
}

fn options() -> CompileOptions {
    let mut o = CompileOptions::with_waterline(22.0);
    o.degree = Some(128);
    o
}

/// Eight threads race a cold cache on the same key: the pipeline must run
/// exactly once, everyone must get the same artifact.
#[test]
fn racing_submissions_compile_exactly_once() {
    let stats = Arc::new(RuntimeStats::new());
    let cache = Arc::new(PlanCache::new(stats.clone()));
    let func = sample_func(8);
    let opts = options();
    let artifacts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let func = func.clone();
                let opts = opts.clone();
                scope.spawn(move || cache.get_or_compile(&func, Scheme::Hecate, &opts).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let snap = stats.snapshot(8);
    assert_eq!(
        snap.compiles, 1,
        "single-flight: one pipeline run for 8 racers"
    );
    assert_eq!(snap.cache_misses, 1);
    assert_eq!(snap.cache_hits + snap.cache_misses, 8);
    let compilers = artifacts.iter().filter(|(_, hit)| !hit).count();
    assert_eq!(compilers, 1, "exactly one racer reports compiling");
    for (a, _) in &artifacts[1..] {
        assert!(
            Arc::ptr_eq(a, &artifacts[0].0),
            "all racers share the artifact"
        );
    }
}

/// The acceptance test: a second submission of an identical program
/// (rebuilt independently) is a cache hit — zero pipeline reruns.
#[test]
fn identical_resubmission_is_a_cache_hit() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let make_req = || Request {
        session,
        func: sample_func(8), // rebuilt from scratch each time
        scheme: Scheme::Hecate,
        options: options(),
        inputs: sample_inputs(8),
        deadline: None,
        max_retries: 0,
    };
    let first = rt.run_batch(vec![make_req()]).remove(0).unwrap();
    assert!(!first.cache_hit);
    let second = rt.run_batch(vec![make_req()]).remove(0).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.plan_key, first.plan_key);
    assert_eq!(
        second.run.outputs, first.run.outputs,
        "same session, same keys"
    );
    let snap = rt.stats();
    assert_eq!(snap.compiles, 1, "no pipeline rerun on resubmission");
    assert_eq!(snap.completed, 2);
    assert_eq!(rt.cached_plans(), 1);
    rt.shutdown();
}

/// Two sessions share the compiled plan but not keys: both decrypt their
/// own results correctly, through engines built from different seeds.
#[test]
fn sessions_share_plans_not_keys() {
    let rt = Runtime::new(RuntimeConfig::default());
    let sa = rt.open_session();
    let sb = rt.open_session();
    let req = |session| Request {
        session,
        func: sample_func(8),
        scheme: Scheme::Pars,
        options: options(),
        inputs: sample_inputs(8),
        deadline: None,
        max_retries: 0,
    };
    let results = rt.run_batch(vec![req(sa), req(sb)]);
    let ra = results[0].as_ref().unwrap();
    let rb = results[1].as_ref().unwrap();
    assert_eq!(ra.plan_key, rb.plan_key, "one plan serves both tenants");
    assert_eq!(rt.stats().compiles, 1);
    // Both tenants decode the same (correct) cleartext result, each under
    // its own keys.
    for (name, va) in &ra.run.outputs {
        let vb = &rb.run.outputs[name];
        for (a, b) in va.iter().zip(vb) {
            assert!((a - b).abs() < 1e-2, "{name}: {a} vs {b}");
        }
    }
    rt.shutdown();
}

/// Unknown sessions are rejected, and a failing compile surfaces as an
/// error without wedging the workers.
#[test]
fn errors_propagate_per_request() {
    let rt = Runtime::new(RuntimeConfig::default());
    let bogus = Request {
        session: 777,
        func: sample_func(8),
        scheme: Scheme::Pars,
        options: options(),
        inputs: sample_inputs(8),
        deadline: None,
        max_retries: 0,
    };
    let err = rt.run_batch(vec![bogus]).remove(0).unwrap_err();
    assert!(matches!(
        err,
        hecate_runtime::RuntimeError::UnknownSession(777)
    ));

    let session = rt.open_session();
    let mut bad_opts = options();
    bad_opts.max_chain_len = 1; // unsatisfiable for this circuit
    let uncompilable = Request {
        session,
        func: sample_func(8),
        scheme: Scheme::Hecate,
        options: bad_opts,
        inputs: sample_inputs(8),
        deadline: None,
        max_retries: 0,
    };
    let err = rt.run_batch(vec![uncompilable]).remove(0).unwrap_err();
    assert!(matches!(err, hecate_runtime::RuntimeError::Compile(_)));

    // The runtime still serves good requests afterwards.
    let ok = Request {
        session,
        func: sample_func(8),
        scheme: Scheme::Pars,
        options: options(),
        inputs: sample_inputs(8),
        deadline: None,
        max_retries: 0,
    };
    assert!(rt.run_batch(vec![ok]).remove(0).is_ok());
    let snap = rt.stats();
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.completed, 1);
    rt.shutdown();
}

/// Session key material is built lazily, once per (session, plan,
/// occupancy), and an occupancy the plan cannot fit is remembered as
/// such: asking again builds nothing.
#[test]
fn engines_are_lazy_and_cached() {
    let mgr = SessionManager::new(42);
    let stats = Arc::new(RuntimeStats::new());
    let cache = PlanCache::new(stats);
    let (artifact, _) = cache
        .get_or_compile(&sample_func(8), Scheme::Pars, &options())
        .unwrap();
    let session = mgr.open();
    assert_eq!(session.engine_count(), 0, "no keys before first use");
    let backend = BackendOptions::default();
    let solo = || {
        session
            .engine(&artifact, 1, &backend)
            .unwrap()
            .expect("occupancy 1 fits")
    };
    let (e1, e2) = (solo(), solo());
    assert!(Arc::ptr_eq(&e1, &e2), "engine (and keys) built once");
    assert_eq!(session.engine_count(), 1);

    // One slot per tenant cannot hold a width-8 vector.
    let one_slot_each = artifact.prog.params.degree / 2;
    let tombstone = || session.engine(&artifact, one_slot_each, &backend).unwrap();
    let ((first, second), events) = trace::capture(|| (tombstone(), tombstone()));
    assert!(
        first.is_none() && second.is_none(),
        "an infeasible occupancy is Ok(None)"
    );
    // Tests running alongside record too: keep this thread's events.
    let tid = events
        .iter()
        .find(|e| {
            e.name == "session-engine"
                && e.attrs
                    .contains(&("occupancy", AttrValue::from(one_slot_each)))
        })
        .expect("the calls record session-engine spans")
        .tid;
    let ends: Vec<_> = events
        .iter()
        .filter(|e| e.tid == tid && e.name == "session-engine" && e.kind == EventKind::End)
        .map(|e| e.attrs.clone())
        .collect();
    assert_eq!(
        ends,
        [
            vec![("built", AttrValue::from(true))],
            vec![("built", AttrValue::from(false))]
        ],
        "the tombstone is built once, then answered from the cache"
    );
    assert_eq!(session.engine_count(), 1, "a tombstone holds no keys");
}

/// Sustained mixed load across sessions and plans. Run explicitly (CI
/// does, in the soaks job): `cargo test -p hecate-runtime --test serving -- --ignored`.
#[test]
#[ignore = "stress run; exercised by the CI soaks job"]
fn stress_mixed_load() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        jobs_per_request: 2,
        ..RuntimeConfig::default()
    });
    let sessions: Vec<_> = (0..4).map(|_| rt.open_session()).collect();
    let mut reqs = Vec::new();
    for round in 0..10 {
        for (k, &session) in sessions.iter().enumerate() {
            let scheme = if (round + k) % 2 == 0 {
                Scheme::Pars
            } else {
                Scheme::Hecate
            };
            reqs.push(Request {
                session,
                func: sample_func(8),
                scheme,
                options: options(),
                inputs: sample_inputs(8),
                deadline: None,
                max_retries: 0,
            });
        }
    }
    let n = reqs.len();
    let results = rt.run_batch(reqs);
    assert_eq!(results.len(), n);
    for r in &results {
        assert!(r.is_ok(), "stress request failed: {:?}", r.as_ref().err());
    }
    let snap = rt.stats();
    assert_eq!(snap.completed as usize, n);
    assert_eq!(
        snap.compiles, 2,
        "two schemes → two plans, each compiled once"
    );
    assert_eq!(snap.queue_depth, 0);
    assert!(snap.peak_queue_depth > 0);
    let json = snap.to_json();
    assert!(json.contains("\"compiles\":2"));
    rt.shutdown();
}
