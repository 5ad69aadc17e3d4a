//! A session's cached engine serves every clean request. Engines are
//! immutable and deterministic in plan, seed and occupancy, so a rebuilt
//! one would be bit-identical and only pay for key generation again; the
//! chaos fault engine is one-off and never cached, so the tenant's next
//! clean request runs on the clean engine.

use hecate_backend::exec::ExecError;
use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::FunctionBuilder;
use hecate_runtime::{
    plan_key, ChaosKind, ChaosOptions, Request, Runtime, RuntimeConfig, RuntimeError,
};
use hecate_telemetry::{trace, AttrValue};
use std::collections::HashMap;
use std::time::Duration;

fn request(session: u64) -> Request {
    let mut b = FunctionBuilder::new("reuse", 8);
    let x = b.input_cipher("x");
    let sq = b.square(x);
    b.output(sq);
    let mut options = CompileOptions::with_waterline(22.0);
    options.degree = Some(128);
    let mut inputs = HashMap::new();
    inputs.insert("x".to_string(), vec![0.5; 8]);
    Request {
        session,
        func: b.finish(),
        scheme: Scheme::Pars,
        options,
        inputs,
        deadline: None,
        max_retries: 0,
    }
}

/// One clean request builds the session's engine; a chaos-fault request
/// then fails, final and typed, on its one-off engine; the next clean
/// request finds the cached engine, building nothing, and returns the
/// warm run's bits: the fault engine was never cached.
#[test]
fn a_fault_engine_is_never_cached() {
    // Every request draws an injection, rotating a zero-length latency
    // (a clean run) and the default guard-tripping fault.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions {
            every_nth: 1,
            mix: vec![ChaosKind::Latency, ChaosKind::Fault],
            latency: Duration::ZERO,
            ..ChaosOptions::default()
        }),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let req = request(session);
    let key = plan_key(&req.func, req.scheme, &req.options);
    let ((warm, faulted, clean), events) = trace::capture(|| {
        let warm = rt.run_batch(vec![req.clone()]).remove(0).unwrap();
        let faulted = rt.run_batch(vec![req.clone()]).remove(0);
        let clean = rt.run_batch(vec![req]).remove(0).unwrap();
        (warm, faulted, clean)
    });
    assert!(
        matches!(
            faulted,
            Err(RuntimeError::Exec(ExecError::Guard { at: 0, .. }))
        ),
        "{faulted:?}"
    );
    let bits = |run: &hecate_backend::EncryptedRun| -> Vec<u64> {
        run.outputs["out0"].iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&warm.run), bits(&clean.run), "same engine, same bits");

    let spans = trace::pair_spans(&events).expect("balanced trace");
    let plan = AttrValue::from(key);
    let built: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "session-engine" && s.attr("plan_key") == Some(&plan))
        .map(|s| s.attr("built") == Some(&AttrValue::from(true)))
        .collect();
    assert_eq!(
        built,
        [true, false],
        "the warm-up builds the engine; the clean request finds it cached"
    );
}
