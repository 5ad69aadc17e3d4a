//! A retry re-runs on the session's cached engine. Engines are immutable
//! and deterministic in plan, seed and occupancy, so a rebuilt one would
//! be bit-identical and only pay for key generation again; the chaos
//! fault engine is one-off and never cached, so a chaos retry still
//! recovers on the clean engine.

use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::FunctionBuilder;
use hecate_runtime::{plan_key, ChaosKind, ChaosOptions, Request, Runtime, RuntimeConfig};
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
        max_retries: 1,
    }
}

/// One clean request builds the session's engine; a later chaos-fault
/// request fails once on its one-off engine and retries on the cached
/// one, building nothing.
#[test]
fn a_retry_reuses_the_cached_engine() {
    // Every request draws an injection; the first draws a zero-length
    // latency (a clean run), the second the default guard-tripping fault.
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
    let ((warm, retried), events) = trace::capture(|| {
        let warm = rt.run_batch(vec![req.clone()]).remove(0).unwrap();
        let retried = rt.run_batch(vec![req]).remove(0).unwrap();
        (warm, retried)
    });
    assert_eq!((warm.retries, retried.retries), (0, 1));
    assert_eq!(rt.stats().retries, 1);
    assert_eq!(
        warm.run.outputs, retried.run.outputs,
        "same engine, same result"
    );

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
        "the warm-up builds the engine; the retry finds it cached"
    );
}
