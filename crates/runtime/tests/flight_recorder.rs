//! Flight-recorder integration: correlation ids on responses, tail-based
//! retention for every interesting-request class (slow, shed, timed-out,
//! guard-failed, panicked), the live diagnostics snapshot, the crash
//! black box, and the bounded-memory soak.
//!
//! The recorder is process-global (each live runtime holds it at level
//! `Ring`), so every test here serializes on one mutex and clears
//! recorder state before it starts — retained traces are then
//! attributable to this test alone.

use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::FunctionBuilder;
use hecate_runtime::{
    ChaosKind, ChaosOptions, DiagOptions, Request, Runtime, RuntimeConfig, RuntimeError,
};
use hecate_telemetry::recorder;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests: recorder state is process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn sample_func(vec: usize) -> hecate_ir::Function {
    let mut b = FunctionBuilder::new("flightrec", vec);
    let x = b.input_cipher("x");
    let sq = b.square(x);
    b.output(sq);
    b.finish()
}

fn sample_inputs(vec: usize) -> HashMap<String, Vec<f64>> {
    let mut m = HashMap::new();
    m.insert("x".to_string(), (0..vec).map(|i| i as f64 * 0.1).collect());
    m
}

fn options() -> CompileOptions {
    let mut o = CompileOptions::with_waterline(22.0);
    o.degree = Some(128);
    o
}

fn request(session: u64) -> Request {
    Request {
        session,
        func: sample_func(8),
        scheme: Scheme::Pars,
        options: options(),
        inputs: sample_inputs(8),
        deadline: None,
        max_retries: 0,
    }
}

/// With no slow threshold (the default), a healthy request leaves
/// nothing behind: the ring decays it, the retained store stays empty.
#[test]
fn ok_requests_are_not_retained_by_default() {
    let _g = locked();
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let resp = rt.run_batch(vec![request(session)]).remove(0).unwrap();
    assert!(resp.req_id > 0, "every admitted request gets a req_id");
    assert!(
        recorder::retained_trace(resp.req_id).is_none(),
        "healthy fast requests must not be promoted"
    );
    rt.shutdown();
}

/// A request over the slow threshold is promoted with its full span
/// tree, looked up by the correlation id the response carries.
#[test]
fn slow_request_retains_the_full_span_tree() {
    let _g = locked();
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        // Threshold zero makes every latency "slow", so the trace can be
        // looked up by the response's req_id.
        slow_threshold: Some(Duration::ZERO),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let resp = rt.run_batch(vec![request(session)]).remove(0).unwrap();
    let trace = recorder::retained_trace(resp.req_id).expect("slow trace retained");
    assert_eq!(trace.reason, "slow");
    assert_eq!(trace.req_id, resp.req_id);
    let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
    assert_eq!(
        names.iter().filter(|n| **n == "request").count(),
        2,
        "request span begin + end both promoted: {names:?}"
    );
    assert!(
        names.contains(&"execute"),
        "backend executor spans carry the correlation id: {names:?}"
    );
    // The one `execute` span site: shape of the run on the begin event,
    // predicted (`est_us`) next to actual (`total_us`) once it ends.
    let execute_keys: Vec<&str> = trace
        .events
        .iter()
        .filter(|e| e.name == "execute")
        .flat_map(|e| e.attrs.iter().map(|(k, _)| *k))
        .collect();
    for key in ["occupancy", "est_us", "total_us", "min_margin_bits"] {
        assert!(
            execute_keys.contains(&key),
            "execute span lacks {key}: {execute_keys:?}"
        );
    }
    assert!(
        names.contains(&"queue-wait"),
        "queue-wait complete event carries the correlation id: {names:?}"
    );
    assert!(
        trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "retained events are time-sorted"
    );
    rt.shutdown();
}

/// Every failure class is promoted under its own reason, without any
/// slow threshold configured.
#[test]
fn failure_classes_are_retained_under_their_reason() {
    let _g = locked();

    // Shed: admission prices out a known plan.
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        admission_budget_us: Some(1.0),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    rt.run_batch(vec![request(session)]).remove(0).unwrap();
    let err = rt.submit(request(session)).unwrap_err();
    assert!(matches!(err, RuntimeError::Shed { .. }), "{err:?}");
    let shed: Vec<_> = recorder::retained_index()
        .into_iter()
        .filter(|s| s.reason == "shed")
        .collect();
    assert_eq!(shed.len(), 1, "the shed request was promoted");
    let trace = recorder::retained_trace(shed[0].req_id).unwrap();
    assert!(
        trace.events.iter().any(|e| e.name == "shed"),
        "the shed mark itself is in the retained trace"
    );
    rt.shutdown();

    // Timed out: an already-expired deadline.
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let mut req = request(session);
    req.deadline = Some(Duration::ZERO);
    let err = rt.run_batch(vec![req]).remove(0).unwrap_err();
    assert!(matches!(err, RuntimeError::TimedOut { .. }), "{err:?}");
    assert!(
        recorder::retained_index()
            .iter()
            .any(|s| s.reason == "timed-out"),
        "timed-out requests are promoted"
    );
    rt.shutdown();

    // Guard-failed: an injected fault, a final typed failure.
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions::only(ChaosKind::Fault, 1)),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let err = rt.run_batch(vec![request(session)]).remove(0).unwrap_err();
    assert!(matches!(err, RuntimeError::Exec(_)), "{err:?}");
    assert!(
        recorder::retained_index()
            .iter()
            .any(|s| s.reason == "guard-failed"),
        "guard failures are promoted"
    );
    rt.shutdown();
}

/// A panicking request writes a black box before the worker recycles:
/// the dump names the request, carries its retained span tree, and
/// embeds a full diagnostics report. Shutdown then leaves a final
/// periodic snapshot behind.
#[test]
fn panicked_request_writes_a_black_box() {
    let _g = locked();
    recorder::clear();
    let dir = std::env::temp_dir().join(format!("hecate-blackbox-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions::only(ChaosKind::Panic, 2)),
        diag: Some(DiagOptions {
            dir: dir.clone(),
            // Longer than the test: only the final shutdown dump fires.
            interval: Duration::from_secs(3600),
        }),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let err = rt.run_batch(vec![request(session)]).remove(0).unwrap_err();
    assert!(matches!(err, RuntimeError::Panicked { .. }), "{err:?}");

    let panicked: Vec<_> = recorder::retained_index()
        .into_iter()
        .filter(|s| s.reason == "panicked")
        .collect();
    assert_eq!(panicked.len(), 1, "the panicked request was promoted");
    let req_id = panicked[0].req_id;

    let path = dir.join(format!("blackbox-req{req_id}.json"));
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("black box missing at {}: {e}", path.display()));
    assert!(body.starts_with(&format!("{{\"req_id\":{req_id},\"reason\":\"panicked\"")));
    assert!(
        body.contains("injected worker panic"),
        "the panic message is in the dump"
    );
    assert!(
        body.contains("\"trace\":[{"),
        "the retained span tree is in the dump (non-empty)"
    );
    assert!(
        body.contains("\"name\":\"request\""),
        "the request span is in the dumped trace"
    );
    assert!(
        body.contains("\"diagnostics\":{\"generated_ns\":"),
        "a full diagnostics report is embedded"
    );

    rt.shutdown();
    // Drop raised the dumper's stop flag; it writes one last snapshot.
    let final_dump = dir.join("diag-000000.json");
    let body = std::fs::read_to_string(&final_dump)
        .unwrap_or_else(|e| panic!("final diag dump missing at {}: {e}", final_dump.display()));
    assert!(body.starts_with("{\"generated_ns\":"));
    assert!(body.contains("\"recorder\":{"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Runtime::diagnose` reflects live state: queue depth, plan cache,
/// per-session margins, recorder occupancy, and SLO burn — and it reads
/// the same metric snapshot as `Runtime::stats`.
#[test]
fn diagnose_reports_live_state() {
    let _g = locked();
    recorder::clear();
    let workers = 2;
    let mut config = RuntimeConfig {
        workers,
        // Absurdly loose objective: burn must come out far below 1.
        slo_target_us: Some(60_000_000.0),
        ..RuntimeConfig::default()
    };
    // Unset: kernels run serially, so the gauge says 1.
    config.backend.kernel_jobs = 0;
    let rt = Runtime::new(config);
    assert_eq!(rt.stats().kernel_jobs, 1);
    let session = rt.open_session();
    let reqs: Vec<Request> = (0..3).map(|_| request(session)).collect();
    for r in rt.run_batch(reqs) {
        r.unwrap();
    }
    let d = rt.diagnose();
    assert_eq!(d.stats.workers, workers);
    assert_eq!(d.stats.queue_depth, 0, "queue drained");
    assert_eq!(
        d.queue_capacity,
        hecate_runtime::pool::DEFAULT_QUEUE_CAPACITY
    );
    assert_eq!(d.stats.completed, 3);
    assert_eq!(d.plan_cache.entries.len(), 1, "one cached plan");
    assert!(d.plan_cache.entries[0].estimated_latency_us > 0.0);
    assert_eq!(d.stats.session_margins.len(), 1);
    assert_eq!(d.stats.session_margins[0].0, session);
    assert!(d.recorder.enabled, "recorder is on while the runtime lives");
    assert!(d.recorder.ring_events > 0, "the rings saw this traffic");
    assert_eq!(d.slo.window, 3);
    let p99 = d.slo.p99_us.expect("p99 over a non-empty window");
    let burn = d.slo.burn.expect("burn with a target configured");
    assert!(burn > 0.0 && burn < 1.0, "p99 {p99} µs vs 60 s target");
    let json = d.to_json();
    assert!(json.starts_with("{\"generated_ns\":"));
    assert!(
        json.contains("\"queue\":{\"depth\":0,\"capacity\":4096}"),
        "{json}"
    );
    assert!(json.contains("\"stats\":{"));
    rt.shutdown();
}

/// The runtime's `Ring` hold is released on shutdown: with no other
/// holder the store goes back to `Off` and span sites stop recording.
#[test]
fn shutdown_releases_the_recorder_hold() {
    let _g = locked();
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    assert_eq!(recorder::level(), recorder::Level::Ring);
    rt.shutdown();
    assert_eq!(recorder::level(), recorder::Level::Off);
}

/// The acceptance soak: 10k requests through an always-on recorder.
/// Memory stays bounded — the rings never exceed their per-thread
/// capacity, the retained store never exceeds its bound — and every
/// request still succeeds. Run explicitly (CI does, in the
/// soaks job):
/// `cargo test -p hecate-runtime --test flight_recorder -- --ignored`.
#[test]
#[ignore = "soak run; exercised by the CI soaks job"]
fn recorder_soak_10k_stays_bounded() {
    let _g = locked();
    recorder::clear();
    let rt = Runtime::new(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    });
    let sessions = [rt.open_session(), rt.open_session()];
    const TOTAL: usize = 10_000;
    const CHUNK: usize = 500;
    let mut ok = 0usize;
    for chunk in 0..TOTAL / CHUNK {
        let reqs: Vec<Request> = (0..CHUNK)
            .map(|i| request(sessions[(chunk * CHUNK + i) % 2]))
            .collect();
        for r in rt.run_batch(reqs) {
            r.unwrap();
            ok += 1;
        }
        // The bound must hold *throughout* the soak, not just at the end.
        assert!(
            recorder::ring_event_count() <= recorder::segment_count() * recorder::ring_capacity(),
            "rings exceeded their bound mid-soak"
        );
    }
    assert_eq!(ok, TOTAL);
    assert_eq!(rt.stats().completed, TOTAL as u64);
    assert!(
        recorder::overwritten_events() > 0,
        "10k requests must have decayed events out of the rings"
    );
    assert!(
        recorder::retained_index().len() <= recorder::RETAINED_CAPACITY,
        "retained store respects its bound"
    );
    assert!(
        recorder::retained_index().is_empty(),
        "healthy traffic with no slow threshold promotes nothing"
    );
    rt.shutdown();
}
