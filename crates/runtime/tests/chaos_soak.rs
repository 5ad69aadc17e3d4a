//! Resilience of the serving layer under injected failure: panic
//! isolation, deadlines, retries, bounded-queue rejection, cost-priced
//! shedding, and the full chaos soak.
//!
//! The invariant every test here defends: **every submitted request
//! yields exactly one terminal response** — `Ok`, or a typed error
//! (`Panicked`, `TimedOut`, `Exec`, `QueueFull`, `Shed`) — the pool
//! never hangs, and the stats counters reconcile exactly with the
//! response set.

use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::FunctionBuilder;
use hecate_runtime::{
    ChaosKind, ChaosOptions, Request, Runtime, RuntimeConfig, RuntimeError, StatsSnapshot,
};
use std::collections::HashMap;
use std::time::Duration;

fn sample_func(vec: usize) -> hecate_ir::Function {
    let mut b = FunctionBuilder::new("chaos", vec);
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

/// Counters must reconcile exactly with the observed response set.
fn assert_reconciled(
    snap: &StatsSnapshot,
    results: &[Result<hecate_runtime::Response, RuntimeError>],
) {
    let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
    let rejected = results
        .iter()
        .filter(|r| {
            matches!(
                r,
                Err(RuntimeError::Shed { .. }) | Err(RuntimeError::QueueFull { .. })
            )
        })
        .count() as u64;
    let failed = results.iter().filter(|r| r.is_err()).count() as u64 - rejected;
    let panicked = results
        .iter()
        .filter(|r| matches!(r, Err(RuntimeError::Panicked { .. })))
        .count() as u64;
    let timed_out = results
        .iter()
        .filter(|r| matches!(r, Err(RuntimeError::TimedOut { .. })))
        .count() as u64;
    assert_eq!(snap.completed, ok, "completed == Ok responses");
    assert_eq!(snap.failed, failed, "failed == executed-and-errored");
    assert_eq!(snap.shed, rejected, "shed == admission rejections");
    assert_eq!(snap.panics, panicked, "panics == Panicked responses");
    assert_eq!(snap.timeouts, timed_out, "timeouts == TimedOut responses");
    assert_eq!(snap.queue_depth, 0, "queue drains");
}

/// A panicked request is isolated: the worker answers with a typed
/// error, recycles, and the very next request through the same cache and
/// session succeeds — nothing is poisoned.
#[test]
fn panicked_request_does_not_poison_cache_or_session() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions::only(ChaosKind::Panic, 2)),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    // Chaos hits request 0; request 1 runs clean.
    let first = rt.run_batch(vec![request(session)]).remove(0);
    match first {
        Err(RuntimeError::Panicked { ref message }) => {
            assert!(message.contains("injected worker panic"), "{message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let second = rt.run_batch(vec![request(session)]).remove(0).unwrap();
    assert!(
        second.cache_hit,
        "the plan the panicked request compiled survives in the cache"
    );
    let snap = rt.stats();
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.worker_respawns, 1, "the worker recycled");
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.compiles, 1, "one compile serves both requests");
    assert_eq!(rt.cached_plans(), 1);
    rt.shutdown();
}

/// An already-expired deadline fails fast with a typed timeout, before
/// any execution.
#[test]
fn expired_deadline_times_out_in_queue() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let mut req = request(session);
    req.deadline = Some(Duration::ZERO);
    let err = rt.run_batch(vec![req]).remove(0).unwrap_err();
    assert!(matches!(err, RuntimeError::TimedOut { .. }), "{err:?}");
    let snap = rt.stats();
    assert_eq!(snap.timeouts, 1);
    assert_eq!(snap.failed, 1);
    // The runtime still serves afterwards.
    assert!(rt.run_batch(vec![request(session)]).remove(0).is_ok());
    rt.shutdown();
}

/// A deadline that expires mid-request (here: during injected latency)
/// is caught by the executor's cancel token between ops.
#[test]
fn deadline_expires_mid_execution() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions {
            latency: Duration::from_millis(100),
            ..ChaosOptions::only(ChaosKind::Latency, 1)
        }),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    // Warm the plan cache (this request is merely slowed by chaos).
    rt.run_batch(vec![request(session)]).remove(0).unwrap();
    let mut req = request(session);
    req.deadline = Some(Duration::from_millis(20));
    let err = rt.run_batch(vec![req]).remove(0).unwrap_err();
    assert!(matches!(err, RuntimeError::TimedOut { .. }), "{err:?}");
    assert_eq!(rt.stats().timeouts, 1);
    rt.shutdown();
}

/// A transient injected fault (guard trip) recovers on retry: the
/// request re-executes on a fresh engine and succeeds, reporting the
/// attempt count.
#[test]
fn transient_fault_retries_to_success() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions::only(ChaosKind::Fault, 1)),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let mut req = request(session);
    req.max_retries = 1;
    let resp = rt.run_batch(vec![req]).remove(0).unwrap();
    assert_eq!(resp.retries, 1, "recovered on the second attempt");
    let snap = rt.stats();
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 0);
    rt.shutdown();

    // Without a retry budget the same fault is a typed guard error.
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions::only(ChaosKind::Fault, 1)),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let err = rt.run_batch(vec![request(session)]).remove(0).unwrap_err();
    assert!(matches!(err, RuntimeError::Exec(_)), "{err:?}");
    assert_eq!(rt.stats().retries, 0);
    rt.shutdown();
}

/// The bounded queue rejects overflow with a typed error instead of
/// growing without bound (or blocking the submitter).
#[test]
fn full_queue_rejects_with_typed_error() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        queue_capacity: 1,
        chaos: Some(ChaosOptions {
            latency: Duration::from_millis(300),
            ..ChaosOptions::only(ChaosKind::Latency, 1)
        }),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    // First request occupies the worker (chaos latency keeps it busy).
    let rx_a = rt.submit(request(session)).unwrap();
    // Wait until the worker has dequeued it, so the queue is observably
    // empty before we fill it.
    while rt.stats().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let rx_b = rt.submit(request(session)).unwrap(); // fills the queue
    let err = rt.submit(request(session)).unwrap_err(); // overflows
    match err {
        RuntimeError::QueueFull { capacity } => assert_eq!(capacity, 1),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(rt.stats().shed, 1, "rejections count as shed, not failed");
    assert!(rx_a.recv().unwrap().is_ok());
    assert!(rx_b.recv().unwrap().is_ok());
    assert_eq!(rt.stats().failed, 0);
    rt.shutdown();
}

/// Cost-priced admission: once a plan's estimated cost is known (cached),
/// a request pricing above the budget is shed before consuming queue
/// space; unknown plans are always admitted.
#[test]
fn admission_sheds_priced_out_requests() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        // Far below any real plan estimate, so every priced request sheds.
        admission_budget_us: Some(1.0),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    // Unknown plan: admitted (this is how its cost becomes known).
    let first = rt.run_batch(vec![request(session)]).remove(0);
    assert!(first.is_ok(), "unknown plans are always admitted");
    // Known plan: priced against the budget and shed.
    let err = rt.submit(request(session)).unwrap_err();
    match err {
        RuntimeError::Shed {
            estimated_us,
            budget_us,
            ..
        } => {
            assert!(estimated_us > budget_us);
            assert_eq!(budget_us, 1.0);
        }
        other => panic!("expected Shed, got {other:?}"),
    }
    let snap = rt.stats();
    assert_eq!(snap.shed, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 0, "shed requests are not failures");
    rt.shutdown();
}

/// Chaos injections are visible in telemetry: the request span carries a
/// `chaos=<kind>` attr, so a soak's retained traces say *which* requests
/// were hit and how — no guessing from timings.
#[test]
fn chaos_injection_is_attributed_on_the_request_span() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        chaos: Some(ChaosOptions::only(ChaosKind::Fault, 1)),
        // Threshold zero retains every request, so the trace is
        // addressable by the response's correlation id.
        slow_threshold: Some(Duration::ZERO),
        ..RuntimeConfig::default()
    });
    let session = rt.open_session();
    let mut req = request(session);
    req.max_retries = 1;
    let resp = rt.run_batch(vec![req]).remove(0).unwrap();
    assert_eq!(resp.retries, 1, "the fault hit and the retry recovered");
    let trace = hecate_telemetry::recorder::retained_trace(resp.req_id)
        .expect("slow-threshold-zero retains the request");
    let attributed = trace.events.iter().any(|e| {
        e.name == "request"
            && e.attrs
                .iter()
                .any(|(k, v)| *k == "chaos" && v.as_str() == Some("fault"))
    });
    assert!(
        attributed,
        "request span must carry chaos=fault: {:?}",
        trace.events
    );
    rt.shutdown();
}

/// Randomized accounting stress: random chaos policies, deadlines, retry
/// budgets, and queue bounds. Whatever the mix, every request gets
/// exactly one terminal response, the counters reconcile, and shutdown
/// joins cleanly.
#[test]
fn randomized_chaos_accounting_reconciles() {
    // xorshift64*: deterministic, dependency-free randomness.
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545F4914F6CDD1D);
        state
    };
    for round in 0..3 {
        let chaos = ChaosOptions {
            every_nth: 1 + next() % 4,
            mix: match next() % 4 {
                0 => vec![ChaosKind::Fault],
                1 => vec![ChaosKind::Latency],
                2 => vec![ChaosKind::Panic],
                _ => vec![ChaosKind::Fault, ChaosKind::Latency, ChaosKind::Panic],
            },
            latency: Duration::from_millis(1 + next() % 10),
            ..ChaosOptions::default()
        };
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            queue_capacity: 4 + (next() % 32) as usize,
            chaos: Some(chaos),
            ..RuntimeConfig::default()
        });
        let sessions = [rt.open_session(), rt.open_session()];
        let reqs: Vec<Request> = (0..16)
            .map(|i| {
                let mut req = request(sessions[i % 2]);
                req.deadline = match next() % 3 {
                    0 => None,
                    1 => Some(Duration::from_millis(1 + next() % 5)),
                    _ => Some(Duration::from_secs(30)),
                };
                req.max_retries = (next() % 3) as u32;
                req
            })
            .collect();
        let n = reqs.len();
        let results = rt.run_batch(reqs);
        assert_eq!(results.len(), n, "round {round}: one response each");
        for r in &results {
            // Every terminal outcome is a typed one.
            match r {
                Ok(_)
                | Err(RuntimeError::Panicked { .. })
                | Err(RuntimeError::TimedOut { .. })
                | Err(RuntimeError::Exec(_))
                | Err(RuntimeError::QueueFull { .. })
                | Err(RuntimeError::Shed { .. }) => {}
                other => panic!("round {round}: unexpected outcome {other:?}"),
            }
        }
        assert_reconciled(&rt.stats(), &results);
        rt.shutdown(); // must join, not hang
    }
}

/// The acceptance soak: 500 requests with ~10% injected failures
/// (rotating fault/latency/panic), retry budget 1. Zero hangs, exactly
/// one terminal response per request, and fully deterministic counters:
/// the chaos sequence hits every 10th request, so of 50 hits 17 are
/// faults (all recovered by retry), 17 latency (merely slowed), and 16
/// panics (isolated, worker recycled). Run explicitly (CI does, in the
/// soaks job): `cargo test -p hecate-runtime --test chaos_soak -- --ignored`.
#[test]
#[ignore = "soak run; exercised by the CI soaks job"]
fn chaos_soak_500() {
    let rt = Runtime::new(RuntimeConfig {
        workers: 4,
        chaos: Some(ChaosOptions::default()), // every 10th, rotating mix
        ..RuntimeConfig::default()
    });
    let sessions = [rt.open_session(), rt.open_session()];
    let reqs: Vec<Request> = (0..500)
        .map(|i| {
            let mut req = request(sessions[i % 2]);
            req.max_retries = 1;
            req
        })
        .collect();
    let results = rt.run_batch(reqs);
    assert_eq!(results.len(), 500, "exactly one response per request");
    assert_reconciled(&rt.stats(), &results);

    let snap = rt.stats();
    assert_eq!(snap.completed, 484, "500 - 16 panic hits");
    assert_eq!(snap.failed, 16, "only the panic hits fail");
    assert_eq!(snap.panics, 16);
    assert_eq!(snap.worker_respawns, 16, "every panic recycles a worker");
    assert_eq!(snap.retries, 17, "every fault hit recovers on retry");
    assert_eq!(snap.timeouts, 0);
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.compiles, 1, "single-flight holds under chaos");
    for r in results {
        if let Err(e) = r {
            assert!(
                matches!(e, RuntimeError::Panicked { .. }),
                "only panics may fail in this configuration: {e:?}"
            );
        }
    }
    rt.shutdown();
}
