//! Contention stress for the runtime's one job queue: many workers,
//! mixed plans and sessions, batched and solo traffic submitted from
//! concurrent producers. Pins the three liveness/accounting properties
//! the queue must keep: every request gets exactly one terminal
//! response, no job is stranded while a worker sleeps (no lost
//! wakeups), and the stats conserve (completed + failed = submitted,
//! queue drains to zero).

use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::{Function, FunctionBuilder};
use hecate_runtime::{Request, Runtime, RuntimeConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn options() -> CompileOptions {
    let mut o = CompileOptions::with_waterline(22.0);
    o.degree = Some(256);
    o
}

/// Three structurally distinct programs so the traffic spans several
/// plan keys (coalescing only merges same-key requests).
fn func_square() -> Function {
    let mut b = FunctionBuilder::new("sq", 8);
    let x = b.input_cipher("x");
    let s = b.square(x);
    b.output(s);
    b.finish()
}

fn func_rotate() -> Function {
    let mut b = FunctionBuilder::new("rot", 8);
    let x = b.input_cipher("x");
    let r = b.rotate(x, 1);
    let s = b.add(x, r);
    b.output(s);
    b.finish()
}

fn func_chain() -> Function {
    let mut b = FunctionBuilder::new("chain", 8);
    let x = b.input_cipher("x");
    let y = b.input_cipher("y");
    let s = b.add(x, y);
    let q = b.square(s);
    b.output(q);
    b.finish()
}

fn inputs_for(func: &Function, salt: usize) -> HashMap<String, Vec<f64>> {
    let mut m = HashMap::new();
    for op in func.ops() {
        if let hecate_ir::Op::Input { name } = op {
            m.entry(name.clone()).or_insert_with(|| {
                (0..8)
                    .map(|i| 0.05 * ((i + salt) % 11) as f64 - 0.2)
                    .collect()
            });
        }
    }
    m
}

fn request(session: u64, func: Function, salt: usize) -> Request {
    let inputs = inputs_for(&func, salt);
    Request {
        session,
        func,
        scheme: Scheme::Pars,
        options: options(),
        inputs,
        deadline: None,
        max_retries: 0,
    }
}

/// Eight workers, three plans, eight sessions, six concurrent producers,
/// coalescing enabled: every submission receives exactly one terminal
/// response, within a wall-clock bound, and the counters conserve.
#[test]
fn eight_worker_mixed_contention_conserves_every_request() {
    const PRODUCERS: usize = 6;
    const PER_PRODUCER: usize = 8;
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        workers: 8,
        max_batch: 4,
        batch_window: Duration::from_millis(20),
        ..RuntimeConfig::default()
    }));
    let sessions: Vec<u64> = (0..8).map(|_| rt.open_session()).collect();

    // Warm the plan cache so the stress phase measures queue contention,
    // not three single-flighted compiles.
    let warm = vec![
        request(sessions[0], func_square(), 0),
        request(sessions[1], func_rotate(), 1),
        request(sessions[2], func_chain(), 2),
    ];
    for r in rt.run_batch(warm) {
        r.expect("warmup request");
    }
    let warmed = rt.stats().compiles;

    let t0 = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let rt = rt.clone();
            let sessions = sessions.clone();
            std::thread::spawn(move || {
                let receivers: Vec<_> = (0..PER_PRODUCER)
                    .map(|i| {
                        let salt = p * PER_PRODUCER + i;
                        let func = match salt % 3 {
                            0 => func_square(),
                            1 => func_rotate(),
                            _ => func_chain(),
                        };
                        let session = sessions[salt % sessions.len()];
                        rt.submit(request(session, func, salt))
                            .expect("unbounded-enough queue admits everything")
                    })
                    .collect();
                let mut ok = 0usize;
                for rx in receivers {
                    // Exactly one terminal response: the first recv yields
                    // it, the second proves the channel closes without a
                    // duplicate.
                    let resp = rx.recv().expect("a terminal response arrives");
                    resp.expect("request succeeds");
                    ok += 1;
                    assert!(rx.recv().is_err(), "duplicate terminal response");
                }
                ok
            })
        })
        .collect();
    let served: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = t0.elapsed();

    assert_eq!(served, PRODUCERS * PER_PRODUCER);
    // No lost wakeups: with every plan cached, 48 tiny requests must not
    // be anywhere near a stuck condvar's timescale.
    assert!(
        elapsed < Duration::from_secs(120),
        "stress phase took {elapsed:?} — jobs were stranded"
    );
    let snap = rt.stats();
    assert_eq!(
        snap.completed as usize,
        3 + PRODUCERS * PER_PRODUCER,
        "warmup + stress all completed"
    );
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.shed, 0);
    assert_eq!(snap.timeouts, 0);
    assert_eq!(snap.queue_depth, 0, "queue drains to zero");
    assert_eq!(
        rt.stats().compiles,
        warmed,
        "stress phase is all cache hits"
    );
    Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
}

/// A worker holding a coalescing window open takes only same-plan jobs
/// out of the queue: incompatible jobs keep their place, and an idle
/// peer serves them promptly — well before the window expires — instead
/// of them waiting behind the coalescer.
#[test]
fn jobs_a_coalescer_skips_are_served_by_idle_peer() {
    let window = Duration::from_secs(2);
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        max_batch: 2,
        batch_window: window,
        ..RuntimeConfig::default()
    });
    let s_a = rt.open_session();
    let s_b = rt.open_session();

    // Warm both plans (pairs coalesce immediately at max_batch, so the
    // warmup never waits out a window).
    for r in rt.run_batch(vec![
        request(s_a, func_square(), 0),
        request(s_a, func_square(), 1),
    ]) {
        r.expect("warmup A");
    }
    for r in rt.run_batch(vec![
        request(s_b, func_rotate(), 2),
        request(s_b, func_rotate(), 3),
    ]) {
        r.expect("warmup B");
    }

    // One lone A request opens a coalescing window on some worker and
    // holds it for the full 2 s (no partner ever arrives).
    let rx_a = rt.submit(request(s_a, func_square(), 4)).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Incompatible B requests land while the window is open. The
    // coalescer leaves them queued; the idle peer must take them.
    let t0 = Instant::now();
    let rx_b: Vec<_> = (0..2)
        .map(|i| rt.submit(request(s_b, func_rotate(), 5 + i)).unwrap())
        .collect();
    for rx in rx_b {
        rx.recv().expect("terminal response").expect("B succeeds");
    }
    let waited = t0.elapsed();
    assert!(
        waited < window,
        "skipped jobs waited {waited:?} — longer than the {window:?} \
         window, so only the coalescer ever served them"
    );

    // The window holder still completes its own request afterwards.
    rx_a.recv().expect("terminal response").expect("A succeeds");
    let snap = rt.stats();
    assert_eq!(snap.completed, 7);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.queue_depth, 0);
    rt.shutdown();
}
