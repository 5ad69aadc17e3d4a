//! Tracer contract under concurrency: spans recorded from many threads
//! at once produce a well-formed trace (every end matches a begin,
//! nesting is valid per thread), and the disabled path records nothing
//! while costing almost nothing.

use hecate_telemetry::recorder::{self, Level};
use hecate_telemetry::trace::{self, Attrs};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

const THREADS: usize = 8;
const SPANS_PER_THREAD: usize = 200;

/// The store's retention level is process-global, so a test that relies
/// on it being *off* must not overlap one that has a `trace::capture`
/// open: every test runs under this lock, start to finish.
fn tracer() -> MutexGuard<'static, ()> {
    static TRACER: Mutex<()> = Mutex::new(());
    TRACER.lock().unwrap_or_else(|poison| poison.into_inner())
}

#[test]
fn concurrent_spans_from_eight_threads_are_well_formed() {
    let _tracer = tracer();
    let ((), events) = trace::capture(|| {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..SPANS_PER_THREAD {
                        let mut outer = trace::span_with("work", || {
                            vec![("thread", t.into()), ("i", i.into())]
                        });
                        {
                            let _inner = trace::span("inner");
                            std::hint::black_box(t * i);
                        }
                        outer.attr("done", true.into());
                    }
                });
            }
        });
    });

    // Two begin/end pairs per span per thread.
    assert_eq!(events.len(), THREADS * SPANS_PER_THREAD * 2 * 2);

    // pair_spans validates per-thread begin/end matching and flags
    // unterminated spans; a mis-nested or torn trace fails here.
    let spans = trace::pair_spans(&events).expect("well-formed trace");
    assert_eq!(spans.len(), THREADS * SPANS_PER_THREAD * 2);

    let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), THREADS, "each thread records under its own tid");

    // Nesting: every inner span lies within some work span of its tid.
    for inner in spans.iter().filter(|s| s.name == "inner") {
        assert!(
            spans.iter().any(|outer| {
                outer.name == "work"
                    && outer.tid == inner.tid
                    && outer.ts_ns <= inner.ts_ns
                    && outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns
            }),
            "inner span at {} on tid {} has no enclosing work span",
            inner.ts_ns,
            inner.tid
        );
    }

    // The merged stream is globally sorted by timestamp.
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}

#[test]
fn disabled_tracer_records_nothing_and_is_near_free() {
    let _tracer = tracer();
    // Nothing recorded: spans, completes, and marks outside a capture
    // (nothing holds the store) must leave it empty.
    {
        let mut s = trace::span_with("off", || vec![("k", 1.into())]);
        s.attr("x", 2.into());
    }
    trace::complete_with("off", Instant::now(), Attrs::new);
    trace::mark_with("off", Attrs::new);
    let ((), events) = trace::capture(|| {});
    assert!(events.is_empty(), "disabled tracer must record nothing");

    // Near-free: the disabled span path is one relaxed atomic load. The
    // bound is deliberately loose (100 ns/call, two orders of magnitude
    // above the real cost) and is checked against the fastest of ten
    // 100 k-call batches, so a batch that lost the CPU to a concurrent
    // test cannot fail it, while an accidental allocation, lock, or
    // syscall on the disabled path slows every batch and still does.
    const BATCHES: usize = 10;
    const CALLS: u64 = 100_000;
    let per_call_ns = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..CALLS {
                let _s = trace::span_with("off", || vec![("i", i.into())]);
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        per_call_ns < 100.0,
        "disabled span costs {per_call_ns:.1} ns/call; expected ~1 ns"
    );
}

/// `capture` holds the store through an RAII guard, so a closure that
/// panics cannot leave process-global recording on for whatever runs next.
#[test]
fn capture_releases_its_hold_when_the_closure_panics() {
    let _tracer = tracer();
    let caught = std::panic::catch_unwind(|| {
        trace::capture(|| {
            assert_eq!(recorder::level(), Level::Full);
            panic!("boom inside capture");
        })
    });
    assert!(caught.is_err());
    assert_eq!(recorder::level(), Level::Off, "the hold leaked");
    // And the next capture starts clean.
    let ((), events) = trace::capture(|| trace::mark_with("after", Attrs::new));
    assert_eq!(events.len(), 1);
}
