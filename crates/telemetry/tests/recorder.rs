//! Event-store contract: bounded per-thread rings that overwrite
//! oldest-first under concurrent load without tearing events, tail-based
//! retention that promotes exactly the correlated span tree, a bounded
//! retained store, and retention levels taken through RAII holds (the
//! highest live hold wins; leaving `Full` re-bounds every ring).
//!
//! The store is process-global, so every test here serializes on one
//! mutex and filters by event names unique to itself.

use hecate_telemetry::recorder::{self, Level, RETAINED_CAPACITY, RING_CAPACITY};
use hecate_telemetry::trace::{self, AttrValue};
use std::sync::Mutex;

/// Serializes tests: the store and its level are process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn attr_i64(ev: &trace::Event, key: &str) -> Option<i64> {
    ev.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_i64())
}

const THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 10_000;

#[test]
fn concurrent_overwrite_keeps_a_consistent_suffix_per_thread() {
    let _g = locked();
    recorder::clear();
    let hold = recorder::hold(Level::Ring);
    assert_eq!(recorder::level(), Level::Ring);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..EVENTS_PER_THREAD {
                    // The check attr ties thread and sequence together;
                    // a torn or misfiled event breaks the equation.
                    trace::mark_with("ring-load", || {
                        vec![
                            ("thread", (t as u64).into()),
                            ("seq", (i as u64).into()),
                            ("check", ((t * EVENTS_PER_THREAD + i) as u64).into()),
                        ]
                    });
                }
            });
        }
    });
    drop(hold);
    assert_eq!(recorder::level(), Level::Off, "the last hold turns it off");

    let all = recorder::snapshot();
    let mine: Vec<_> = all.iter().filter(|e| e.name == "ring-load").collect();

    // Group by the thread attr: each writer had its own ring, so each
    // group must be exactly the newest RING_CAPACITY events of that thread,
    // in order, untorn.
    for t in 0..THREADS as i64 {
        let mut seqs: Vec<i64> = mine
            .iter()
            .filter(|e| attr_i64(e, "thread") == Some(t))
            .map(|e| {
                let seq = attr_i64(e, "seq").expect("seq attr");
                let check = attr_i64(e, "check").expect("check attr");
                assert_eq!(
                    check,
                    t * EVENTS_PER_THREAD as i64 + seq,
                    "torn event: thread {t} seq {seq} carries check {check}"
                );
                seq
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs.len(),
            RING_CAPACITY,
            "thread {t} ring holds exactly cap"
        );
        let first = (EVENTS_PER_THREAD - RING_CAPACITY) as i64;
        let want: Vec<i64> = (first..EVENTS_PER_THREAD as i64).collect();
        assert_eq!(seqs, want, "thread {t} must keep the newest suffix");
    }

    assert!(
        recorder::overwritten_events() >= (THREADS * (EVENTS_PER_THREAD - RING_CAPACITY)) as u64,
        "overwrites must be counted"
    );
    recorder::clear();
}

#[test]
fn retention_promotes_request_and_batch_linked_events() {
    let _g = locked();
    recorder::clear();
    let hold = recorder::hold(Level::Ring);

    let req_id = 777_001u64;
    let batch_id = 888_001u64;
    {
        let _ctx = trace::push_context(req_id, 0);
        let mut span = trace::span_with("retained-req", || vec![("k", 1.into())]);
        span.attr("ok", true.into());
    }
    {
        // Shared batch work carries only the batch id; a member mark
        // carries the explicit req_id linking it back.
        let _ctx = trace::push_context(0, batch_id);
        trace::mark_with("retained-member", || vec![("req_id", req_id.into())]);
        let _span = trace::span_with("retained-batch", || vec![("occupancy", 2.into())]);
    }
    // Uncorrelated noise must not be promoted.
    trace::mark_with("retained-noise", || vec![("k", 2.into())]);
    drop(hold);

    let kept = recorder::retain_with(req_id, batch_id, "slow");
    let trace_for = recorder::retained_trace(req_id).expect("trace retained");
    assert_eq!(trace_for.reason, "slow");
    assert_eq!(trace_for.events.len(), kept);
    let names: Vec<&str> = trace_for.events.iter().map(|e| e.name).collect();
    assert!(names.contains(&"retained-req"), "req events promoted");
    assert!(names.contains(&"retained-member"), "member mark promoted");
    assert!(names.contains(&"retained-batch"), "batch-linked promoted");
    assert!(!names.contains(&"retained-noise"), "noise must stay out");
    // Both Begin and End of the request span survive.
    assert_eq!(
        names.iter().filter(|n| **n == "retained-req").count(),
        2,
        "span begin + end both promoted"
    );
    assert!(
        trace_for
            .events
            .windows(2)
            .all(|w| w[0].ts_ns <= w[1].ts_ns),
        "retained events are time-sorted"
    );
    let index = recorder::retained_index();
    assert!(index
        .iter()
        .any(|s| s.req_id == req_id && s.reason == "slow" && s.events == kept));
    recorder::clear();
}

#[test]
fn retained_store_is_bounded_and_keeps_newest() {
    let _g = locked();
    recorder::clear();
    let _hold = recorder::hold(Level::Ring);
    let total = RETAINED_CAPACITY as u64 + 6;
    for i in 0..total {
        let id = 555_000 + i;
        let _ctx = trace::push_context(id, 0);
        trace::mark_with("bounded-store", Vec::new);
        drop(_ctx);
        recorder::retain_with(id, 0, "slow");
    }
    let index = recorder::retained_index();
    assert_eq!(
        index.len(),
        RETAINED_CAPACITY,
        "retained store respects its bound"
    );
    let ids: Vec<u64> = index.iter().map(|s| s.req_id).collect();
    assert_eq!(ids, (555_006..555_000 + total).collect::<Vec<u64>>());
    assert!(
        recorder::retained_trace(555_000).is_none(),
        "oldest evicted"
    );
    recorder::clear();
}

/// The highest live hold wins, and a `Full` hold dropped while a `Ring`
/// hold lives re-bounds every ring to its newest `RING_CAPACITY` events.
#[test]
fn dropping_full_under_a_ring_hold_rebounds_keeping_newest() {
    let _g = locked();
    recorder::clear();
    let ring = recorder::hold(Level::Ring);
    let full = recorder::hold(Level::Full);
    assert_eq!(recorder::level(), Level::Full, "the highest hold wins");
    let total = RING_CAPACITY as u64 + 40;
    for i in 0..total {
        trace::mark_with("rebound", || vec![("seq", i.into())]);
    }
    let held = |name| {
        let mut seqs: Vec<i64> = recorder::snapshot()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| attr_i64(e, "seq").expect("seq"))
            .collect();
        seqs.sort_unstable();
        seqs
    };
    assert_eq!(held("rebound").len() as u64, total, "Full keeps everything");

    drop(full);
    assert_eq!(recorder::level(), Level::Ring, "the Ring hold still lives");
    assert_eq!(held("rebound"), (40..total as i64).collect::<Vec<i64>>());
    // Back at Ring the bound is overwrite-oldest again.
    trace::mark_with("rebound", || vec![("seq", total.into())]);
    assert_eq!(held("rebound"), (41..=total as i64).collect::<Vec<i64>>());

    drop(ring);
    assert_eq!(recorder::level(), Level::Off);
    recorder::clear();
}

#[test]
fn recorder_disabled_records_nothing() {
    let _g = locked();
    recorder::clear();
    assert_eq!(recorder::level(), Level::Off);
    trace::mark_with("recorder-off", || vec![("k", AttrValue::I64(1))]);
    assert!(
        !recorder::snapshot()
            .iter()
            .any(|e| e.name == "recorder-off"),
        "an unheld store must not record"
    );
}
