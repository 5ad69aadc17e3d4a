//! The event store: one bounded ring per thread, a retention level, and
//! tail-based retention.
//!
//! # Design
//!
//! Every event [`crate::trace`] records lands in the recording thread's
//! own **ring** — an uncontended `Mutex<VecDeque<Event>>` registered in
//! one global list so readers can reach every thread's events. How much
//! a ring keeps is the process-wide **retention level**, the highest
//! level any live [`Hold`] asked for:
//!
//! - [`Level::Off`] — no holder. Span sites load one relaxed atomic and
//!   return; nothing is timestamped, built or stored.
//! - [`Level::Ring`] — held by every live serving runtime. A ring keeps
//!   its newest [`RING_CAPACITY`] events and overwrites the oldest, so
//!   memory is bounded by `threads x RING_CAPACITY` however long the
//!   process runs.
//! - [`Level::Full`] — held by a traced run (`hecatec --trace`,
//!   [`crate::trace::capture`]). A ring keeps everything up to
//!   [`FULL_CAPACITY`] events and then drops *new* events, counting them
//!   in `hecate_trace_dropped_events_total`, so the head of a traced run
//!   survives a stalled reader. Dropping below `Full` re-bounds every
//!   ring to its newest [`RING_CAPACITY`] events — [`drain`] first.
//!
//! Most requests decay out of the rings unobserved. When the runtime
//! decides a request was *interesting* (slow, shed, timed out,
//! guard-failed, panicked), it calls [`retain_with`] with the request's
//! correlation id: every ring is scanned for events stamped with that
//! `req_id` (or the linking `batch_id`), and the matching span tree is
//! copied into a bounded **retained-trace store** before the ring
//! overwrites it. This is tail-based sampling: the keep/drop decision is
//! made after the outcome is known, so the store holds exactly the
//! traces worth looking at. Events carry those ids because
//! [`crate::trace`] stamps the ambient context
//! ([`crate::trace::push_context`]) onto every event before it gets here.

use crate::trace::{AttrValue, Event};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events a thread's ring keeps at [`Level::Ring`] (overwrite-oldest).
pub const RING_CAPACITY: usize = 4096;

/// Events a thread's ring keeps at [`Level::Full`] before new events are
/// dropped and counted. This crate's unit tests shrink it to reach it.
pub const FULL_CAPACITY: usize = if cfg!(test) {
    2 * RING_CAPACITY
} else {
    1 << 20
};

/// Retained traces kept before the oldest is evicted.
pub const RETAINED_CAPACITY: usize = 64;

/// How much of the event stream the store keeps; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Nothing is recorded.
    Off,
    /// The newest [`RING_CAPACITY`] events per thread.
    Ring,
    /// Everything, up to [`FULL_CAPACITY`] events per thread.
    Full,
}

/// The live level: the only state a disabled span site reads.
static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);
/// Live holds per level, indexed by `Level as usize`.
static HOLDS: Mutex<[usize; 3]> = Mutex::new([0; 3]);
static OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

type Ring = Mutex<VecDeque<Event>>;

/// Every thread's ring: the one global registry of event containers.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

/// Every update under these locks leaves the data valid at each step, so
/// a panicking holder must not wedge the recorder for everyone else.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn rings() -> Vec<Arc<Ring>> {
    lock(&RINGS).clone()
}

/// The retention level in force: one relaxed atomic load, which is the
/// whole cost of a span site while nothing holds the store.
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Ring,
        _ => Level::Full,
    }
}

/// Keeps the store recording at `level` or above until dropped.
#[must_use = "dropping the hold immediately releases the level"]
pub struct Hold {
    level: Level,
}

/// Takes a hold on `level`. The highest level held anywhere in the
/// process wins; when the last hold drops, recording turns off.
pub fn hold(level: Level) -> Hold {
    adjust_holds(level, true);
    Hold { level }
}

impl Drop for Hold {
    fn drop(&mut self) {
        adjust_holds(self.level, false);
    }
}

fn adjust_holds(level: Level, acquire: bool) {
    let mut holds = lock(&HOLDS);
    if acquire {
        holds[level as usize] += 1;
    } else {
        holds[level as usize] -= 1;
    }
    let live = if holds[Level::Full as usize] > 0 {
        Level::Full
    } else if holds[Level::Ring as usize] > 0 {
        Level::Ring
    } else {
        Level::Off
    };
    // The level publishes no data: a span site that still sees the old
    // value records (or skips) one more event, which either level allows.
    let prev = LEVEL.swap(live as u8, Ordering::SeqCst);
    if prev == Level::Full as u8 && live != Level::Full {
        // `push` re-reads the level under the ring lock, so once this
        // loop has visited a ring it never exceeds `RING_CAPACITY` again.
        for ring in rings() {
            let mut events = lock(&ring);
            let excess = events.len().saturating_sub(RING_CAPACITY);
            events.drain(..excess);
            events.shrink_to(RING_CAPACITY);
        }
    }
}

fn dropped_counter() -> &'static crate::metrics::Counter {
    static COUNTER: OnceLock<crate::metrics::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| crate::metrics::global().counter("hecate_trace_dropped_events_total"))
}

/// Events dropped at the [`Level::Full`] bound since process start (also
/// exported as `hecate_trace_dropped_events_total`).
pub fn dropped_events() -> u64 {
    dropped_counter().get()
}

/// Events overwritten (decayed) at [`Level::Ring`] across all rings
/// since process start or the last [`clear`].
pub fn overwritten_events() -> u64 {
    OVERWRITTEN.load(Ordering::Relaxed)
}

/// The per-thread bound in force at the current level.
pub fn ring_capacity() -> usize {
    if level() == Level::Full {
        FULL_CAPACITY
    } else {
        RING_CAPACITY
    }
}

/// Appends one event to the calling thread's ring. Called by
/// [`crate::trace`] once a span site found the store held; the event
/// already carries its correlation attrs.
pub(crate) fn push(ev: Event) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Ring::default());
            lock(&RINGS).push(ring.clone());
            ring
        });
        let mut events = lock(ring);
        if level() == Level::Full {
            if events.len() < FULL_CAPACITY {
                events.push_back(ev);
            } else {
                dropped_counter().inc();
            }
        } else {
            // Also the path of a span that ends after the last hold
            // dropped: its end event still lands, within the ring bound.
            while events.len() >= RING_CAPACITY {
                events.pop_front();
                OVERWRITTEN.fetch_add(1, Ordering::Relaxed);
            }
            events.push_back(ev);
        }
    });
}

fn sorted(mut events: Vec<Event>) -> Vec<Event> {
    // Stable over monotonic per-thread timestamps, so each thread's
    // relative order — and with it begin/end nesting — survives the merge.
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Takes every event out of every ring, returning one stream sorted by
/// timestamp; per-`tid` begin/end nesting survives the merge.
pub fn drain() -> Vec<Event> {
    let mut all = Vec::new();
    for ring in rings() {
        all.extend(lock(&ring).drain(..));
    }
    sorted(all)
}

/// Copies every ring's events into one timestamp-sorted stream, without
/// consuming them. The rings keep recording; this is a point-in-time
/// view for diagnostics dumps.
pub fn snapshot() -> Vec<Event> {
    let mut all = Vec::new();
    for ring in rings() {
        all.extend(lock(&ring).iter().cloned());
    }
    sorted(all)
}

/// Events currently held across all rings.
pub fn ring_event_count() -> usize {
    rings().iter().map(|ring| lock(ring).len()).sum()
}

/// Rings currently registered (one per thread that has recorded).
pub fn segment_count() -> usize {
    lock(&RINGS).len()
}

/// A retained span tree: every ring event that carried the request's
/// correlation id at the moment [`retain_with`] ran.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The request's correlation id.
    pub req_id: u64,
    /// Why the trace was kept (`"slow"`, `"shed"`, `"timed-out"`,
    /// `"guard-failed"`, `"panicked"`, ...).
    pub reason: &'static str,
    /// Nanoseconds since the trace epoch when retention ran.
    pub retained_ns: u64,
    /// The promoted events, sorted by timestamp.
    pub events: Vec<Event>,
}

/// One retained-trace index entry (the trace minus its events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedSummary {
    /// The request's correlation id.
    pub req_id: u64,
    /// Why the trace was kept.
    pub reason: &'static str,
    /// Nanoseconds since the trace epoch when retention ran.
    pub retained_ns: u64,
    /// How many events the trace holds.
    pub events: usize,
}

static RETAINED: Mutex<VecDeque<RetainedTrace>> = Mutex::new(VecDeque::new());

fn attr_matches(attrs: &[(&'static str, AttrValue)], key: &str, want: u64) -> bool {
    attrs
        .iter()
        .any(|(k, v)| *k == key && v.as_i64() == Some(want as i64))
}

/// Promotes the span tree for `req_id` — plus, when `batch_id` is
/// nonzero, the shared batch spans stamped with that `batch_id` — into
/// the bounded retained store under `reason`. Returns the number of
/// events promoted.
///
/// The scan walks every thread's ring, so spans recorded on worker,
/// kernel, and coalescer threads all land in the one retained trace.
pub fn retain_with(req_id: u64, batch_id: u64, reason: &'static str) -> usize {
    let mut events = Vec::new();
    for ring in rings() {
        let ring = lock(&ring);
        events.extend(
            ring.iter()
                .filter(|ev| {
                    attr_matches(&ev.attrs, "req_id", req_id)
                        || (batch_id != 0 && attr_matches(&ev.attrs, "batch_id", batch_id))
                })
                .cloned(),
        );
    }
    let events = sorted(events);
    let kept = events.len();
    let mut retained = lock(&RETAINED);
    if retained.len() == RETAINED_CAPACITY {
        retained.pop_front();
    }
    retained.push_back(RetainedTrace {
        req_id,
        reason,
        retained_ns: crate::trace::now_ns(),
        events,
    });
    kept
}

/// The retained-trace index, oldest first.
pub fn retained_index() -> Vec<RetainedSummary> {
    lock(&RETAINED)
        .iter()
        .map(|t| RetainedSummary {
            req_id: t.req_id,
            reason: t.reason,
            retained_ns: t.retained_ns,
            events: t.events.len(),
        })
        .collect()
}

/// The most recently retained trace for `req_id`, if any.
pub fn retained_trace(req_id: u64) -> Option<RetainedTrace> {
    lock(&RETAINED)
        .iter()
        .rev()
        .find(|t| t.req_id == req_id)
        .cloned()
}

/// Empties every ring and the retained store, and zeroes the overwrite
/// counter. For tests; rings stay registered.
pub fn clear() {
    for ring in rings() {
        lock(&ring).clear();
    }
    lock(&RETAINED).clear();
    OVERWRITTEN.store(0, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    /// At the `Full` bound the store drops new events and counts them; it
    /// never grows and never overwrites the head of the run. Driven
    /// through `capture` (a `Full` hold) so it serializes with the other
    /// unit tests that record.
    #[test]
    fn full_bound_drops_new_events_and_counts_them() {
        const EXTRA: usize = 400;
        let (dropped, events) = trace::capture(|| {
            let before = dropped_events();
            for i in 0..FULL_CAPACITY + EXTRA {
                trace::mark_with("full-flood", || vec![("i", i.into())]);
            }
            assert_eq!(ring_capacity(), FULL_CAPACITY);
            dropped_events() - before
        });
        let flood: Vec<_> = events.iter().filter(|e| e.name == "full-flood").collect();
        assert_eq!(flood.len(), FULL_CAPACITY, "capped at the Full bound");
        let seq = |ev: &Event| ev.attrs[0].1.as_i64().unwrap();
        assert_eq!(seq(flood[0]), 0, "the head of the run survives");
        assert_eq!(seq(flood[FULL_CAPACITY - 1]), FULL_CAPACITY as i64 - 1);
        assert_eq!(dropped, EXTRA as u64, "drops are counted");
    }
}
