//! The span API: RAII guards, markers, and correlation context.
//!
//! # Design
//!
//! Recording is **off by default**. Every entry point first loads one
//! relaxed atomic — the store's retention level
//! ([`crate::recorder::level`]); while nothing holds the store nothing
//! else happens — no timestamp, no allocation, no lock. Attribute
//! vectors are built through closures ([`span_with`], [`mark_with`],
//! [`complete_with`]) so the disabled path never evaluates them.
//!
//! While the store is held, events go into the recording thread's own
//! ring in [`crate::recorder`] — the one event store, which also owns
//! the retention levels, their bounds, and the drop counter. A span that
//! recorded its begin always records its end, even if the last hold was
//! dropped mid-span, so begin/end pairs stay balanced. [`drain`] takes
//! everything out as one chronologically sorted stream that preserves
//! per-thread event order, which is what lets [`pair_spans`] validate
//! begin/end nesting per thread.
//!
//! Before an event reaches the store, the recording thread stamps its
//! ambient correlation context ([`push_context`]) onto it as `req_id` /
//! `batch_id` attributes — this is how one request's spans are found
//! again across worker, coalescer, and kernel threads.
//!
//! Timestamps are nanoseconds since a process-wide [`Instant`] epoch —
//! monotonic, comparable across threads, and immune to wall-clock steps.

use crate::recorder::{self, Level};
pub use crate::recorder::{drain, dropped_events};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One attribute value: integer, float, or string.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A signed integer.
    I64(i64),
    /// A double.
    F64(f64),
    /// A string (allocated only while the store is held).
    Str(String),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(v as i64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::I64(v as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::I64(v as i64)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::I64(v as i64)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::I64(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// The integer payload, if this is an integer attribute.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::I64(v) => Some(*v as f64),
            AttrValue::F64(v) => Some(*v),
            AttrValue::Str(_) => None,
        }
    }

    /// The string payload, if this is a string attribute.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Key/value attributes attached to an event. Keys are static so the hot
/// path never allocates for them.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened (matched by an [`EventKind::End`] on the same
    /// thread).
    Begin,
    /// A span closed.
    End,
    /// A complete span recorded in one event — used when the start
    /// happened on another thread (e.g. queue wait) or before a span
    /// could observe it. `ts_ns` is the span's *start*.
    Complete {
        /// Span duration, nanoseconds.
        dur_ns: u64,
    },
    /// An instantaneous marker.
    Mark,
}

/// One trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The span or marker name (static: the taxonomy is fixed at compile
    /// time; dynamic context goes in `attrs`).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// The recording thread's trace id (small, sequential).
    pub tid: u64,
    /// Key/value attributes.
    pub attrs: Attrs,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The recording thread's small sequential trace id.
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Ambient correlation context: `(req_id, batch_id)`, zero = unset.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The calling thread's trace id: the `tid` of every event it records.
pub fn current_tid() -> u64 {
    TID.with(|tid| {
        if tid.get() == 0 {
            tid.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        tid.get()
    })
}

/// Restores the previous correlation context on drop.
#[must_use = "dropping the guard immediately pops the context"]
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Sets the calling thread's correlation context. Every event recorded
/// while the guard lives is stamped with `req_id` / `batch_id` attrs
/// (zero components are omitted). Guards nest; drop restores the outer
/// context. Spawned threads do not inherit the context — capture
/// [`current_context`] and push it on the child thread.
pub fn push_context(req_id: u64, batch_id: u64) -> ContextGuard {
    CONTEXT.with(|c| {
        let prev = c.get();
        c.set((req_id, batch_id));
        ContextGuard { prev }
    })
}

/// The calling thread's current `(req_id, batch_id)` context.
pub fn current_context() -> (u64, u64) {
    CONTEXT.with(Cell::get)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Stamps the ambient correlation context onto one event and hands it
/// to the store.
fn record(kind: EventKind, name: &'static str, ts_ns: u64, mut attrs: Attrs) {
    let (req_id, batch_id) = current_context();
    if req_id != 0 {
        attrs.push(("req_id", AttrValue::I64(req_id as i64)));
    }
    if batch_id != 0 {
        attrs.push(("batch_id", AttrValue::I64(batch_id as i64)));
    }
    recorder::push(Event {
        kind,
        name,
        ts_ns,
        tid: current_tid(),
        attrs,
    });
}

/// An RAII span guard: records a begin event on creation (while the
/// store is held) and the matching end event on drop. Attributes added
/// via [`Span::attr`] after creation land on the end event — viewers
/// merge begin and end arguments, and [`pair_spans`] does the same.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    name: &'static str,
    /// Whether the begin event was recorded (and the end must be too).
    armed: bool,
    end_attrs: Attrs,
}

/// Whether anything holds the store: the one relaxed atomic load a span
/// site pays while recording is off.
#[inline]
fn recording() -> bool {
    recorder::level() != Level::Off
}

/// Opens a span with no attributes.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, Attrs::new)
}

/// Opens a span whose begin attributes are built by `attrs` — the
/// closure runs only while the store is held, so the disabled path pays
/// nothing for attribute construction.
#[inline]
pub fn span_with<F: FnOnce() -> Attrs>(name: &'static str, attrs: F) -> Span {
    let armed = recording();
    if armed {
        record(EventKind::Begin, name, now_ns(), attrs());
    }
    Span {
        name,
        armed,
        end_attrs: Attrs::new(),
    }
}

impl Span {
    /// Attaches an attribute to this span's end event. A no-op when the
    /// span was created with recording off.
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        if self.armed {
            self.end_attrs.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // An armed span always records its end, even if the last hold on
        // the store was dropped mid-span — unbalanced traces are worse
        // than a few extra events.
        if self.armed {
            let attrs = std::mem::take(&mut self.end_attrs);
            record(EventKind::End, self.name, now_ns(), attrs);
        }
    }
}

/// Records a complete span that started at `started` and ends now. Used
/// for durations whose start lives on another thread (queue wait) or was
/// measured independently.
pub fn complete_with<F: FnOnce() -> Attrs>(name: &'static str, started: Instant, attrs: F) {
    if recording() {
        let dur_ns = started.elapsed().as_nanos() as u64;
        let ts_ns = now_ns().saturating_sub(dur_ns);
        record(EventKind::Complete { dur_ns }, name, ts_ns, attrs());
    }
}

/// Records an instantaneous marker.
pub fn mark_with<F: FnOnce() -> Attrs>(name: &'static str, attrs: F) {
    if recording() {
        record(EventKind::Mark, name, now_ns(), attrs());
    }
}

/// Runs `f` under a [`Level::Full`] hold and returns its result together
/// with exactly the events recorded during the call. The hold is
/// released on every way out of `f`, a panic included.
///
/// Captures are serialized through a global lock so concurrent tests (or
/// any two capture sites) cannot steal each other's events; events left
/// over from earlier recording are discarded first.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    static CAPTURE: Mutex<()> = Mutex::new(());
    let _guard = CAPTURE.lock().unwrap_or_else(|poison| poison.into_inner());
    drain();
    let _hold = recorder::hold(Level::Full);
    let result = f();
    // Drained under the hold: releasing it re-bounds the rings.
    (result, drain())
}

/// A begin/end pair (or a complete event) resolved into one span.
#[derive(Debug, Clone)]
pub struct PairedSpan {
    /// Span name.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Merged begin + end attributes.
    pub attrs: Attrs,
}

impl PairedSpan {
    /// Looks up an attribute by key (end attributes win on duplicates
    /// because they are merged after the begin attributes).
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Resolves an event stream into paired spans, validating per-thread
/// well-formedness: every end event must match the innermost open begin
/// of its thread, and no span may be left open.
///
/// # Errors
/// Returns a description of the first violation (end without begin, name
/// mismatch at the top of a thread's stack, or an unterminated span).
pub fn pair_spans(events: &[Event]) -> Result<Vec<PairedSpan>, String> {
    let mut stacks: HashMap<u64, Vec<(&'static str, u64, Attrs)>> = HashMap::new();
    let mut spans = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::Begin => {
                stacks
                    .entry(ev.tid)
                    .or_default()
                    .push((ev.name, ev.ts_ns, ev.attrs.clone()));
            }
            EventKind::End => {
                let stack = stacks.entry(ev.tid).or_default();
                let Some((name, ts_ns, mut attrs)) = stack.pop() else {
                    return Err(format!(
                        "end of '{}' on tid {} without a matching begin",
                        ev.name, ev.tid
                    ));
                };
                if name != ev.name {
                    return Err(format!(
                        "end of '{}' on tid {} closes innermost span '{name}'",
                        ev.name, ev.tid
                    ));
                }
                attrs.extend(ev.attrs.iter().cloned());
                spans.push(PairedSpan {
                    name,
                    tid: ev.tid,
                    ts_ns,
                    dur_ns: ev.ts_ns.saturating_sub(ts_ns),
                    attrs,
                });
            }
            EventKind::Complete { dur_ns } => spans.push(PairedSpan {
                name: ev.name,
                tid: ev.tid,
                ts_ns: ev.ts_ns,
                dur_ns: *dur_ns,
                attrs: ev.attrs.clone(),
            }),
            EventKind::Mark => {}
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _, _)) = stack.last() {
            return Err(format!("span '{name}' on tid {tid} was never ended"));
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let ((), events) = capture(|| {});
        assert!(events.is_empty());
        // Outside a capture, with nothing holding the store, spans are inert.
        {
            let mut s = span_with("noop", || vec![("k", 1.into())]);
            s.attr("x", 2.into());
        }
        complete_with("noop", Instant::now(), Attrs::new);
        mark_with("noop", Attrs::new);
        let ((), events) = capture(|| {});
        assert!(events.is_empty(), "pre-capture events were discarded");
    }

    #[test]
    fn spans_nest_and_pair() {
        let ((), events) = capture(|| {
            let mut outer = trace_outer();
            {
                let _inner = span("inner");
            }
            outer.attr("done", true.into());
        });
        assert_eq!(events.len(), 4);
        let spans = pair_spans(&events).unwrap();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns);
        assert_eq!(outer.attr("done").and_then(AttrValue::as_i64), Some(1));
        assert_eq!(outer.attr("kind").and_then(AttrValue::as_str), Some("o"));
    }

    fn trace_outer() -> Span {
        span_with("outer", || vec![("kind", "o".into())])
    }

    #[test]
    fn complete_and_mark_events() {
        let ((), events) = capture(|| {
            let t0 = Instant::now();
            std::hint::black_box(0u64);
            complete_with("wait", t0, || vec![("q", 3.into())]);
            mark_with("tick", Attrs::new);
        });
        assert_eq!(events.len(), 2);
        let spans = pair_spans(&events).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "wait");
        assert_eq!(spans[0].attr("q").and_then(AttrValue::as_i64), Some(3));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let end = Event {
            kind: EventKind::End,
            name: "x",
            ts_ns: 1,
            tid: 1,
            attrs: vec![],
        };
        assert!(
            pair_spans(std::slice::from_ref(&end)).is_err(),
            "end without begin"
        );
        let begin = Event {
            kind: EventKind::Begin,
            name: "x",
            ts_ns: 0,
            tid: 1,
            attrs: vec![],
        };
        assert!(
            pair_spans(std::slice::from_ref(&begin)).is_err(),
            "unterminated span"
        );
        let mut wrong = end;
        wrong.name = "y";
        assert!(pair_spans(&[begin, wrong]).is_err(), "name mismatch");
    }

    #[test]
    fn attr_value_conversions() {
        assert_eq!(AttrValue::from(3usize).as_i64(), Some(3));
        assert_eq!(AttrValue::from(2.5).as_f64(), Some(2.5));
        assert_eq!(AttrValue::from(7i64).as_f64(), Some(7.0));
        assert_eq!(AttrValue::from("s").as_str(), Some("s"));
        assert_eq!(AttrValue::from(true).as_i64(), Some(1));
        assert_eq!(AttrValue::from(9u64).as_i64(), Some(9));
        assert!(AttrValue::from("s").as_f64().is_none());
    }
}
