//! The benchmark-side span recorder.
//!
//! One span per public call a workload makes into a layer (`apps.build`,
//! `compiler.compile`, `backend.engine_new`, `backend.execute`,
//! `runtime.request`), kept in memory and written once when the traced
//! run ends. Spans inside the program are a later change; these sit in
//! the benchmark's own files, around the calls.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// What the call worked on (program name, op kind).
    pub label: String,
    /// Shared by all spans of one request / run / pass.
    pub req: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    open: Option<SpanRec>,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> Option<u32> {
        self.open.as_ref().map(|s| s.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_us = self.rec.now_us();
            self.rec.push(span);
        }
    }
}

impl Recorder {
    /// A recorder that keeps spans (`--trace 1`) or drops them all.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The id the next span will get: spans opened from here on have ids
    /// at or above it.
    pub fn mark(&self) -> u32 {
        self.next_id.load(Ordering::Relaxed)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn push(&self, span: SpanRec) {
        self.spans
            .lock()
            .expect("span store poisoned: a recording thread panicked")
            .push(span);
    }

    /// Opens a span. `on = false` makes it a no-op, which is how a traced
    /// run leaves every other iteration untraced to measure its own cost.
    pub fn span(
        &self,
        on: bool,
        name: &'static str,
        label: &str,
        parent: Option<u32>,
        req: u64,
    ) -> SpanGuard<'_> {
        let open = (self.enabled && on).then(|| SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            label: label.to_string(),
            req,
            start_us: self.now_us(),
            end_us: 0.0,
        });
        SpanGuard { rec: self, open }
    }

    /// Adds child spans laid end to end inside `parent`, finishing where
    /// the parent does: the backend reports per-op time but not when each
    /// op ran, so only the durations are real.
    pub fn synthesize_children(
        &self,
        parent: Option<u32>,
        name: &'static str,
        req: u64,
        parts: &[(&str, f64)],
    ) -> Vec<u32> {
        let Some(pid) = parent else {
            return Vec::new();
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        let Some(parent_end) = spans.iter().rev().find(|s| s.id == pid).map(|s| s.end_us) else {
            return Vec::new();
        };
        let total: f64 = parts.iter().map(|(_, us)| us).sum();
        let mut at = parent_end - total;
        let mut ids = Vec::new();
        for (label, us) in parts {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            spans.push(SpanRec {
                id,
                parent,
                name,
                label: (*label).to_string(),
                req,
                start_us: at,
                end_us: at + us,
            });
            ids.push(id);
            at += us;
        }
        ids
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Count, total and self time per span name. Self time is a span's
/// duration minus what its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child_ms: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ms.entry(p).or_default() += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

pub fn spans_to_json(spans: &[SpanRec]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("label", Json::str(s.label.clone())),
                    ("req", Json::Num(s.req as f64)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let rec = Recorder::new(true);
        let parent = {
            let g = rec.span(true, "runtime.request", "SF", None, 7);
            let id = g.id();
            std::thread::sleep(std::time::Duration::from_millis(5));
            id
        };
        rec.synthesize_children(parent, "backend.execute", 7, &[("SF", 2000.0)]);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "backend.execute").unwrap();
        let par = spans.iter().find(|s| s.name == "runtime.request").unwrap();
        assert_eq!(child.parent, Some(par.id));
        assert!((child.end_us - par.end_us).abs() < 1e-6);
        let t = self_times(&spans);
        let (n, total, own) = t["runtime.request"];
        assert_eq!(n, 1);
        assert!((total - own - 2.0).abs() < 1e-6, "{total} {own}");
    }

    #[test]
    fn disabled_or_switched_off_spans_record_nothing() {
        let off = Recorder::new(false);
        drop(off.span(true, "apps.build", "x", None, 0));
        assert!(off.snapshot().is_empty());
        let on = Recorder::new(true);
        let g = on.span(false, "apps.build", "x", None, 0);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(on.snapshot().is_empty());
    }
}
