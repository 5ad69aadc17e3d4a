//! Diagnostics snapshots: the runtime's introspection plane.
//!
//! [`DiagnosticsReport`] is one coherent, JSON-serializable answer to
//! "what is the runtime doing right now": the queue's depth against its
//! bound, the plan cache's contents with hit/eviction counters, each
//! session's worst observed noise margin, the flight recorder's
//! retained-trace index, and SLO burn (the sliding p99 against the
//! configured latency target). Every metric in it — workers, the queue
//! depth, the session margins, the counters — is read from one
//! [`StatsSnapshot`], the same one
//! [`crate::Runtime::stats`] returns.
//!
//! Three consumers share the report:
//!
//! - [`crate::Runtime::diagnose`] builds one on demand (tests, admin
//!   endpoints).
//! - With [`crate::pool::DiagOptions`] set, a `hecate-diag` thread dumps
//!   one to `diag-NNNNNN.json` every interval, plus a final dump at
//!   shutdown — `hecatec --serve --diag-out DIR` wires this up.
//! - A request panic writes a **black box**: `blackbox-req{id}.json`
//!   holding the panic message, the request's full retained span tree
//!   (the flight recorder promotes it before the dump), and a complete
//!   diagnostics report. It is written at the catch site, before the
//!   panic resumes unwinding into the supervisor, so the evidence is on
//!   disk even if worker recycling goes wrong.
//!
//! The JSON is single-line and format-pinned by tests (like
//! [`crate::stats::StatsSnapshot::to_json`]): scrapers may parse it, so
//! shape changes must be deliberate. Plan keys render as 16-digit hex
//! strings — they are 64-bit hashes, and JSON numbers cannot carry them
//! faithfully.

use crate::cache::PlanCacheEntry;
use crate::pool::{DiagOptions, Inner};
use crate::stats::StatsSnapshot;
use hecate_telemetry::export::{self, JsonObject};
use hecate_telemetry::{recorder, RetainedSummary};
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Plan-cache contents (hit/miss/eviction counters live in
/// [`StatsSnapshot`]).
#[derive(Debug, Clone)]
pub struct PlanCacheDiag {
    /// The cache's artifact bound.
    pub capacity: usize,
    /// Every cached plan, sorted by key.
    pub entries: Vec<PlanCacheEntry>,
}

/// Flight-recorder occupancy and the retained-trace index.
#[derive(Debug, Clone)]
pub struct RecorderDiag {
    /// Whether the process-global recorder is currently on.
    pub enabled: bool,
    /// Per-thread ring bound in force at the current retention level,
    /// events.
    pub ring_capacity: usize,
    /// Events currently held across all rings.
    pub ring_events: usize,
    /// Events overwritten (decayed) since process start.
    pub overwritten: u64,
    /// The retained traces, oldest first (req_id, reason, size).
    pub retained: Vec<RetainedSummary>,
}

/// Latency objective vs the sliding-window quantiles.
#[derive(Debug, Clone)]
pub struct SloDiag {
    /// The configured target, microseconds (`None` = no objective).
    pub target_us: Option<f64>,
    /// Completed requests currently in the sliding window.
    pub window: usize,
    /// Median latency over the window, microseconds.
    pub p50_us: Option<f64>,
    /// 99th-percentile latency over the window, microseconds.
    pub p99_us: Option<f64>,
    /// `p99 / target` — above 1.0 the objective is burning. `None`
    /// without a target or an empty window.
    pub burn: Option<f64>,
}

/// One coherent snapshot of the runtime's internals; see the module
/// docs for who builds and consumes it.
#[derive(Debug, Clone)]
pub struct DiagnosticsReport {
    /// Wall-clock nanoseconds since the Unix epoch when the report was
    /// collected.
    pub generated_ns: u64,
    /// The queue's bound; its depth is the snapshot's
    /// [`StatsSnapshot::queue_depth`].
    pub queue_capacity: usize,
    /// Plan-cache contents.
    pub plan_cache: PlanCacheDiag,
    /// Flight-recorder state.
    pub recorder: RecorderDiag,
    /// SLO burn.
    pub slo: SloDiag,
    /// The runtime's metric snapshot (same shape as
    /// [`crate::Runtime::stats`]); the report's workers and per-session
    /// margins are read from it.
    pub stats: StatsSnapshot,
}

impl DiagnosticsReport {
    /// The report as one line of JSON. The shape is pinned by the
    /// `diagnostics_json_format_is_pinned` test — change both together.
    pub fn to_json(&self) -> String {
        let (s, r, slo) = (&self.stats, &self.recorder, &self.slo);
        let mut o = JsonObject::default();
        o.field("generated_ns", self.generated_ns)
            .field("workers", s.workers)
            .object("queue", |q| {
                q.field("depth", s.queue_depth)
                    .field("capacity", self.queue_capacity);
            })
            .object("plan_cache", |p| {
                p.field("capacity", self.plan_cache.capacity).objects(
                    "entries",
                    &self.plan_cache.entries,
                    |e, entry| {
                        e.str("key", &format!("{:016x}", entry.key))
                            .field("ops", entry.ops)
                            .float("estimated_latency_us", entry.estimated_latency_us, 1)
                            .field("last_used_tick", entry.last_used_tick);
                    },
                );
            })
            .objects("sessions", &s.session_margins, |m, &(session, bits)| {
                m.field("session", session)
                    .float("min_margin_bits", bits, 3);
            })
            .object("recorder", |o| {
                o.field("enabled", r.enabled)
                    .field("ring_capacity", r.ring_capacity)
                    .field("ring_events", r.ring_events)
                    .field("overwritten", r.overwritten)
                    .objects("retained", &r.retained, |t, kept| {
                        t.field("req_id", kept.req_id)
                            .str("reason", kept.reason)
                            .field("events", kept.events);
                    });
            })
            .object("slo", |o| {
                o.float("target_us", slo.target_us, 1)
                    .field("window", slo.window)
                    .float("p50_us", slo.p50_us, 1)
                    .float("p99_us", slo.p99_us, 1)
                    .float("burn", slo.burn, 4);
            })
            .field("stats", s.to_json());
        o.finish()
    }
}

fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Collects a [`DiagnosticsReport`] from a live runtime's internals.
pub(crate) fn collect(inner: &Inner) -> DiagnosticsReport {
    let p50_us = inner.stats.recent_latency_quantile(0.50);
    let p99_us = inner.stats.recent_latency_quantile(0.99);
    let target_us = inner.config.slo_target_us;
    DiagnosticsReport {
        generated_ns: unix_now_ns(),
        queue_capacity: inner.config.queue_capacity.max(1),
        plan_cache: PlanCacheDiag {
            capacity: inner.cache.capacity(),
            entries: inner.cache.entries(),
        },
        recorder: RecorderDiag {
            enabled: recorder::level() != recorder::Level::Off,
            ring_capacity: recorder::ring_capacity(),
            ring_events: recorder::ring_event_count(),
            overwritten: recorder::overwritten_events(),
            retained: recorder::retained_index(),
        },
        slo: SloDiag {
            target_us,
            window: inner.stats.recent_latency_count(),
            p50_us,
            p99_us,
            burn: match (p99_us, target_us) {
                (Some(p99), Some(target)) if target > 0.0 => Some(p99 / target),
                _ => None,
            },
        },
        stats: inner.stats.snapshot(inner.config.workers),
    }
}

/// Writes the crash black box for a panicked request: the panic message,
/// the request's retained span tree, and a full diagnostics report.
/// Failures are reported to stderr, never propagated — the black box is
/// best-effort evidence on a path that is already failing.
pub(crate) fn write_black_box(inner: &Inner, dir: &Path, req_id: u64, message: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("hecate-diag: cannot create {}: {e}", dir.display());
        return;
    }
    let trace_json = match recorder::retained_trace(req_id) {
        Some(t) => export::events_json(&t.events),
        None => "[]".to_string(),
    };
    let mut body = JsonObject::default();
    body.field("req_id", req_id)
        .str("reason", "panicked")
        .str("message", message)
        .field("trace", trace_json)
        .field("diagnostics", collect(inner).to_json());
    let path = dir.join(format!("blackbox-req{req_id}.json"));
    if let Err(e) = std::fs::write(&path, body.finish() + "\n") {
        eprintln!("hecate-diag: cannot write {}: {e}", path.display());
    }
}

/// The periodic dumper's stop flag: raised by [`crate::Runtime`]'s drop,
/// waited on (with the dump interval as timeout) by the `hecate-diag`
/// thread.
#[derive(Default)]
pub(crate) struct DiagStop {
    stop: Mutex<bool>,
    cv: Condvar,
}

impl DiagStop {
    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.stop.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn raise(&self) {
        *self.lock() = true;
        self.cv.notify_all();
    }

    /// Sleeps up to `timeout`; returns true once the flag is raised.
    fn wait(&self, timeout: Duration) -> bool {
        let mut stopped = self.lock();
        let deadline = std::time::Instant::now() + timeout;
        while !*stopped {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            stopped = self
                .cv
                .wait_timeout(stopped, left)
                .map(|(g, _)| g)
                .unwrap_or_else(|e| e.into_inner().0);
        }
        true
    }
}

/// The `hecate-diag` thread body: a `diag-NNNNNN.json` report every
/// `opts.interval`, and one final report when the runtime shuts down.
pub(crate) fn dump_loop(inner: &Inner, opts: &DiagOptions, stop: &DiagStop) {
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("hecate-diag: cannot create {}: {e}", opts.dir.display());
        return;
    }
    let mut seq: u64 = 0;
    loop {
        let stopped = stop.wait(opts.interval);
        let path = opts.dir.join(format!("diag-{seq:06}.json"));
        let body = collect(inner).to_json() + "\n";
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("hecate-diag: cannot write {}: {e}", path.display());
        }
        seq += 1;
        if stopped {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> DiagnosticsReport {
        DiagnosticsReport {
            generated_ns: 42,
            queue_capacity: 16,
            plan_cache: PlanCacheDiag {
                capacity: 4,
                entries: vec![PlanCacheEntry {
                    key: 0xabc,
                    ops: 7,
                    estimated_latency_us: 12.5,
                    last_used_tick: 9,
                }],
            },
            recorder: RecorderDiag {
                enabled: true,
                ring_capacity: 4096,
                ring_events: 100,
                overwritten: 5,
                retained: vec![RetainedSummary {
                    req_id: 7,
                    reason: "slow",
                    retained_ns: 1,
                    events: 12,
                }],
            },
            slo: SloDiag {
                target_us: Some(1000.0),
                window: 3,
                p50_us: Some(400.0),
                p99_us: Some(1500.0),
                burn: Some(1.5),
            },
            stats: StatsSnapshot {
                workers: 2,
                queue_depth: 3,
                kernel_jobs: 2,
                session_margins: vec![(1, 10.25)],
                ..StatsSnapshot::default()
            },
        }
    }

    /// The diagnostics JSON is a scrape surface: this test pins the
    /// exact serialization of a hand-built report so shape drift is a
    /// deliberate decision, not an accident.
    #[test]
    fn diagnostics_json_format_is_pinned() {
        let report = sample_report();
        let json = report.to_json();
        let want_prefix = "{\"generated_ns\":42,\"workers\":2,\
             \"queue\":{\"depth\":3,\"capacity\":16},\
             \"plan_cache\":{\"capacity\":4,\"entries\":[{\"key\":\"0000000000000abc\",\"ops\":7,\"estimated_latency_us\":12.5,\"last_used_tick\":9}]},\
             \"sessions\":[{\"session\":1,\"min_margin_bits\":10.250}],\
             \"recorder\":{\"enabled\":true,\"ring_capacity\":4096,\"ring_events\":100,\"overwritten\":5,\"retained\":[{\"req_id\":7,\"reason\":\"slow\",\"events\":12}]},\
             \"slo\":{\"target_us\":1000.0,\"window\":3,\"p50_us\":400.0,\"p99_us\":1500.0,\"burn\":1.5000},\
             \"stats\":{";
        assert!(
            json.starts_with(want_prefix),
            "diagnostics JSON drifted:\n got: {json}\nwant prefix: {want_prefix}"
        );
        assert!(json.ends_with('}'));
    }

    #[test]
    fn empty_slo_serializes_nulls() {
        let mut report = sample_report();
        report.slo = SloDiag {
            target_us: None,
            window: 0,
            p50_us: None,
            p99_us: None,
            burn: None,
        };
        assert!(report.to_json().contains(
            "\"slo\":{\"target_us\":null,\"window\":0,\"p50_us\":null,\"p99_us\":null,\"burn\":null}"
        ));
    }
}
