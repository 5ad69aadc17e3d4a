//! The runtime's metrics: one table, every rendering generated from it.
//!
//! Each metric of a [`crate::Runtime`] is one row of the table below:
//! its [`StatsSnapshot`] field (also its stats-JSON key unless the row
//! lists it under another), the field's type, the handle kind, the
//! Prometheus name and the doc line. `metric_table!` turns the rows into the
//! [`RuntimeStats`] handles and their registration in a per-instance
//! [`Registry`] (per instance so two runtimes in one process never
//! alias), the snapshot's fields, [`RuntimeStats::snapshot`] and
//! [`StatsSnapshot::to_json`]; [`RuntimeStats::prometheus`] renders the
//! registry plus the snapshot's derived and labelled lines, and the
//! diagnostics report reads the same snapshot. A row without a handle is
//! derived when the snapshot is taken. Adding a metric is one row plus
//! its call sites, which record through the cached handle: one relaxed
//! atomic operation, never a registry lock or a name lookup.

use crate::session::SessionId;
use hecate_telemetry::export::JsonObject;
use hecate_telemetry::{quantile_from_pow2_buckets, Counter, Gauge, Histogram, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Number of power-of-two latency buckets (bucket `k` holds requests with
/// latency in `[2^k, 2^{k+1})` microseconds; the last bucket is open).
pub const LATENCY_BUCKETS: usize = 24;

/// Number of power-of-two batch-occupancy buckets (bucket `k` counts
/// batches whose occupancy fell in `[2^k, 2^{k+1})`; occupancies are
/// powers of two, so each bucket is one occupancy and bucket 0 is solo).
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Requests the sliding latency window holds for the diagnostics SLO
/// burn: exact recent quantiles over the last this-many finished
/// requests, as opposed to the pow2-bucket estimates over all time.
pub const SLO_WINDOW: usize = 512;

/// How a handle kind registers under its name and reads into the
/// snapshot type `T` of its row.
trait Handle<T> {
    fn register(registry: &Registry, name: &str) -> Self;
    fn read(&self) -> T;
}

impl Handle<u64> for Counter {
    fn register(registry: &Registry, name: &str) -> Self {
        registry.counter(name)
    }
    fn read(&self) -> u64 {
        self.get()
    }
}

impl<T: TryFrom<i64> + Default> Handle<T> for Gauge {
    fn register(registry: &Registry, name: &str) -> Self {
        registry.gauge(name)
    }
    fn read(&self) -> T {
        T::try_from(self.get().max(0)).unwrap_or_default()
    }
}

impl<const N: usize> Handle<[u64; N]> for Histogram {
    fn register(registry: &Registry, name: &str) -> Self {
        registry.histogram(name, N)
    }
    fn read(&self) -> [u64; N] {
        let buckets = self.bucket_counts();
        std::array::from_fn(|k| buckets[k])
    }
}

/// A row's stats-JSON entry: the field under its own name, at
/// `fixed(decimals)`, as a `list("key")`, through a [`StatsSnapshot`]
/// method, or none (`_`).
macro_rules! json_row {
    ($o:ident, $s:ident, $field:ident) => {
        $o.field(stringify!($field), $s.$field);
    };
    ($o:ident, $s:ident, $field:ident => _) => {};
    ($o:ident, $s:ident, $field:ident => fixed($decimals:literal)) => {
        $o.float(stringify!($field), $s.$field, $decimals);
    };
    ($o:ident, $s:ident, $field:ident => list($key:literal)) => {
        $o.list($key, $s.$field);
    };
    ($o:ident, $s:ident, $field:ident => $write:ident) => {
        $s.$write(&mut $o);
    };
}

macro_rules! metric_table {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $ty:ty $(= $kind:ident($name:literal))? $(=> $json:tt $(($arg:literal))?)?;
    )*) => {
        /// Shared metric handles for one [`crate::Runtime`], one per
        /// recorded row of the metric table.
        #[derive(Debug)]
        pub struct RuntimeStats {
            registry: Registry,
            $($(pub(crate) $field: $kind,)?)*
            /// Per-session tightest waterline margin (bits). A map under
            /// a mutex rather than registry gauges because the key set is
            /// dynamic (one label per live session) and margins are
            /// fractional bits.
            session_margins: Mutex<BTreeMap<SessionId, f64>>,
            /// The last [`SLO_WINDOW`] end-to-end latencies (µs), newest
            /// at the back, feeding the diagnostics SLO burn.
            recent_latency: Mutex<VecDeque<f64>>,
            /// When this stats instance was created (for utilization).
            started: Instant,
        }

        impl Default for RuntimeStats {
            fn default() -> Self {
                let registry = Registry::new();
                let stats = RuntimeStats {
                    $($($field: <$kind as Handle<$ty>>::register(&registry, $name),)?)*
                    registry,
                    session_margins: Mutex::new(BTreeMap::new()),
                    recent_latency: Mutex::new(VecDeque::with_capacity(SLO_WINDOW)),
                    started: Instant::now(),
                };
                // Kernels run serially unless a runtime configures more.
                stats.kernel_jobs.set(1);
                stats
            }
        }

        impl RuntimeStats {
            /// A point-in-time copy of every row.
            pub fn snapshot(&self, workers: usize) -> StatsSnapshot {
                StatsSnapshot {
                    $($($field: <$kind as Handle<$ty>>::read(&self.$field),)?)*
                    ..self.derived(workers)
                }
            }
        }

        /// A point-in-time copy of [`RuntimeStats`]: one field per row of
        /// the metric table.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl StatsSnapshot {
            /// Renders the snapshot as one line of JSON, rows in table
            /// order.
            pub fn to_json(&self) -> String {
                let mut o = JsonObject::default();
                $(json_row!(o, self, $field $(=> $json $(($arg))?)?);)*
                o.finish()
            }
        }
    };
}

metric_table! {
    /// Plan-cache hits.
    cache_hits: u64 = Counter("hecate_runtime_cache_hits_total");
    /// Plan-cache lookups that found no artifact (compiles + waits).
    cache_misses: u64 = Counter("hecate_runtime_cache_misses_total");
    /// Published artifacts dropped by the LRU bound.
    cache_evictions: u64 = Counter("hecate_runtime_cache_evictions_total");
    /// Compiler-pipeline runs (≤ distinct plan keys, thanks to
    /// single-flight).
    compiles: u64 = Counter("hecate_runtime_compiles_total");
    /// Successfully completed requests.
    completed: u64 = Counter("hecate_runtime_requests_completed_total");
    /// Failed requests.
    failed: u64 = Counter("hecate_runtime_requests_failed_total");
    /// Worker panics isolated into `Panicked` responses (a subset of
    /// `failed`).
    panics: u64 = Counter("hecate_runtime_panics_total");
    /// Re-execution attempts after transient failures.
    retries: u64 = Counter("hecate_runtime_retries_total");
    /// Requests that missed their deadline (a subset of `failed`).
    timeouts: u64 = Counter("hecate_runtime_timeouts_total");
    /// Requests rejected at admission (`QueueFull` or `Shed`); disjoint
    /// from `completed` and `failed` (they never executed).
    shed: u64 = Counter("hecate_runtime_shed_total");
    /// Worker threads respawned after an escaped panic.
    worker_respawns: u64 = Counter("hecate_runtime_worker_respawns_total");
    /// Requests served as members of a shared batched execution
    /// (occupancy ≥ 2; solo requests never count here).
    batched_requests: u64 = Counter("hecate_runtime_batched_requests_total");
    /// Shared batched executions performed (each serving ≥ 2 requests).
    batches_executed: u64 = Counter("hecate_runtime_batches_executed_total");
    /// Requests currently queued.
    queue_depth: u64 = Gauge("hecate_runtime_queue_depth");
    /// High-water mark of the queue depth.
    peak_queue_depth: u64 = Gauge("hecate_runtime_peak_queue_depth");
    /// Total worker busy time, microseconds.
    busy_us: u64 = Counter("hecate_runtime_busy_us_total");
    /// Number of worker threads the runtime was configured with.
    workers: usize;
    /// Threads each op's limb kernels stripe over (`backend.kernel_jobs
    /// × jobs_per_request`, each at least 1).
    kernel_jobs: usize = Gauge("hecate_runtime_kernel_jobs");
    /// Fraction of worker wall-clock spent busy since startup, in `[0,1]`.
    utilization: f64 => fixed(4);
    /// Latency histogram: bucket `k` counts requests in
    /// `[2^k, 2^{k+1})` µs.
    latency_buckets: [u64; LATENCY_BUCKETS]
        = Histogram("hecate_runtime_request_latency_us") => latency_json;
    /// Batch occupancy histogram: bucket `k` counts batches of occupancy
    /// `[2^k, 2^{k+1})` (solo runs are not observed).
    batch_occupancy_buckets: [u64; OCCUPANCY_BUCKETS]
        = Histogram("hecate_runtime_batch_occupancy") => list("batch_occupancy_buckets_pow2");
    /// Sum of end-to-end request latencies, microseconds.
    latency_sum_us: u64 => _;
    /// Each session's tightest waterline margin (bits) over the plans it
    /// executed, by session id.
    session_margins: Vec<(SessionId, f64)> => _;
}

/// Locks `m`, recovering from poisoning: every guarded value here is
/// plain numbers, so the worst a mid-update panic leaves is a stale one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl RuntimeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rows no handle records, computed as the snapshot is taken.
    fn derived(&self, workers: usize) -> StatsSnapshot {
        let uptime_us = self.started.elapsed().as_secs_f64() * 1e6;
        StatsSnapshot {
            workers,
            utilization: if uptime_us > 0.0 && workers > 0 {
                (self.busy_us.get() as f64 / (uptime_us * workers as f64)).min(1.0)
            } else {
                0.0
            },
            latency_sum_us: self.latency_buckets.sum(),
            session_margins: lock(&self.session_margins)
                .iter()
                .map(|(&s, &m)| (s, m))
                .collect(),
            ..StatsSnapshot::default()
        }
    }

    /// Renders the registry as a Prometheus-style text exposition, then
    /// the snapshot's derived latency quantile gauges and one labeled
    /// `session_min_margin_bits` gauge per session that has executed a
    /// plan.
    pub fn prometheus(&self) -> String {
        let snap = self.snapshot(0);
        let mut out = self.registry.prometheus();
        for (q, p) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let v = snap.latency_quantile_us(q);
            let _ = writeln!(
                out,
                "# TYPE hecate_runtime_request_latency_{p}_us gauge\n\
                 hecate_runtime_request_latency_{p}_us {v:.1}"
            );
        }
        let margin = "hecate_runtime_session_min_margin_bits";
        if !snap.session_margins.is_empty() {
            let _ = writeln!(out, "# TYPE {margin} gauge");
        }
        for (sid, m) in &snap.session_margins {
            let _ = writeln!(out, "{margin}{{session=\"{sid}\"}} {m:.3}");
        }
        out
    }

    /// Records the waterline margin (bits) of a plan a session just
    /// executed; the gauge keeps the tightest margin seen per session.
    pub fn record_precision(&self, session: SessionId, margin_bits: f64) {
        if !margin_bits.is_finite() {
            return;
        }
        lock(&self.session_margins)
            .entry(session)
            .and_modify(|m| *m = m.min(margin_bits))
            .or_insert(margin_bits);
    }

    /// Records a request entering the queue.
    pub fn record_enqueue(&self) {
        let depth = self.queue_depth.add(1);
        self.peak_queue_depth.record_max(depth);
    }

    /// Records a request leaving the queue (a worker picked it up).
    pub fn record_dequeue(&self) {
        self.queue_depth.add(-1);
    }

    /// Requests currently queued (the live gauge, for admission pricing).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.get().max(0) as u64
    }

    /// Records one shared batched execution that served `occupancy`
    /// requests from a single ciphertext.
    pub fn record_batch(&self, occupancy: usize) {
        self.batched_requests.add(occupancy as u64);
        self.batches_executed.inc();
        self.batch_occupancy_buckets.observe(occupancy as u64);
    }

    /// Records a finished request with its end-to-end latency and the
    /// worker time it consumed.
    pub fn record_done(&self, ok: bool, latency_us: f64, busy_us: f64) {
        if ok {
            self.completed.inc();
        } else {
            self.failed.inc();
        }
        self.latency_buckets.observe(latency_us.max(0.0) as u64);
        self.busy_us.add(busy_us.max(0.0) as u64);
        let mut recent = lock(&self.recent_latency);
        if recent.len() == SLO_WINDOW {
            recent.pop_front();
        }
        recent.push_back(latency_us.max(0.0));
    }

    /// Finished requests currently in the sliding latency window (at
    /// most [`SLO_WINDOW`]).
    pub fn recent_latency_count(&self) -> usize {
        lock(&self.recent_latency).len()
    }

    /// Exact nearest-rank latency quantile over the sliding window, in
    /// microseconds; `None` while no request has finished. Unlike
    /// [`StatsSnapshot::latency_quantile_us`] this reflects only the
    /// last [`SLO_WINDOW`] requests — the right horizon for an SLO burn
    /// signal, which must recover once the regression is fixed.
    pub fn recent_latency_quantile(&self, q: f64) -> Option<f64> {
        let mut sorted: Vec<f64> = lock(&self.recent_latency).iter().copied().collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let rank = (sorted.len() as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
        Some(sorted[rank.max(1).min(sorted.len()) - 1])
    }
}

impl StatsSnapshot {
    /// Mean end-to-end latency in microseconds (0 with no requests).
    pub fn mean_latency_us(&self) -> f64 {
        let n = self.completed + self.failed;
        if n == 0 {
            0.0
        } else {
            self.latency_sum_us as f64 / n as f64
        }
    }

    /// Interpolated latency quantile in microseconds (0 with no requests).
    ///
    /// Derived from the power-of-two histogram, so the value is an
    /// estimate whose error is bounded by the width of the bucket the
    /// quantile lands in.
    pub fn latency_quantile_us(&self, q: f64) -> f64 {
        quantile_from_pow2_buckets(&self.latency_buckets, q).unwrap_or(0.0)
    }

    /// The latency row's JSON: the mean and interpolated quantiles ahead
    /// of the raw buckets.
    fn latency_json(&self, o: &mut JsonObject) {
        o.float("mean_latency_us", self.mean_latency_us(), 1);
        for (q, key) in [
            (0.5, "latency_p50_us"),
            (0.95, "latency_p95_us"),
            (0.99, "latency_p99_us"),
        ] {
            o.float(key, self.latency_quantile_us(q), 1);
        }
        o.list("latency_buckets_pow2_us", self.latency_buckets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = RuntimeStats::new();
        s.cache_misses.inc();
        s.compiles.inc();
        s.cache_hits.inc();
        s.cache_hits.inc();
        s.record_enqueue();
        s.record_enqueue();
        s.record_dequeue();
        s.record_done(true, 100.0, 80.0);
        s.record_done(false, 3.0, 2.0);
        s.cache_evictions.inc();
        s.panics.inc();
        s.retries.inc();
        s.retries.inc();
        s.timeouts.inc();
        s.shed.inc();
        s.worker_respawns.inc();
        s.record_batch(4);
        s.record_batch(2);
        let snap = s.snapshot(2);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_evictions, 1);
        assert_eq!(snap.compiles, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.worker_respawns, 1);
        assert_eq!(snap.batched_requests, 6);
        assert_eq!(snap.batches_executed, 2);
        // Occupancy 4 lands in pow2 bucket 2, occupancy 2 in bucket 1.
        assert_eq!(snap.batch_occupancy_buckets[2], 1);
        assert_eq!(snap.batch_occupancy_buckets[1], 1);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.peak_queue_depth, 2);
        assert_eq!(snap.busy_us, 82);
        // Default: serial kernels.
        assert_eq!(snap.kernel_jobs, 1);
        s.kernel_jobs.set(4);
        assert_eq!(s.snapshot(2).kernel_jobs, 4);
        // 100 µs lands in bucket 6 ([64,128)), 3 µs in bucket 1 ([2,4)).
        assert_eq!(snap.latency_buckets[6], 1);
        assert_eq!(snap.latency_buckets[1], 1);
        assert!((snap.mean_latency_us() - 51.5).abs() < 1e-9);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = RuntimeStats::new();
        s.record_done(true, 10.0, 5.0);
        let json = s.snapshot(4).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"compiles\":0"));
        assert!(json.contains("\"workers\":4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_snapshot_format_is_pinned() {
        // The exact export string for this snapshot. Deliberately updated
        // when the format changes so accidental drift still fails the
        // build.
        let mut latency_buckets = [0u64; LATENCY_BUCKETS];
        latency_buckets[6] = 1; // one request at 100 µs
        latency_buckets[1] = 1; // one request at 3 µs
        let mut batch_occupancy_buckets = [0u64; OCCUPANCY_BUCKETS];
        batch_occupancy_buckets[2] = 1; // one batch of occupancy 4
        let snap = StatsSnapshot {
            cache_hits: 2,
            cache_misses: 1,
            cache_evictions: 0,
            compiles: 1,
            completed: 1,
            failed: 1,
            panics: 1,
            retries: 2,
            timeouts: 0,
            shed: 3,
            worker_respawns: 1,
            batched_requests: 4,
            batches_executed: 1,
            queue_depth: 1,
            peak_queue_depth: 2,
            busy_us: 82,
            latency_sum_us: 103,
            latency_buckets,
            batch_occupancy_buckets,
            workers: 2,
            kernel_jobs: 4,
            utilization: 0.25,
            // Rows outside the stats JSON must not leak into it.
            session_margins: vec![(1, 10.25)],
        };
        assert_eq!(
            snap.to_json(),
            concat!(
                "{\"cache_hits\":2,\"cache_misses\":1,",
                "\"cache_evictions\":0,\"compiles\":1,",
                "\"completed\":1,\"failed\":1,\"panics\":1,",
                "\"retries\":2,\"timeouts\":0,\"shed\":3,",
                "\"worker_respawns\":1,\"batched_requests\":4,",
                "\"batches_executed\":1,\"queue_depth\":1,",
                "\"peak_queue_depth\":2,\"busy_us\":82,\"workers\":2,",
                "\"kernel_jobs\":4,",
                "\"utilization\":0.2500,\"mean_latency_us\":51.5,",
                "\"latency_p50_us\":3.0,\"latency_p95_us\":89.6,",
                "\"latency_p99_us\":94.7,",
                "\"latency_buckets_pow2_us\":[0,1,0,0,0,0,1,0,0,0,0,0,",
                "0,0,0,0,0,0,0,0,0,0,0,0],",
                "\"batch_occupancy_buckets_pow2\":[0,0,1,0,0,0,0,0]}"
            )
        );
        // And the live path reproduces the same buckets and sum.
        let s = RuntimeStats::new();
        s.record_done(true, 100.0, 80.0);
        s.record_done(false, 3.0, 2.0);
        let live = s.snapshot(2);
        assert_eq!(live.latency_buckets, latency_buckets);
        assert_eq!(live.latency_sum_us, 103);
    }

    #[test]
    fn prometheus_exposes_runtime_metrics() {
        let s = RuntimeStats::new();
        s.cache_hits.inc();
        s.record_done(true, 10.0, 5.0);
        s.panics.inc();
        s.shed.inc();
        let text = s.prometheus();
        assert!(text.contains("# TYPE hecate_runtime_cache_hits_total counter"));
        assert!(text.contains("hecate_runtime_cache_hits_total 1"));
        assert!(text.contains("hecate_runtime_request_latency_us_count 1"));
        assert!(text.contains("hecate_runtime_request_latency_us_sum 10"));
        assert!(text.contains("hecate_runtime_panics_total 1"));
        assert!(text.contains("hecate_runtime_shed_total 1"));
        assert!(text.contains("hecate_runtime_retries_total 0"));
        assert!(text.contains("hecate_runtime_timeouts_total 0"));
        assert!(text.contains("hecate_runtime_worker_respawns_total 0"));
        assert!(text.contains("hecate_runtime_kernel_jobs 1"));
        s.kernel_jobs.set(4);
        assert!(s.prometheus().contains("hecate_runtime_kernel_jobs 4"));
        s.record_batch(4);
        let text = s.prometheus();
        assert!(text.contains("hecate_runtime_batched_requests_total 4"));
        assert!(text.contains("hecate_runtime_batches_executed_total 1"));
        assert!(text.contains("hecate_runtime_batch_occupancy_count 1"));
        assert!(text.contains("hecate_runtime_batch_occupancy_sum 4"));
    }

    #[test]
    fn recent_latency_window_is_bounded_and_exact() {
        let s = RuntimeStats::new();
        assert_eq!(s.recent_latency_quantile(0.99), None);
        assert_eq!(s.recent_latency_count(), 0);
        for i in 1..=10 {
            s.record_done(true, i as f64, 0.0);
        }
        // Nearest-rank over [1..10]: p50 = 5, p99 = 10, p100 = 10.
        assert_eq!(s.recent_latency_quantile(0.5), Some(5.0));
        assert_eq!(s.recent_latency_quantile(0.99), Some(10.0));
        assert_eq!(s.recent_latency_quantile(1.0), Some(10.0));
        // Overflowing the window drops the oldest entries, so the
        // quantiles track the recent regime, not all of history.
        for _ in 0..SLO_WINDOW {
            s.record_done(true, 1000.0, 0.0);
        }
        assert_eq!(s.recent_latency_count(), SLO_WINDOW);
        assert_eq!(s.recent_latency_quantile(0.5), Some(1000.0));
    }

    #[test]
    fn prometheus_slo_lines_are_pinned() {
        // The exact quantile and per-session margin lines for this
        // workload: 100 µs lands in bucket 6 ([64,128)), 3 µs in bucket 1
        // ([2,4)), so p50 interpolates to the low bucket's midpoint and
        // p95/p99 into the high bucket.
        let s = RuntimeStats::new();
        s.record_done(true, 100.0, 80.0);
        s.record_done(true, 3.0, 2.0);
        s.record_precision(3, 12.5);
        s.record_precision(7, 4.25);
        s.record_precision(3, 18.0); // looser than 12.5 — gauge keeps the min
        let text = s.prometheus();
        assert!(text.contains(
            "# TYPE hecate_runtime_request_latency_p50_us gauge\n\
             hecate_runtime_request_latency_p50_us 3.0\n"
        ));
        assert!(text.contains(
            "# TYPE hecate_runtime_request_latency_p95_us gauge\n\
             hecate_runtime_request_latency_p95_us 89.6\n"
        ));
        assert!(text.contains(
            "# TYPE hecate_runtime_request_latency_p99_us gauge\n\
             hecate_runtime_request_latency_p99_us 94.7\n"
        ));
        assert!(text.contains(
            "# TYPE hecate_runtime_session_min_margin_bits gauge\n\
             hecate_runtime_session_min_margin_bits{session=\"3\"} 12.500\n\
             hecate_runtime_session_min_margin_bits{session=\"7\"} 4.250\n"
        ));
        assert_eq!(s.snapshot(1).session_margins, vec![(3, 12.5), (7, 4.25)]);
        // Non-finite margins are ignored rather than exported as NaN.
        s.record_precision(9, f64::NAN);
        assert_eq!(s.snapshot(1).session_margins.len(), 2);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = RuntimeStats::new().snapshot(1);
        assert_eq!(snap.latency_quantile_us(0.5), 0.0);
        assert_eq!(snap.latency_quantile_us(0.99), 0.0);
        let text = RuntimeStats::new().prometheus();
        assert!(text.contains("hecate_runtime_request_latency_p50_us 0.0"));
        assert!(!text.contains("hecate_runtime_session_min_margin_bits"));
    }
}
