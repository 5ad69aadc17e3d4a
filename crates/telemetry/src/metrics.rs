//! The metrics registry: named counters, gauges, and power-of-two
//! histograms.
//!
//! A [`Registry`] maps names to metric handles. Handles are `Arc`ed
//! atomics: the registry lock is taken only to *resolve* a name, after
//! which recording is a relaxed atomic operation — the same discipline
//! the serving runtime's hand-rolled counters used before they migrated
//! here. [`Registry::prometheus`] renders the whole registry as a
//! Prometheus-style text exposition.
//!
//! Histograms use power-of-two buckets: bucket `k` counts observations
//! in `[2^k, 2^{k+1})` (bucket 0 also absorbs zero), and the last bucket
//! is open-ended. This is exactly the shape the runtime's latency
//! histogram always had, so its JSON snapshot stays byte-compatible.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways, with a helper for
/// tracking a high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (may be negative) and returns the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.0.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is higher (atomic max).
    #[inline]
    pub fn record_max(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A power-of-two histogram: bucket `k` counts observations in
/// `[2^k, 2^{k+1})`, the last bucket is open-ended.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram with `buckets` power-of-two buckets, not attached to
    /// any registry.
    pub fn with_buckets(buckets: usize) -> Self {
        assert!(buckets >= 1, "a histogram needs at least one bucket");
        Histogram(Arc::new(HistogramCore {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = (64 - value.leading_zeros() as usize)
            .saturating_sub(1)
            .min(self.0.buckets.len() - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) with linear interpolation inside
    /// the containing power-of-two bucket — see
    /// [`quantile_from_pow2_buckets`]. `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_pow2_buckets(&self.bucket_counts(), q)
    }
}

/// The `q`-quantile of a power-of-two bucketed histogram, interpolated.
///
/// Bucket `k` spans `[2^k, 2^{k+1})` (bucket 0 starts at zero, the last
/// bucket is treated as if it closed at its power-of-two boundary). The
/// target rank is `q · count`, clamped to `[1, count]`; within the bucket
/// that holds it, the value is linearly interpolated between the bucket's
/// bounds by the rank's position among the bucket's observations. The
/// result is exact to within one bucket's width rather than quantized to
/// a power of two — the difference between reporting p99 = 65 536 µs and
/// p99 ≈ 71 000 µs.
///
/// Returns `None` for an empty histogram or a `q` outside `[0, 1]`.
pub fn quantile_from_pow2_buckets(buckets: &[u64], q: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let target = (q * count as f64).clamp(1.0, count as f64);
    let mut cum = 0u64;
    for (k, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (cum + c) as f64 >= target {
            let lo = if k == 0 { 0.0 } else { (1u64 << k) as f64 };
            let hi = (1u128 << (k + 1)) as f64;
            // Midpoint convention: the j-th of c observations in a bucket
            // sits at position (j − ½)/c, so a lone observation reads as
            // the bucket midpoint and no rank touches the open bound.
            let frac = ((target - cum as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
            return Some(lo + frac * (hi - lo));
        }
        cum += c;
    }
    // Unreachable while the loop covers every observation, but a safe
    // answer exists: the top of the last nonempty bucket.
    let k = buckets.iter().rposition(|&c| c > 0)?;
    Some((1u128 << (k + 1)) as f64)
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A name → metric map with get-or-create registration.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().unwrap();
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Resolves (creating on first use) the counter called `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Resolves (creating on first use) the gauge called `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Resolves (creating on first use) the histogram called `name` with
    /// `buckets` power-of-two buckets.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, buckets: usize) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::with_buckets(buckets))) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Renders the registry as a Prometheus-style text exposition, one
    /// family per metric, sorted by name.
    ///
    /// Histogram buckets are cumulative with `le` upper bounds at
    /// `2^(k+1)` and a final `+Inf` bucket, matching the power-of-two
    /// bucket layout.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.metrics.lock().unwrap().iter() {
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            let _ = match metric {
                Metric::Counter(c) => writeln!(out, "{name} {}", c.get()),
                Metric::Gauge(g) => writeln!(out, "{name} {}", g.get()),
                Metric::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (k, c) in buckets.iter().enumerate() {
                        cumulative += c;
                        if k + 1 < buckets.len() {
                            let le = 1u128 << (k + 1);
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                        }
                    }
                    writeln!(
                        out,
                        "{name}_bucket{{le=\"+Inf\"}} {cumulative}\n{name}_sum {}\n{name}_count {}",
                        h.sum(),
                        h.count()
                    )
                }
            };
        }
        out
    }
}

/// The process-global registry. Compiler- and backend-level metrics land
/// here; per-instance subsystems (one serving runtime among several) own
/// their own [`Registry`] to keep instances from aliasing.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("reqs_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("reqs_total").get(), 5, "same handle by name");
        let g = r.gauge("depth");
        assert_eq!(g.add(3), 3);
        assert_eq!(g.add(-1), 2);
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_bucket_math_matches_runtime_stats() {
        let h = Histogram::with_buckets(24);
        // 100 µs lands in bucket 6 ([64,128)), 3 µs in bucket 1 ([2,4)),
        // 0 in bucket 0 — the exact layout RuntimeStats always used.
        h.observe(100);
        h.observe(3);
        h.observe(0);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[6], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[0], 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 103);
        // The last bucket is open-ended.
        h.observe(u64::MAX);
        assert_eq!(h.bucket_counts()[23], 1);
    }

    #[test]
    fn histogram_extreme_values() {
        // Zero lands in bucket 0 ([0,2)): `64 - leading_zeros(0) = 0`,
        // saturating_sub keeps the index at 0 rather than wrapping.
        let h = Histogram::with_buckets(8);
        h.observe(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.sum(), 0);
        // u64::MAX clamps into the open-ended last bucket, and the sum
        // tracks it exactly.
        h.observe(u64::MAX);
        assert_eq!(h.bucket_counts()[7], 1);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        // A single-bucket histogram absorbs everything.
        let one = Histogram::with_buckets(1);
        one.observe(0);
        one.observe(12345);
        one.observe(u64::MAX);
        assert_eq!(one.bucket_counts(), vec![3]);
        // Boundary values land in the bucket whose range opens at them.
        let h2 = Histogram::with_buckets(8);
        h2.observe(1); // [1,2) → bucket 0
        h2.observe(2); // [2,4) → bucket 1
        h2.observe(4); // [4,8) → bucket 2
        let b = h2.bucket_counts();
        assert_eq!((b[0], b[1], b[2]), (1, 1, 1));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 1..=1024 uniformly: every pow2 bucket [2^k, 2^{k+1}) is exactly
        // full, so linear interpolation recovers exact quantiles almost
        // perfectly — the whole point over pow2 quantization.
        let h = Histogram::with_buckets(16);
        for v in 1..=1024u64 {
            h.observe(v);
        }
        let exact = |q: f64| (q * 1024.0).round();
        for q in [0.5, 0.9, 0.95, 0.99] {
            let est = h.quantile(q).unwrap();
            let want = exact(q);
            assert!(
                (est - want).abs() <= want * 0.01 + 2.0,
                "q={q}: interpolated {est} vs exact {want}"
            );
        }
        // Without interpolation p95 would be quantized to 512 or 1024;
        // the interpolated value sits strictly between.
        let p95 = h.quantile(0.95).unwrap();
        assert!(p95 > 520.0 && p95 < 1020.0, "p95={p95} is not quantized");
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::with_buckets(8);
        assert_eq!(h.quantile(0.5), None, "empty histogram");
        h.observe(100);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // A single observation: every quantile lands in its bucket
        // [64, 128).
        for q in [0.0, 0.5, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!((64.0..128.0).contains(&est), "q={q} gave {est}");
        }
        // A point mass split across two buckets interpolates between
        // them: 3 at bucket [2,4), 1 at bucket [8,16) → p50 inside [2,4).
        let h2 = Histogram::with_buckets(8);
        for _ in 0..3 {
            h2.observe(3);
        }
        h2.observe(9);
        let p50 = h2.quantile(0.5).unwrap();
        assert!((2.0..4.0).contains(&p50), "p50={p50}");
        let p100 = h2.quantile(1.0).unwrap();
        assert!((8.0..=16.0).contains(&p100), "p100={p100}");
        // The free function agrees with the method.
        assert_eq!(
            quantile_from_pow2_buckets(&h2.bucket_counts(), 0.5),
            Some(p50)
        );
    }

    #[test]
    fn counter_saturates_by_wrapping_consistently() {
        // fetch_add wraps on overflow; the counter must not panic and the
        // wrapped value must still be observable (Prometheus semantics
        // treat a counter reset/wrap as a restart, not an error).
        let c = Counter::new();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(3);
        assert_eq!(c.get(), 2, "wrapping add, two past zero");
    }

    #[test]
    fn empty_registry_prometheus_export() {
        let r = Registry::new();
        assert_eq!(r.prometheus(), "", "no metrics, no output");
        // A histogram with zero observations still renders complete
        // cumulative buckets, sum, and count.
        r.histogram("empty_us", 3);
        let text = r.prometheus();
        assert!(text.contains("# TYPE empty_us histogram"));
        assert!(text.contains("empty_us_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("empty_us_sum 0\n"));
        assert!(text.contains("empty_us_count 0\n"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("a_total").add(2);
        r.gauge("b").set(-3);
        let h = r.histogram("lat_us", 4);
        h.observe(1);
        h.observe(9); // bucket 3 (open end: [8, ∞))
        let text = r.prometheus();
        assert!(text.contains("# TYPE a_total counter\na_total 2\n"));
        assert!(text.contains("# TYPE b gauge\nb -3\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_sum 10\n"));
        assert!(text.contains("lat_us_count 2\n"));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("telemetry_test_global_total").inc();
        assert!(global().counter("telemetry_test_global_total").get() >= 1);
    }
}
