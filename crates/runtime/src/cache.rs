//! The content-addressed compilation cache with single-flight semantics.
//!
//! Serving workloads resubmit the same circuits constantly; the compiler
//! pipeline (SMU construction, hill-climbing SMSE exploration, parameter
//! selection) is orders of magnitude more expensive than a cache probe.
//! The cache is keyed by [`plan_key`]: a stable FNV-1a hash over the
//! canonical re-parsable print form of the submitted [`Function`], the
//! [`Scheme`], and the [`CompileOptions`] fingerprint — so two tenants
//! independently building the same circuit share one compilation, while
//! any change to an operation, a constant payload, or an option lands on
//! a different key.
//!
//! **Single-flight:** when N requests race on a cold key, exactly one
//! runs the pipeline; the rest block on a condvar until the artifact is
//! published. A failed compilation is *not* cached — the pending marker
//! is removed and one of the waiters retries, so a transient failure
//! cannot poison the key forever.

use crate::stats::RuntimeStats;
use hecate_compiler::{compile, CompileOptions, CompiledProgram, Scheme};
use hecate_ir::hash::Fnv1a;
use hecate_ir::print::print_function_full;
use hecate_ir::Function;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::RuntimeError;

/// Stable cache key for a (program, scheme, options) submission.
///
/// FNV-1a over the canonical print form plus the scheme and the options
/// fingerprint — identical across processes and runs, unlike
/// `std::hash`'s randomized hasher.
pub fn plan_key(func: &Function, scheme: Scheme, opts: &CompileOptions) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&print_function_full(func));
    h.write_str(&format!("|scheme={scheme}"));
    h.write_str(&format!("|{}", opts.fingerprint()));
    h.finish()
}

/// What the serving layer keeps per compiled plan: the program under its
/// cache key. Sessions build engines — and so keys — from the program.
#[derive(Debug)]
pub struct PlanArtifact {
    /// The cache key this artifact is stored under.
    pub key: u64,
    /// The compiled program (function, types, selected parameters).
    pub prog: Arc<CompiledProgram>,
}

enum Slot {
    /// Some thread is compiling this key right now.
    Pending,
    /// The artifact is published, with the LRU tick of its last use.
    Ready(Arc<PlanArtifact>, u64),
}

/// What the plan cache knows about one published artifact — the
/// diagnostics view ([`PlanCache::entries`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCacheEntry {
    /// The content-addressed plan key.
    pub key: u64,
    /// Operations in the compiled function.
    pub ops: usize,
    /// The static cost model's latency estimate, microseconds.
    pub estimated_latency_us: f64,
    /// LRU tick of the entry's last use (higher = more recent).
    pub last_used_tick: u64,
}

/// Bound on published artifacts in a [`PlanCache::new`] cache — the one
/// every [`crate::Runtime`] builds.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

/// Content-addressed plan cache (see the module docs).
///
/// The cache holds at most `capacity` *published* artifacts; publishing
/// beyond that evicts the least-recently-used one. `Pending` markers are
/// never evicted (a single-flight waiter is parked on them), and an
/// evicted key simply recompiles on next use — eviction can cost
/// duplicate work, never correctness.
pub struct PlanCache {
    inner: Mutex<Inner>,
    published: Condvar,
    capacity: usize,
    stats: Arc<RuntimeStats>,
}

struct Inner {
    slots: HashMap<u64, Slot>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
}

impl Inner {
    fn touch(&mut self, key: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(Slot::Ready(_, last_used)) = self.slots.get_mut(&key) {
            *last_used = tick;
        }
    }
}

/// Clears the `Pending` marker (and wakes waiters) if the compile closure
/// panics, so a dead compiler cannot wedge single-flight waiters forever.
/// Disarmed on the normal path, where `get_or_compute` publishes or
/// removes the slot itself.
struct PendingGuard<'a> {
    cache: &'a PlanCache,
    key: u64,
    armed: bool,
}

impl PendingGuard<'_> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.lock_inner();
            inner.slots.remove(&self.key);
            drop(inner);
            self.cache.published.notify_all();
        }
    }
}

impl PlanCache {
    /// An empty cache reporting into `stats`, bounded at
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`] published artifacts.
    pub fn new(stats: Arc<RuntimeStats>) -> Self {
        Self::with_capacity(stats, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Locks the slot map, recovering from poisoning. Every mutation of
    /// the map is a single `HashMap` operation, so a panicked holder
    /// cannot leave it structurally inconsistent — the poison flag is
    /// noise for this type, and propagating it would turn one isolated
    /// request panic into a cache-wide outage.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty cache bounded at `capacity` published artifacts
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(stats: Arc<RuntimeStats>, capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
            }),
            published: Condvar::new(),
            capacity: capacity.max(1),
            stats,
        }
    }

    /// Evicts least-recently-used published artifacts until at most
    /// `capacity` remain. Caller holds the lock.
    fn enforce_capacity(&self, inner: &mut Inner) {
        loop {
            let ready = inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready(..)))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(_, last_used) => Some((*last_used, *k)),
                    Slot::Pending => None,
                })
                .min()
                .map(|(_, k)| k)
                .expect("ready > capacity >= 1 implies a victim");
            inner.slots.remove(&victim);
            self.stats.cache_evictions.inc();
        }
    }

    /// Number of published artifacts.
    pub fn len(&self) -> usize {
        self.lock_inner()
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(..)))
            .count()
    }

    /// True when no artifact is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the artifact for `key` is published.
    pub(crate) fn contains(&self, key: u64) -> bool {
        matches!(self.lock_inner().slots.get(&key), Some(Slot::Ready(..)))
    }

    /// The configured bound on published artifacts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One [`PlanCacheEntry`] per published artifact, sorted by key so
    /// diagnostics dumps are deterministic.
    pub fn entries(&self) -> Vec<PlanCacheEntry> {
        let inner = self.lock_inner();
        let mut entries: Vec<PlanCacheEntry> = inner
            .slots
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready(a, last_used) => Some(PlanCacheEntry {
                    key: *k,
                    ops: a.prog.func.len(),
                    estimated_latency_us: a.prog.stats.estimated_latency_us,
                    last_used_tick: *last_used,
                }),
                Slot::Pending => None,
            })
            .collect();
        entries.sort_by_key(|e| e.key);
        entries
    }

    /// Looks up (or compiles, exactly once per key across all racing
    /// threads) the plan for this submission.
    ///
    /// The returned flag reports whether this call was served without
    /// running the pipeline itself — `true` both for an already-published
    /// artifact and for a single-flight waiter that received another
    /// thread's compile. It is determined under the cache lock, so it
    /// cannot disagree with what actually happened (unlike a separate
    /// pre-probe, which races with concurrent publication).
    ///
    /// # Errors
    /// Returns [`RuntimeError::Compile`] when the pipeline rejects the
    /// program; the failure is not cached.
    pub fn get_or_compile(
        &self,
        func: &Function,
        scheme: Scheme,
        opts: &CompileOptions,
    ) -> Result<(Arc<PlanArtifact>, bool), RuntimeError> {
        self.get_or_compile_keyed(plan_key(func, scheme, opts), func, scheme, opts)
    }

    /// [`PlanCache::get_or_compile`] for a caller that already holds the
    /// submission's [`plan_key`] (the runtime hashes a request once, at
    /// admission).
    pub(crate) fn get_or_compile_keyed(
        &self,
        key: u64,
        func: &Function,
        scheme: Scheme,
        opts: &CompileOptions,
    ) -> Result<(Arc<PlanArtifact>, bool), RuntimeError> {
        let mut span =
            hecate_telemetry::trace::span_with("plan-cache", || vec![("plan_key", key.into())]);
        let result = self.get_or_compute(key, || self.compile_artifact(key, func, scheme, opts));
        if let Ok((_, hit)) = &result {
            span.attr("hit", (*hit).into());
        }
        result
    }

    /// The single-flight engine behind [`PlanCache::get_or_compile`],
    /// generic over the compile step so the panic-safety contract is
    /// testable with an injected panicking closure.
    ///
    /// Panic safety: if `compute` panics, a drop guard removes the
    /// `Pending` marker and wakes all waiters before the panic continues
    /// unwinding — waiters never hang on a dead compiler, and the next
    /// caller simply compiles the key afresh.
    fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Arc<PlanArtifact>, RuntimeError>,
    ) -> Result<(Arc<PlanArtifact>, bool), RuntimeError> {
        let mut inner = self.lock_inner();
        loop {
            match inner.slots.get(&key) {
                Some(Slot::Ready(artifact, _)) => {
                    let artifact = artifact.clone();
                    inner.touch(key);
                    self.stats.cache_hits.inc();
                    return Ok((artifact, true));
                }
                Some(Slot::Pending) => {
                    // Someone else is compiling: wait for publication (or
                    // for the pending marker to vanish on failure, in
                    // which case we take over the compile ourselves).
                    inner = self
                        .published
                        .wait(inner)
                        .unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    // Both branches below return, so one call records at
                    // most one miss — hits + misses always equals the
                    // number of lookups, even when a waiter takes over
                    // after another thread's failed compile.
                    self.stats.cache_misses.inc();
                    inner.slots.insert(key, Slot::Pending);
                    drop(inner);
                    let guard = PendingGuard {
                        cache: self,
                        key,
                        armed: true,
                    };
                    let outcome = compute();
                    guard.disarm();
                    let mut inner = self.lock_inner();
                    match outcome {
                        Ok(artifact) => {
                            inner.tick += 1;
                            let tick = inner.tick;
                            inner.slots.insert(key, Slot::Ready(artifact.clone(), tick));
                            self.enforce_capacity(&mut inner);
                            self.published.notify_all();
                            return Ok((artifact, false));
                        }
                        Err(e) => {
                            inner.slots.remove(&key);
                            self.published.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Returns the published artifact for `key`, if any (no compile).
    pub fn get(&self, key: u64) -> Option<Arc<PlanArtifact>> {
        let mut inner = self.lock_inner();
        match inner.slots.get(&key) {
            Some(Slot::Ready(a, _)) => {
                let a = a.clone();
                inner.touch(key);
                Some(a)
            }
            _ => None,
        }
    }

    /// Publishes an externally produced plan (e.g. one reloaded via
    /// [`hecate_compiler::deserialize_plan`]) under its content key.
    pub fn insert(&self, key: u64, prog: Arc<CompiledProgram>) -> Arc<PlanArtifact> {
        let artifact = Arc::new(PlanArtifact { key, prog });
        let mut inner = self.lock_inner();
        inner.tick += 1;
        let tick = inner.tick;
        inner.slots.insert(key, Slot::Ready(artifact.clone(), tick));
        self.enforce_capacity(&mut inner);
        drop(inner);
        self.published.notify_all();
        artifact
    }

    fn compile_artifact(
        &self,
        key: u64,
        func: &Function,
        scheme: Scheme,
        opts: &CompileOptions,
    ) -> Result<Arc<PlanArtifact>, RuntimeError> {
        self.stats.compiles.inc();
        let prog = compile(func, scheme, opts).map_err(RuntimeError::Compile)?;
        Ok(Arc::new(PlanArtifact {
            key,
            prog: Arc::new(prog),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::FunctionBuilder;

    fn sample(scale: f64) -> Function {
        let mut b = FunctionBuilder::new("s", 8);
        let x = b.input_cipher("x");
        let c = b.splat(scale);
        let m = b.mul(x, c);
        let r = b.rotate(m, 1);
        b.output(r);
        b.finish()
    }

    fn opts() -> CompileOptions {
        let mut o = CompileOptions::with_waterline(20.0);
        o.degree = Some(64);
        o
    }

    #[test]
    fn key_is_content_addressed() {
        let o = opts();
        let a = plan_key(&sample(1.5), Scheme::Hecate, &o);
        let b = plan_key(&sample(1.5), Scheme::Hecate, &o);
        assert_eq!(a, b, "independently built identical programs share a key");
        assert_ne!(a, plan_key(&sample(2.5), Scheme::Hecate, &o), "constant");
        assert_ne!(a, plan_key(&sample(1.5), Scheme::Eva, &o), "scheme");
        let mut o2 = opts();
        o2.waterline_bits = 24.0;
        assert_ne!(a, plan_key(&sample(1.5), Scheme::Hecate, &o2), "options");
    }

    #[test]
    fn hit_after_miss() {
        let stats = Arc::new(RuntimeStats::new());
        let cache = PlanCache::new(stats.clone());
        let f = sample(1.5);
        let o = opts();
        let (a1, hit1) = cache.get_or_compile(&f, Scheme::Hecate, &o).unwrap();
        let (a2, hit2) = cache.get_or_compile(&f, Scheme::Hecate, &o).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(!hit1, "cold lookup compiles");
        assert!(hit2, "warm lookup hits");
        let snap = stats.snapshot(1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.compiles, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let stats = Arc::new(RuntimeStats::new());
        let cache = PlanCache::with_capacity(stats.clone(), 2);
        let o = opts();
        let (f1, f2, f3) = (sample(1.0), sample(2.0), sample(3.0));
        cache.get_or_compile(&f1, Scheme::Hecate, &o).unwrap();
        cache.get_or_compile(&f2, Scheme::Hecate, &o).unwrap();
        // Touch f1 so f2 is the LRU entry when f3 arrives.
        cache.get_or_compile(&f1, Scheme::Hecate, &o).unwrap();
        cache.get_or_compile(&f3, Scheme::Hecate, &o).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(stats.snapshot(1).cache_evictions, 1);
        // f1 survived (recently used), f2 was evicted.
        let (_, hit1) = cache.get_or_compile(&f1, Scheme::Hecate, &o).unwrap();
        assert!(hit1, "recently used entry must survive");
        let (_, hit2) = cache.get_or_compile(&f2, Scheme::Hecate, &o).unwrap();
        assert!(!hit2, "LRU entry must have been evicted");
    }

    #[test]
    fn single_flight_survives_eviction_races() {
        let stats = Arc::new(RuntimeStats::new());
        let cache = PlanCache::with_capacity(stats.clone(), 1);
        let o = opts();
        let (fa, fb) = (sample(1.0), sample(2.0));
        cache.get_or_compile(&fa, Scheme::Hecate, &o).unwrap();
        // Publishing B evicts A (capacity 1).
        cache.get_or_compile(&fb, Scheme::Hecate, &o).unwrap();
        assert_eq!(stats.snapshot(1).cache_evictions, 1);
        // Eight threads race the evicted key: single-flight must still
        // compile exactly once more.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get_or_compile(&fa, Scheme::Hecate, &o).unwrap();
                });
            }
        });
        let snap = stats.snapshot(1);
        assert_eq!(snap.compiles, 3, "one compile per cold key, ever");
        assert_eq!(snap.cache_hits + snap.cache_misses, 10);
    }

    /// The tentpole panic-safety contract: a compiler panic mid-flight
    /// clears the `Pending` marker (via the drop guard) and wakes blocked
    /// waiters, which then take over and compile the key themselves. No
    /// waiter hangs, and the cache stays usable afterwards.
    #[test]
    fn panicked_compile_frees_the_key_and_wakes_waiters() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;

        let stats = Arc::new(RuntimeStats::new());
        let cache = PlanCache::new(stats.clone());
        let f = sample(1.5);
        let o = opts();
        let key = plan_key(&f, Scheme::Hecate, &o);

        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let cache_ref = &cache;
            let panicker = s.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    cache_ref.get_or_compute(key, || {
                        started_tx.send(()).unwrap();
                        go_rx.recv().unwrap();
                        panic!("injected compiler panic");
                    })
                }))
            });
            // The panicker owns the Pending slot before the waiter starts,
            // so the waiter either parks on it or arrives after cleanup —
            // both must end with the waiter compiling successfully.
            started_rx.recv().unwrap();
            let waiter = s.spawn(|| cache.get_or_compile(&f, Scheme::Hecate, &o));
            std::thread::sleep(std::time::Duration::from_millis(20));
            go_tx.send(()).unwrap();
            assert!(panicker.join().unwrap().is_err(), "panic must propagate");
            let (_, hit) = waiter.join().unwrap().unwrap();
            assert!(!hit, "waiter takes over the compile after the panic");
        });
        assert_eq!(cache.len(), 1, "the waiter's artifact is published");
        // The panicked flight recorded a miss but no compile; the waiter
        // recorded both.
        let snap = stats.snapshot(1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.compiles, 1);
    }

    /// A panic while *holding* the slot-map lock poisons the mutex; the
    /// cache must recover (the map is structurally sound) rather than
    /// propagate the poison into every later request.
    #[test]
    fn poisoned_lock_is_recovered() {
        let cache = PlanCache::new(Arc::new(RuntimeStats::new()));
        let f = sample(1.5);
        let o = opts();
        cache.get_or_compile(&f, Scheme::Hecate, &o).unwrap();
        std::thread::scope(|s| {
            // Poison the inner mutex deliberately: panic while holding it.
            let poisoner = s.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("poison the cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.inner.is_poisoned(), "setup must have poisoned");
        assert_eq!(cache.len(), 1, "len recovers the poisoned lock");
        let (_, hit) = cache.get_or_compile(&f, Scheme::Hecate, &o).unwrap();
        assert!(hit, "lookups keep working on a poisoned cache");
    }

    #[test]
    fn failed_compile_is_not_cached() {
        let stats = Arc::new(RuntimeStats::new());
        let cache = PlanCache::new(stats.clone());
        let mut o = opts();
        o.max_chain_len = 1; // (x·c) rescaled needs ≥ 2 primes: forces failure
        let f = sample(1.5);
        assert!(cache.get_or_compile(&f, Scheme::Hecate, &o).is_err());
        assert!(cache.is_empty(), "failures must not be cached");
        // The same key compiles fine once the constraint is lifted.
        let o2 = opts();
        assert!(cache.get_or_compile(&f, Scheme::Hecate, &o2).is_ok());
        // Accounting stays one hit-or-miss per lookup even across failures.
        let snap = stats.snapshot(1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.compiles, 2);
    }
}
