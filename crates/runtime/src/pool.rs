//! The serving runtime: a request queue feeding a supervised worker pool.
//!
//! [`Runtime`] owns the three subsystems: the [`PlanCache`] resolves (or
//! compiles, once) a request's plan, the [`SessionManager`] resolves the
//! tenant's engine (building keys on first use), and the backend's one op
//! driver ([`hecate_backend::exec::execute`]) runs the request's ops one
//! at a time on the serving thread. Worker
//! threads pull from one bounded FIFO queue (`JobQueue`: a deque under
//! one mutex, idle workers parked on one condvar), and [`RuntimeStats`]
//! observes every stage. The only threads inside a request are the limb
//! stripes of its kernels, scoped to one kernel call: every engine
//! stripes over `jobs_per_request × backend.kernel_jobs` threads, so a
//! request runs on at most that many.
//!
//! Every dequeued request is served by the `serve` module's one path, as
//! a group of 1..=[`RuntimeConfig::max_batch`] same-plan requests; its
//! module docs list the failure domains that keep one bad request from
//! taking the service down.

use crate::cache::{plan_key, PlanCache};
use crate::chaos::{ChaosOptions, ChaosState};
use crate::session::{SessionId, SessionManager};
use crate::stats::{RuntimeStats, StatsSnapshot};
use crate::RuntimeError;
use hecate_backend::exec::{BackendOptions, EncryptedRun};
use hecate_compiler::{CompileOptions, Scheme};
use hecate_ir::Function;
use hecate_telemetry::{recorder, trace};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Process-wide request-id mint. Ids start at 1 so `0` can mean "no
/// request context" in [`trace::push_context`].
static NEXT_REQ_ID: AtomicU64 = AtomicU64::new(1);

/// Default bound on queued requests
/// ([`RuntimeConfig::queue_capacity`] overrides it). Deliberately
/// generous: the bound exists to make overload a typed, observable
/// rejection instead of unbounded memory growth, not to throttle normal
/// operation.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// Periodic diagnostics dumps: where to write them and how often.
///
/// With this set, the runtime runs a `hecate-diag` thread writing a
/// [`crate::diag::DiagnosticsReport`] JSON file every `interval`, plus
/// a final dump at shutdown, plus a `blackbox-req{id}.json` crash dump
/// whenever a request panics (written *before* the supervisor recycles
/// the worker, so the evidence survives even if the process dies next).
#[derive(Debug, Clone)]
pub struct DiagOptions {
    /// Directory receiving `diag-NNNNNN.json` and `blackbox-*.json`
    /// files; created if missing.
    pub dir: PathBuf,
    /// Period between snapshot dumps.
    pub interval: Duration,
}

/// Configuration of one [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads pulling from the request queue (inter-request
    /// parallelism).
    pub workers: usize,
    /// Threads per request, for solo and slot-batched runs alike: every
    /// engine stripes its kernels' limbs over `jobs_per_request ×
    /// backend.kernel_jobs` threads. The serving thread is always one of
    /// them, and ops always run one at a time, in SSA order.
    pub jobs_per_request: usize,
    /// Backend options applied to every engine. The seed field is
    /// overridden per session.
    pub backend: BackendOptions,
    /// Bound on queued requests (clamped to at least 1). A full queue
    /// rejects submissions with [`RuntimeError::QueueFull`].
    pub queue_capacity: usize,
    /// Cost-priced admission budget, microseconds. When set, a request
    /// whose plan is already cached is shed at submission if
    /// `estimated_latency_us × (queue_depth + 1)` exceeds this budget —
    /// an estimate of the total backlog cost the request would join.
    /// Unknown plans are always admitted (their first run is how the
    /// estimator learns). `None` disables shedding.
    pub admission_budget_us: Option<f64>,
    /// Chaos-injection policy, for resilience testing. `None` (the
    /// default) serves normally.
    pub chaos: Option<ChaosOptions>,
    /// How long a worker that dequeued a request waits for compatible
    /// requests (same plan) to coalesce into one slot-batched execution.
    /// Zero (the default) disables waiting — a batch still forms from
    /// requests already queued when [`RuntimeConfig::max_batch`] permits.
    pub batch_window: Duration,
    /// Upper bound on how many compatible requests share one packed
    /// ciphertext. `1` (the default) disables batching entirely; the
    /// effective occupancy is always a power of two and shrinks to what
    /// the plan's slot footprint allows.
    pub max_batch: usize,
    /// Requests at least this slow have their span tree promoted out of
    /// the flight-recorder ring ([`hecate_telemetry::recorder`]) even
    /// when they succeed. Failures (shed / timed-out / guard-failed /
    /// panicked) are retained regardless; `None` (the default) retains
    /// only those.
    pub slow_threshold: Option<Duration>,
    /// Latency objective, microseconds, reported against the sliding
    /// p99 in [`crate::diag::DiagnosticsReport`] as an SLO burn ratio.
    /// `None` reports quantiles without a target.
    pub slo_target_us: Option<f64>,
    /// Periodic diagnostics dumps and panic black boxes; `None` (the
    /// default) disables the dump thread (a [`Runtime::diagnose`] call
    /// still works).
    pub diag: Option<DiagOptions>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            jobs_per_request: 1,
            backend: BackendOptions::default(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            admission_budget_us: None,
            chaos: None,
            batch_window: Duration::ZERO,
            max_batch: 1,
            slow_threshold: None,
            slo_target_us: None,
            diag: None,
        }
    }
}

/// One unit of serving work: a program to run for a session.
#[derive(Debug, Clone)]
pub struct Request {
    /// The tenant session executing (and paying the keys for) this run.
    pub session: SessionId,
    /// The source program (pre-scale-management IR).
    pub func: Function,
    /// Scale-management scheme to compile with.
    pub scheme: Scheme,
    /// Compiler options; part of the cache key.
    pub options: CompileOptions,
    /// Input bindings.
    pub inputs: HashMap<String, Vec<f64>>,
    /// End-to-end deadline, measured from submission. Expiry anywhere —
    /// in queue, mid-execution (checked between ops), or between retry
    /// attempts — fails the request with [`RuntimeError::TimedOut`].
    /// `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Additional execution attempts allowed after a *transient* failure
    /// (a guard trip or noise-budget exhaustion). Retries run on the
    /// session's cached engine with exponential backoff. `0` fails fast.
    pub max_retries: u32,
}

/// The outcome of one served request.
#[derive(Debug)]
pub struct Response {
    /// The encrypted run (outputs, timings, memory peaks).
    pub run: EncryptedRun,
    /// Whether the plan came out of the cache without compiling.
    pub cache_hit: bool,
    /// The content-addressed plan key this request resolved to.
    pub plan_key: u64,
    /// End-to-end latency (queue wait + compile/lookup + execution),
    /// microseconds.
    pub latency_us: f64,
    /// Re-execution attempts this response needed (0 = first try).
    pub retries: u32,
    /// How many requests shared the packed ciphertext that produced this
    /// response (`1` = solo execution).
    pub batch_occupancy: usize,
    /// The correlation id minted for this request at admission. Every
    /// telemetry event the request produced — through the queue, the
    /// batch coalescer, and the backend executor — carries it as a
    /// `req_id` attr, and a retained flight-recorder trace is looked up
    /// by it ([`hecate_telemetry::recorder::retained_trace`]).
    pub req_id: u64,
}

pub(crate) struct Job {
    pub(crate) req: Request,
    /// `plan_key` of the request, hashed once at admission.
    pub(crate) key: u64,
    pub(crate) reply: mpsc::Sender<Result<Response, RuntimeError>>,
    pub(crate) enqueued: Instant,
    pub(crate) req_id: u64,
}

/// Why [`JobQueue::push`] rejected an item.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity.
    Full,
    /// [`JobQueue::close`] was called; no further work is accepted.
    Closed,
}

/// The bounded FIFO every worker pulls from: one deque and a closed flag
/// under one mutex, and one condvar that idle workers and batch
/// coalescers park on.
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    wake: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// An empty queue holding at most `capacity` items (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Locks the state, recovering from poisoning: every critical
    /// section is one deque operation or a flag store, so a panicked
    /// holder cannot leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `item` and wakes every waiter.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        // Every waiter, not one: the one woken could be a coalescer whose
        // filter rejects this item while an idle `pop` sleeps on.
        self.wake.notify_all();
        Ok(())
    }

    /// Blocks until an item is queued and takes the front one. Returns
    /// `None` only once the queue is closed *and* empty, so accepted work
    /// always drains through shutdown.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Removes the oldest queued item `wanted` accepts, waiting until
    /// `deadline` for one to arrive; items it rejects keep their place
    /// for [`JobQueue::pop`]. A match already queued is returned even
    /// past the deadline; otherwise `None` once the deadline passes or
    /// the queue closes. This is how the batch coalescer collects
    /// same-plan members without dequeuing anything it cannot batch.
    pub(crate) fn take_matching(
        &self,
        deadline: Instant,
        wanted: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(at) = state.items.iter().position(&wanted) {
                return state.items.remove(at);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if state.closed || left.is_zero() {
                return None;
            }
            state = self
                .wake
                .wait_timeout(state, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`],
    /// and waiters wake to drain what remains and then see `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }
}

pub(crate) struct Inner {
    pub(crate) config: RuntimeConfig,
    pub(crate) cache: PlanCache,
    pub(crate) sessions: SessionManager,
    pub(crate) stats: Arc<RuntimeStats>,
    pub(crate) queue: JobQueue<Job>,
    pub(crate) chaos: ChaosState,
}

impl Inner {
    /// The supervised serving loop: catches the panic a request re-raises
    /// after its `Panicked` reply (or any that escapes it), counts a respawn,
    /// and re-enters the loop — a panicked worker recycles instead of
    /// dying. Returns only when the queue is closed and drained
    /// (shutdown).
    fn supervise(self: Arc<Inner>) {
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.worker_loop())) {
                Ok(()) => return, // queue closed: clean shutdown
                Err(_) => {
                    self.stats.worker_respawns.inc();
                    trace::mark_with("worker-respawn", Vec::new);
                }
            }
        }
    }

    /// Serves jobs until the queue is closed and drained. `pop` parks on
    /// the queue's condvar when idle and returns `None` only once the
    /// queue is closed *and* empty, so shutdown never drops a request
    /// that was accepted. Every job is served as a group with the
    /// same-plan requests that join it (none, at `max_batch` 1).
    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            self.dequeued(&job);
            crate::serve::serve(self, job);
        }
    }

    /// Accounts for `job` leaving the queue: the depth gauge, and its
    /// queue wait — a Complete event rather than a span, because the
    /// wait crosses threads (enqueued by the client, dequeued by a
    /// worker).
    pub(crate) fn dequeued(&self, job: &Job) {
        self.stats.record_dequeue();
        trace::complete_with("queue-wait", job.enqueued, || {
            vec![
                ("session", job.req.session.into()),
                ("req_id", job.req_id.into()),
            ]
        });
    }
}

/// A multi-tenant serving runtime (see the crate docs for the tour).
pub struct Runtime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// Keeps the flight recorder at [`recorder::Level::Ring`] while this
    /// runtime lives; released after the workers have been joined.
    _recorder: recorder::Hold,
    /// The periodic diagnostics dumper, when [`RuntimeConfig::diag`] is
    /// set: its stop flag and thread handle.
    diag: Option<(Arc<crate::diag::DiagStop>, JoinHandle<()>)>,
}

impl Runtime {
    /// Starts a runtime with `config.workers` serving threads.
    pub fn new(mut config: RuntimeConfig) -> Runtime {
        let workers_n = config.workers.max(1);
        let recorder_hold = recorder::hold(recorder::Level::Ring);
        let stats = Arc::new(RuntimeStats::new());
        let kernel_jobs = config.backend.kernel_jobs.max(1);
        config.backend.kernel_jobs = kernel_jobs.saturating_mul(config.jobs_per_request.max(1));
        stats.kernel_jobs.set(config.backend.kernel_jobs as i64);
        let inner = Arc::new(Inner {
            cache: PlanCache::new(stats.clone()),
            sessions: SessionManager::new(config.backend.seed),
            stats,
            queue: JobQueue::new(config.queue_capacity),
            chaos: ChaosState::default(),
            config,
        });
        let workers = (0..workers_n)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("hecate-worker-{i}"))
                    .spawn(move || inner.supervise())
                    .expect("worker thread spawns")
            })
            .collect();
        let diag = inner.config.diag.clone().map(|opts| {
            let stop = Arc::new(crate::diag::DiagStop::default());
            let dump_inner = inner.clone();
            let dump_stop = stop.clone();
            let handle = std::thread::Builder::new()
                .name("hecate-diag".to_string())
                .spawn(move || crate::diag::dump_loop(&dump_inner, &opts, &dump_stop))
                .expect("diag thread spawns");
            (stop, handle)
        });
        Runtime {
            inner,
            workers,
            _recorder: recorder_hold,
            diag,
        }
    }

    /// An on-demand [`crate::diag::DiagnosticsReport`]: queue depth,
    /// plan-cache contents, per-session noise
    /// margins, retained flight-recorder traces, and SLO burn. The same
    /// report the `hecate-diag` thread dumps periodically.
    pub fn diagnose(&self) -> crate::diag::DiagnosticsReport {
        crate::diag::collect(&self.inner)
    }

    /// Opens a tenant session and returns its id.
    pub fn open_session(&self) -> SessionId {
        self.inner.sessions.open().id()
    }

    /// Closes a tenant session, dropping its keys.
    pub fn close_session(&self, id: SessionId) {
        self.inner.sessions.close(id);
    }

    /// Enqueues a request; the returned receiver yields the response when
    /// a worker finishes it.
    ///
    /// # Errors
    /// Rejects without enqueueing when admission control sheds the
    /// request ([`RuntimeError::Shed`], only with
    /// [`RuntimeConfig::admission_budget_us`] set) or the bounded queue
    /// is full ([`RuntimeError::QueueFull`]). Rejected requests count in
    /// the `shed` statistic, not `failed`.
    ///
    pub fn submit(
        &self,
        req: Request,
    ) -> Result<mpsc::Receiver<Result<Response, RuntimeError>>, RuntimeError> {
        let inner = &self.inner;
        // The correlation id is minted at admission — before shedding —
        // so even a rejected request has an id its trace can hang off.
        let req_id = NEXT_REQ_ID.fetch_add(1, Ordering::Relaxed);
        // The one hash of this request's plan: admission, the coalescer
        // and the cache lookup all read `job.key`.
        let key = plan_key(&req.func, req.scheme, &req.options);
        if let Some(budget_us) = inner.config.admission_budget_us {
            // Price only plans already cached: an unknown plan is always
            // admitted (running it is how its cost becomes known).
            if let Some(artifact) = inner.cache.get(key) {
                let estimated_us = artifact.prog.stats.estimated_latency_us;
                let queue_depth = inner.stats.queue_depth();
                if estimated_us * (queue_depth + 1) as f64 > budget_us {
                    inner.stats.shed.inc();
                    let _ctx = trace::push_context(req_id, 0);
                    trace::mark_with("shed", || {
                        vec![
                            ("plan_key", key.into()),
                            ("estimated_us", estimated_us.into()),
                            ("queue_depth", queue_depth.into()),
                        ]
                    });
                    recorder::retain_with(req_id, 0, "shed");
                    return Err(RuntimeError::Shed {
                        estimated_us,
                        queue_depth,
                        budget_us,
                    });
                }
            }
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            req,
            key,
            reply: tx,
            enqueued: Instant::now(),
            req_id,
        };
        match inner.queue.push(job) {
            Ok(()) => {
                inner.stats.record_enqueue();
                Ok(rx)
            }
            Err(PushError::Full) => {
                inner.stats.shed.inc();
                Err(RuntimeError::QueueFull {
                    capacity: inner.config.queue_capacity.max(1),
                })
            }
            Err(PushError::Closed) => Err(RuntimeError::Shutdown),
        }
    }

    /// Runs a batch of requests across the worker pool, returning the
    /// responses in submission order. Requests rejected at admission
    /// (shed, or overflowing the bounded queue) appear as their typed
    /// errors in the corresponding positions.
    pub fn run_batch(&self, reqs: Vec<Request>) -> Vec<Result<Response, RuntimeError>> {
        let receivers: Vec<_> = reqs.into_iter().map(|r| self.submit(r)).collect();
        receivers
            .into_iter()
            .map(|rx| match rx {
                Ok(rx) => rx.recv().unwrap_or(Err(RuntimeError::Shutdown)),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// A snapshot of the runtime's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(self.inner.config.workers)
    }

    /// Number of compiled plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.inner.cache.len()
    }

    /// The runtime's counters rendered in Prometheus text format.
    pub fn metrics_prometheus(&self) -> String {
        self.inner.stats.prometheus()
    }

    /// Drains the queue and joins the worker threads: what dropping the
    /// runtime does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.queue.close(); // workers drain what remains, then exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some((stop, handle)) = self.diag.take() {
            // The dumper writes one final snapshot on the way out, so a
            // clean shutdown still leaves a last-known-good report.
            stop.raise();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{JobQueue, PushError};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    fn len<T>(q: &JobQueue<T>) -> usize {
        q.lock().items.len()
    }

    #[test]
    fn push_pop_roundtrip_and_capacity() {
        let q: JobQueue<u32> = JobQueue::new(3);
        for i in 1..=3 {
            q.push(i).unwrap();
        }
        assert_eq!(q.push(4), Err(PushError::Full));
        assert_eq!(len(&q), 3);
        assert_eq!([q.pop(), q.pop(), q.pop()], [Some(1), Some(2), Some(3)]);
        assert_eq!(len(&q), 0);
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let q: JobQueue<u32> = JobQueue::new(8);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(PushError::Closed));
        // Accepted work still drains after close...
        assert_eq!(q.pop(), Some(7));
        // ...and an empty closed queue reports shutdown, ending a
        // coalescing window at once.
        assert_eq!(q.pop(), None);
        let window_end = Instant::now() + Duration::from_secs(5);
        assert_eq!(q.take_matching(window_end, |_| true), None);
    }

    /// A coalescer's `take_matching` reaches past items its filter
    /// rejects, leaves them in place for `pop`, and wakes on a matching
    /// push without polling.
    #[test]
    fn take_matching_skips_mismatches_and_wakes_on_push() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(8));
        let even = |x: &u32| x.is_multiple_of(2);
        let soon = || Instant::now() + Duration::from_millis(40);
        q.push(1).unwrap();
        q.push(6).unwrap();
        assert_eq!(q.take_matching(soon(), even), Some(6));
        assert_eq!(
            q.take_matching(soon(), even),
            None,
            "a mismatch is never taken"
        );
        assert_eq!(q.pop(), Some(1), "the mismatch kept its place");

        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let item = q.take_matching(Instant::now() + Duration::from_secs(5), even);
                (item, t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        q.push(3).unwrap();
        q.push(8).unwrap();
        let (item, waited) = waiter.join().unwrap();
        assert_eq!(item, Some(8));
        assert!(
            waited < Duration::from_secs(2),
            "coalescer waited {waited:?} for a pushed match (the condvar must wake it)"
        );
        assert_eq!(q.pop(), Some(3), "the rejected push is still queued");
    }

    /// Idle workers and coalescers park on one condvar. A coalescer whose
    /// filter rejects a pushed item must not absorb the only wakeup while
    /// an idle `pop` sleeps through it.
    #[test]
    fn rejected_push_still_wakes_an_idle_pop() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(8));
        let coalescer = {
            let q = q.clone();
            let window_end = Instant::now() + Duration::from_secs(30);
            std::thread::spawn(move || q.take_matching(window_end, |_| false))
        };
        // Park the coalescer first, so it is the waiter a single notify
        // would reach.
        std::thread::sleep(Duration::from_millis(50));
        let (tx, rx) = mpsc::channel();
        let idle = {
            let q = q.clone();
            std::thread::spawn(move || tx.send(q.pop()).unwrap())
        };
        std::thread::sleep(Duration::from_millis(50));
        q.push(42).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5));
        // Closing releases both threads whatever happened above.
        q.close();
        assert_eq!(got, Ok(Some(42)), "the idle pop slept through the push");
        idle.join().unwrap();
        assert_eq!(coalescer.join().unwrap(), None);
    }

    /// Many producers and consumers: every item pushed is popped exactly
    /// once, none are lost, and the queue ends empty.
    #[test]
    fn concurrent_conservation() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 250;
        let q: Arc<JobQueue<usize>> = Arc::new(JobQueue::new(100_000));
        let seen = Arc::new(Mutex::new(vec![0u32; PRODUCERS * PER_PRODUCER]));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = q.clone();
                let seen = seen.clone();
                std::thread::spawn(move || {
                    while let Some(item) = q.pop() {
                        seen.lock().unwrap()[item] += 1;
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        for h in consumers {
            h.join().unwrap();
        }
        assert_eq!(len(&q), 0);
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    /// The shared session runs every packed group and is never closed,
    /// so its engines must go with their evicted plans: 40 plans packed
    /// in pairs leave at most the plan cache's capacity of engines.
    #[test]
    fn packed_engines_go_with_their_evicted_plans() {
        use super::{Request, Runtime, RuntimeConfig};
        use crate::cache::DEFAULT_PLAN_CACHE_CAPACITY;
        use hecate_compiler::{CompileOptions, Scheme};
        use hecate_ir::FunctionBuilder;
        use std::collections::HashMap;

        let rt = Runtime::new(RuntimeConfig {
            workers: 1,
            max_batch: 2,
            batch_window: Duration::from_millis(200),
            ..RuntimeConfig::default()
        });
        let mut b = FunctionBuilder::new("sq", 8);
        let x = b.input_cipher("x");
        let sq = b.square(x);
        b.output(sq);
        let func = b.finish();
        let sessions = [rt.open_session(), rt.open_session()];
        for waterline in 20..60 {
            let mut options = CompileOptions::with_waterline(f64::from(waterline));
            options.degree = Some(512);
            let pair = sessions.map(|session| Request {
                session,
                func: func.clone(),
                scheme: Scheme::Pars,
                options: options.clone(),
                inputs: HashMap::from([("x".to_string(), vec![0.5; 8])]),
                deadline: None,
                max_retries: 0,
            });
            for resp in rt.run_batch(pair.to_vec()) {
                let resp = resp.unwrap_or_else(|e| panic!("waterline {waterline}: {e}"));
                assert_eq!(resp.batch_occupancy, 2, "waterline {waterline}");
            }
        }
        assert_eq!(
            rt.stats().cache_evictions,
            40 - DEFAULT_PLAN_CACHE_CAPACITY as u64
        );
        let shared = rt.inner.sessions.shared().engine_count();
        assert!(
            shared <= DEFAULT_PLAN_CACHE_CAPACITY,
            "{shared} shared engines outlive a cache of {DEFAULT_PLAN_CACHE_CAPACITY} plans"
        );
        rt.shutdown();
    }
}
