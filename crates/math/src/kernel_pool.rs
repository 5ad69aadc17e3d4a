//! A persistent pool of kernel worker threads for per-limb striping.
//!
//! [`crate::par::for_each_limb`] used to spawn fresh scoped threads on
//! every call. That made each NTT or key-switch pay thread creation and
//! teardown, and — worse — every spawn landed on a cold thread whose
//! `thread_local!` scratch pool ([`crate::scratch`]) was empty, so the
//! allocator sat on the hot path of every parallel kernel invocation.
//! This module replaces the per-call spawns with a small set of
//! long-lived kernel workers that park on a condvar between stripes:
//! their scratch buffers stay warm across calls, and dispatching a
//! stripe costs one mutex hand-off instead of a thread spawn.
//!
//! # Claiming, not queueing
//!
//! A caller *claims* idle workers for the stripes it wants to offload;
//! stripes that find no idle worker run inline on the caller's thread.
//! Claiming never blocks and never queues, which gives two properties
//! the serving runtime depends on:
//!
//! - **No oversubscription.** The pool holds at most
//!   [`max_threads`] workers process-wide, no matter how many request
//!   workers ask for per-limb parallelism at once. When every kernel
//!   worker is busy, additional requests simply run their limbs inline
//!   — degrading to exactly the serial behavior — instead of spawning
//!   `8×N` competing threads.
//! - **No deadlock.** A kernel worker never calls back into the pool
//!   (the per-limb closures are leaf kernels), and callers fall back to
//!   inline execution rather than waiting for a free worker.
//!
//! The ceiling is set by [`set_max_threads`] — the serving runtime's
//! core-budget policy points it at `budget − request workers` — and
//! defaults to `available_parallelism() − 1` (the caller's thread works
//! stripe 0 itself).
//!
//! # Bit-identity
//!
//! Work assignment only decides *where* a stripe executes, never *what*
//! it computes: each stripe covers a fixed contiguous index range and
//! the per-item closure is a pure function of the item and its index.
//! Results are therefore bit-identical whether a stripe runs on a pool
//! worker or inline, at every ceiling and every job count — the
//! invariant the `perf_smoke` f64::to_bits gate checks end to end.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard cap on pool workers, far above any sane core budget; the
/// effective ceiling is the minimum of this and [`set_max_threads`].
const HARD_CAP: usize = 64;

/// Runtime-adjustable ceiling on claimable workers ([`set_max_threads`]).
/// `usize::MAX` means "not configured": fall back to the default of
/// `available_parallelism() − 1`.
static CEILING: AtomicUsize = AtomicUsize::new(usize::MAX);

static POOL: OnceLock<KernelPool> = OnceLock::new();

/// Caps how many kernel workers may run concurrently, process-wide.
/// The serving runtime's core-budget policy calls this with the cores
/// left over after request-level workers are provisioned; `0` forces
/// every kernel inline (serial per-limb execution).
///
/// Returns the previous setting (`None` when the ceiling was still
/// unconfigured) so callers that scope a budget to their own lifetime —
/// the serving runtime restores it on shutdown — can hand it back to
/// [`restore_max_threads`] instead of leaking their cap to unrelated
/// later users of the pool.
pub fn set_max_threads(n: usize) -> Option<usize> {
    let prev = CEILING.swap(n.min(HARD_CAP), Ordering::Relaxed);
    (prev != usize::MAX).then_some(prev)
}

/// Restores a ceiling previously returned by [`set_max_threads`];
/// `None` reverts to the unconfigured default of
/// `available_parallelism() − 1`.
pub fn restore_max_threads(prev: Option<usize>) {
    CEILING.store(prev.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// The current ceiling on concurrently claimable kernel workers.
pub fn max_threads() -> usize {
    let ceiling = CEILING.load(Ordering::Relaxed);
    if ceiling == usize::MAX {
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(0)
            .min(HARD_CAP)
    } else {
        ceiling
    }
}

/// Stripes executed on claimed pool workers since process start.
static POOL_STRIPES: AtomicU64 = AtomicU64::new(0);
/// Stripes that found no idle worker and ran inline on the caller.
static INLINE_STRIPES: AtomicU64 = AtomicU64::new(0);

/// Cumulative stripe counts by where they executed. The inline share
/// (`inline / (pool + inline)`) is the pool-saturation signal: near
/// zero means callers are getting the parallelism they ask for, near
/// one means the ceiling (or claim contention) is forcing serial
/// fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeCounts {
    /// Stripes offloaded to claimed pool workers.
    pub pool: u64,
    /// Stripes run inline on the calling thread (including stripe 0,
    /// which the caller always works itself).
    pub inline: u64,
}

/// The cumulative [`StripeCounts`] since process start.
pub fn stripe_counts() -> StripeCounts {
    StripeCounts {
        pool: POOL_STRIPES.load(Ordering::Relaxed),
        inline: INLINE_STRIPES.load(Ordering::Relaxed),
    }
}

/// Kernel worker threads actually spawned so far (they are created
/// lazily, on first claim, and then live for the process lifetime).
pub fn spawned_threads() -> usize {
    POOL.get().map_or(0, |p| {
        p.slots
            .iter()
            .filter(|s| s.spawned.load(Ordering::Relaxed))
            .count()
    })
}

/// One stripe hand-off to a claimed worker. The references are
/// lifetime-erased to `'static`; see the safety contract on
/// [`run_striped`] for why they cannot dangle.
struct Task {
    run: &'static (dyn Fn(usize) + Sync),
    stripe: usize,
    latch: &'static Latch,
}

/// Counts outstanding stripes; the dispatching caller blocks in
/// [`Latch::wait`] until every claimed worker has called
/// [`Latch::complete`]. A worker whose stripe panicked hands the caught
/// payload to `complete`, and `wait` returns the first such payload so
/// the dispatching caller can re-raise it on its own thread.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.panic.is_none() {
            state.panic = panic;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.remaining > 0 {
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.panic.take()
    }
}

/// One pool worker: a claim flag, a single-task mailbox, and (once
/// claimed for the first time) a parked thread watching the mailbox.
struct WorkerSlot {
    /// Exclusive ownership flag; claimed with a CAS, released by the
    /// worker after it finishes a stripe. A slot whose thread failed to
    /// spawn stays claimed forever (see [`WorkerSlot::ensure_spawned`]).
    claimed: AtomicBool,
    /// Whether this slot's thread has been started.
    spawned: AtomicBool,
    mailbox: Mutex<Option<Task>>,
    ready: Condvar,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            claimed: AtomicBool::new(false),
            spawned: AtomicBool::new(false),
            mailbox: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn try_claim(&self) -> bool {
        self.claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Starts this slot's thread on first claim. On spawn failure the
    /// slot is abandoned: `claimed` stays `true` forever, so no caller
    /// can ever enqueue into a mailbox nobody is watching, and the
    /// caller that hit the failure runs its stripe inline.
    fn ensure_spawned(self: &Arc<WorkerSlot>, index: usize) -> bool {
        if self.spawned.load(Ordering::Acquire) {
            return true;
        }
        let slot = self.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("hecate-kernel-{index}"))
            .spawn(move || slot.work_loop())
            .is_ok();
        if spawned {
            self.spawned.store(true, Ordering::Release);
        }
        spawned
    }

    fn submit(&self, task: Task) {
        let mut mailbox = self.mailbox.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(mailbox.is_none(), "claimed slot mailbox must be empty");
        *mailbox = Some(task);
        drop(mailbox);
        self.ready.notify_one();
    }

    fn work_loop(&self) {
        loop {
            let task = {
                let mut mailbox = self.mailbox.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(task) = mailbox.take() {
                        break task;
                    }
                    mailbox = self.ready.wait(mailbox).unwrap_or_else(|e| e.into_inner());
                }
            };
            // A panicking stripe must not kill this thread: the caller
            // is blocked in `Latch::wait` and would hang forever, and
            // the slot would stay claimed. Catch the payload and ship
            // it through the latch for the caller to re-raise.
            let panic = catch_unwind(AssertUnwindSafe(|| (task.run)(task.stripe))).err();
            // Ordering matters: `complete` is the last touch of the
            // caller's stack frame (the closure and latch live there),
            // and only after it may the slot be reclaimed for a task
            // with a fresh frame.
            task.latch.complete(panic);
            self.claimed.store(false, Ordering::Release);
        }
    }
}

struct KernelPool {
    slots: Vec<Arc<WorkerSlot>>,
}

fn pool() -> &'static KernelPool {
    POOL.get_or_init(|| KernelPool {
        slots: (0..HARD_CAP).map(|_| Arc::new(WorkerSlot::new())).collect(),
    })
}

/// Runs `run(stripe)` for every stripe in `0..nstripes`, offloading as
/// many stripes as idle pool workers allow (bounded by the ceiling) and
/// executing the rest — always including stripe 0 — on the caller's
/// thread. Returns only after every stripe has completed, with this
/// call's pool/inline split (the process-wide [`stripe_counts`] are the
/// sum of these).
///
/// A panic in any stripe — inline or on a pool worker — propagates to
/// the caller *after* all other stripes have finished, so the pool is
/// left fully reusable (no claimed slots, no dead threads) and the
/// serving layer's per-request `catch_unwind` sees kernel panics just
/// as it did under the old scoped-thread implementation.
///
/// # Safety contract (met internally)
///
/// The closure and latch references handed to workers are
/// lifetime-erased to `'static`, but cannot dangle: every claimed
/// worker's final access to them is its `latch.complete()` call, and
/// this function never returns — not even by unwinding — before a
/// `latch.wait()` has observed every completion. Caller-side stripes
/// run under `catch_unwind`, and the `WaitOnDrop` guard covers any
/// residual unwind between submission and the normal wait, so the
/// borrow strictly outlives all worker access on every path.
pub(crate) fn run_striped(nstripes: usize, run: &(dyn Fn(usize) + Sync)) -> StripeCounts {
    debug_assert!(nstripes >= 1);
    let ceiling = max_threads();
    let want = (nstripes - 1).min(ceiling);
    let mut workers: Vec<&Arc<WorkerSlot>> = Vec::with_capacity(want);
    if want > 0 {
        for (index, slot) in pool().slots.iter().take(ceiling).enumerate() {
            if workers.len() == want {
                break;
            }
            // A claimed slot that fails to spawn is abandoned and its
            // stripe stays inline.
            if slot.try_claim() && slot.ensure_spawned(index) {
                workers.push(slot);
            }
        }
    }
    let split = StripeCounts {
        pool: workers.len() as u64,
        inline: (nstripes - workers.len()) as u64,
    };
    POOL_STRIPES.fetch_add(split.pool, Ordering::Relaxed);
    INLINE_STRIPES.fetch_add(split.inline, Ordering::Relaxed);
    let latch = Latch::new(workers.len());
    // SAFETY: see the function docs — a `latch.wait()` (normal flow or
    // the `WaitOnDrop` guard) outlives every worker's access to these
    // borrows on every exit path, including unwinds.
    let run_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
    let latch_static: &'static Latch = unsafe { std::mem::transmute(&latch) };

    /// Blocks until all submitted stripes complete if the enclosing
    /// frame unwinds before the normal `latch.wait()` — unwinding past
    /// the latch would free stack memory claimed workers still touch.
    /// `unsubmitted` counts claimed workers whose task was never
    /// enqueued (an unwind mid-submission); their latch slots are
    /// completed here so the wait cannot deadlock on completions that
    /// will never arrive. Any worker panic payload is discarded: the
    /// caller is already unwinding with its own panic.
    struct WaitOnDrop<'a> {
        latch: &'a Latch,
        unsubmitted: usize,
    }
    impl Drop for WaitOnDrop<'_> {
        fn drop(&mut self) {
            for _ in 0..self.unsubmitted {
                self.latch.complete(None);
            }
            drop(self.latch.wait());
        }
    }
    let mut wait_guard = WaitOnDrop {
        latch: &latch,
        unsubmitted: workers.len(),
    };

    for (k, slot) in workers.iter().enumerate() {
        slot.submit(Task {
            run: run_static,
            stripe: 1 + k,
            latch: latch_static,
        });
        wait_guard.unsubmitted -= 1;
    }
    // Caller-side stripes run under catch_unwind so a panicking stripe
    // cannot unwind past the wait below while workers are in flight.
    let caller_panic = catch_unwind(AssertUnwindSafe(|| {
        run(0);
        for stripe in (1 + workers.len())..nstripes {
            run(stripe);
        }
    }))
    .err();
    std::mem::forget(wait_guard); // the normal wait takes over from here
    let worker_panic = latch.wait();
    if let Some(payload) = caller_panic.or(worker_panic) {
        resume_unwind(payload);
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that mutate the process-global ceiling.
    static CEILING_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn all_stripes_run_exactly_once() {
        for nstripes in [1usize, 2, 3, 7, 16] {
            let hits: Vec<AtomicU64> = (0..nstripes).map(|_| AtomicU64::new(0)).collect();
            run_striped(nstripes, &|s| {
                hits[s].fetch_add(1, Ordering::SeqCst);
            });
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "stripe {s} of {nstripes}");
            }
        }
    }

    #[test]
    fn zero_ceiling_runs_everything_inline() {
        let _guard = CEILING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = CEILING.load(Ordering::Relaxed);
        set_max_threads(0);
        let caller = std::thread::current().id();
        let hits = AtomicU64::new(0);
        run_striped(4, &|_| {
            assert_eq!(std::thread::current().id(), caller, "must run inline");
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        CEILING.store(before, Ordering::Relaxed);
    }

    /// Many threads striping concurrently must each see all their own
    /// stripes exactly once — claimed workers never mix up callers.
    #[test]
    fn concurrent_callers_do_not_interfere() {
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for round in 0..50u64 {
                        let nstripes = 1 + ((t + round) % 6) as usize;
                        let hits: Vec<AtomicU64> =
                            (0..nstripes).map(|_| AtomicU64::new(0)).collect();
                        run_striped(nstripes, &|stripe| {
                            hits[stripe].fetch_add(1, Ordering::SeqCst);
                        });
                        for h in &hits {
                            assert_eq!(h.load(Ordering::SeqCst), 1);
                        }
                    }
                });
            }
        });
    }

    /// A panicking stripe — whether it lands on a pool worker or runs
    /// inline on the caller — must propagate to the dispatching caller
    /// (not hang it, not kill a pool thread silently), and the pool
    /// must stay fully usable afterwards: no leaked claims, every
    /// stripe of later calls still runs exactly once.
    #[test]
    fn stripe_panic_propagates_and_pool_survives() {
        let _guard = CEILING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = CEILING.load(Ordering::Relaxed);
        set_max_threads(2);
        for bad_stripe in [0usize, 1, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_striped(3, &|s| {
                    if s == bad_stripe {
                        panic!("stripe {s} panicked");
                    }
                });
            }));
            assert!(
                result.is_err(),
                "panic in stripe {bad_stripe} must propagate"
            );
        }
        for _ in 0..10 {
            let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            run_striped(4, &|s| {
                hits[s].fetch_add(1, Ordering::SeqCst);
            });
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "stripe {s} after panic");
            }
        }
        CEILING.store(before, Ordering::Relaxed);
    }

    /// Every dispatched stripe lands in exactly one side of its call's
    /// split, and a zero ceiling counts all-inline. Other tests stripe
    /// concurrently, so the process-wide counters only bound the sum.
    #[test]
    fn stripe_counts_account_for_every_stripe() {
        let _guard = CEILING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = CEILING.load(Ordering::Relaxed);
        set_max_threads(0);
        let t0 = stripe_counts();
        let serial = run_striped(5, &|_| {});
        assert_eq!(
            serial,
            StripeCounts { pool: 0, inline: 5 },
            "zero ceiling runs all inline"
        );
        set_max_threads(2);
        let split = run_striped(3, &|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(
            split.pool + split.inline,
            3,
            "every stripe is counted exactly once"
        );
        assert!(split.pool <= 2, "the ceiling bounds the pooled stripes");
        let t1 = stripe_counts();
        assert!(t1.pool >= t0.pool + split.pool);
        assert!(t1.inline >= t0.inline + serial.inline + split.inline);
        CEILING.store(before, Ordering::Relaxed);
    }

    /// The pool reuses persistent threads: after a warmup call, further
    /// calls must not grow the spawned-thread count past the ceiling.
    #[test]
    fn pool_threads_persist_across_calls() {
        let _guard = CEILING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = CEILING.load(Ordering::Relaxed);
        set_max_threads(2);
        for _ in 0..20 {
            run_striped(3, &|_| {});
        }
        assert!(
            spawned_threads() <= HARD_CAP,
            "spawn count bounded by the hard cap"
        );
        CEILING.store(before, Ordering::Relaxed);
    }
}
