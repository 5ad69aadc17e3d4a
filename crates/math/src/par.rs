//! Scoped threads inside one request: striping over independent limbs.
//!
//! RNS keeps every prime's residue polynomial independent, so the hot
//! per-limb loops (NTTs, key-switch inner products) parallelize without
//! any synchronization: each worker owns a disjoint contiguous chunk of
//! the limb array. Because the work per limb is a deterministic function
//! of its inputs and no worker reads another's output, the result is
//! bit-identical at every job count — parallelism here only changes
//! *when* a limb is computed, never *what* is computed.
//!
//! [`for_each_limb`] is the only way code below a request starts
//! threads. The caller's own thread always works the first stripe, the
//! helpers live for one call (`std::thread::scope`), and a helper's panic
//! reaches the caller with its original payload.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// A stripe's take-once handoff cell: absolute base index plus the
/// disjoint chunk it owns.
type StripeCell<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// Runs `f(k)` for every `k` in `0..jobs`: job 0 on the calling thread,
/// the rest on `jobs − 1` scoped helper threads, and returns once all of
/// them have finished. `jobs <= 1` calls `f(0)` inline with no spawn.
///
/// Each job catches its own panic, so the scope never substitutes its
/// generic "a scoped thread panicked" message; once every job has
/// finished, the first payload caught is re-raised on the caller with
/// `resume_unwind`, exactly as if the panic had happened inline.
fn run_scoped<F>(jobs: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if jobs <= 1 {
        f(0);
        return;
    }
    let first: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let run = |k: usize| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(k))) {
            first
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        for k in 1..jobs {
            scope.spawn(move || run(k));
        }
        run(0);
    });
    if let Some(payload) = first.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

/// Applies `f(index, item)` to every item, striped in contiguous chunks
/// over at most `jobs` threads. `jobs <= 1` (or a
/// single item) runs inline with no spawn. The closure receives the
/// item's absolute index so per-limb tables can be looked up.
pub fn for_each_limb<T, F>(items: &mut [T], jobs: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    if jobs <= 1 || len <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = len.div_ceil(jobs.min(len));
    // Each stripe's disjoint chunk is handed over through a take-once
    // mutex: the job closure is shared (`Fn`), so exclusive access to
    // the chunks needs interior mutability. One uncontended lock per
    // stripe — noise next to an NTT.
    let stripes: Vec<StripeCell<'_, T>> = items
        .chunks_mut(chunk)
        .enumerate()
        .map(|(k, c)| Mutex::new(Some((k * chunk, c))))
        .collect();
    run_scoped(stripes.len(), |s| {
        let (base, chunk) = stripes[s]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each stripe is dispatched exactly once");
        for (k, item) in chunk.iter_mut().enumerate() {
            f(base + k, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_job_counts_produce_identical_results() {
        let reference: Vec<u64> = (0..13u64).map(|i| i * i + 7).collect();
        for jobs in [1usize, 2, 3, 4, 8, 32] {
            let mut items: Vec<u64> = (0..13).collect();
            for_each_limb(&mut items, jobs, |i, v| {
                *v = *v * (i as u64) + 7;
            });
            let expect: Vec<u64> = (0..13u64).map(|i| i * i + 7).collect();
            assert_eq!(items, expect, "jobs = {jobs}");
            assert_eq!(expect, reference);
        }
    }

    #[test]
    fn empty_and_single_item_are_fine() {
        let mut empty: Vec<u64> = vec![];
        for_each_limb(&mut empty, 4, |_, _| unreachable!());
        let mut one = vec![41u64];
        for_each_limb(&mut one, 4, |i, v| *v += 1 + i as u64);
        assert_eq!(one, vec![42]);
    }

    /// Many threads striping their own arrays concurrently must all get
    /// exact results: helpers never cross wires between callers.
    #[test]
    fn concurrent_striping_is_exact() {
        std::thread::scope(|s| {
            for t in 0..6u64 {
                s.spawn(move || {
                    for round in 0..40u64 {
                        let n = 5 + ((t + round) % 11) as usize;
                        let mut items: Vec<u64> = (0..n as u64).map(|i| i + t).collect();
                        for_each_limb(&mut items, 4, |i, v| {
                            *v = v.wrapping_mul(i as u64 + 3) ^ round;
                        });
                        let expect: Vec<u64> = (0..n as u64)
                            .map(|i| (i + t).wrapping_mul(i + 3) ^ round)
                            .collect();
                        assert_eq!(items, expect);
                    }
                });
            }
        });
    }

    /// Many threads calling `run_scoped` concurrently must each see all
    /// their own jobs exactly once — helpers never mix up callers.
    #[test]
    fn concurrent_callers_do_not_interfere() {
        std::thread::scope(|s| {
            for t in 0..8u64 {
                s.spawn(move || {
                    for round in 0..50u64 {
                        let jobs = 1 + ((t + round) % 6) as usize;
                        let hits: Vec<Mutex<u32>> = (0..jobs).map(|_| Mutex::new(0)).collect();
                        run_scoped(jobs, |k| *hits[k].lock().unwrap() += 1);
                        for h in &hits {
                            assert_eq!(*h.lock().unwrap(), 1);
                        }
                    }
                });
            }
        });
    }

    /// A panic on a helper reaches the caller with its own message (not
    /// the scope's generic one), and striping afterwards is still exact.
    #[test]
    fn helper_panic_reaches_caller_with_its_message() {
        let caught = catch_unwind(|| {
            let mut items: Vec<u64> = (0..8).collect();
            for_each_limb(&mut items, 4, |i, _| {
                if i / 2 == 3 {
                    panic!("stripe 3 boom");
                }
            });
        })
        .expect_err("the helper's panic propagates to the caller");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| caught.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("stripe 3 boom"));
        let mut items: Vec<u64> = (0..8).collect();
        for_each_limb(&mut items, 4, |i, v| *v += i as u64);
        assert_eq!(items, (0..8u64).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_runs_every_job_once() {
        for jobs in [0usize, 1, 2, 5] {
            let hits: Vec<Mutex<u32>> = (0..jobs.max(1)).map(|_| Mutex::new(0)).collect();
            run_scoped(jobs, |k| *hits[k].lock().unwrap() += 1);
            assert!(
                hits.iter().all(|h| *h.lock().unwrap() == 1),
                "jobs = {jobs}"
            );
        }
    }
}
