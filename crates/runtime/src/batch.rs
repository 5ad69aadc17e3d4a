//! Cross-request slot batching: serving many queued requests from one
//! packed ciphertext.
//!
//! Every request a worker dequeues comes through here. With
//! [`crate::RuntimeConfig::max_batch`] > 1 the worker does not execute
//! it immediately: it keeps taking *compatible* requests — same plan
//! key, i.e. identical function, scheme, and compile options — out of
//! the queue (for up to [`crate::RuntimeConfig::batch_window`]) and
//! coalesces them into one slot-batched execution; at `max_batch` 1 no
//! member joins and the request is served solo.
//! Each member's inputs are packed into a disjoint slot block of a shared
//! ciphertext, the circuit runs once through the same op driver solo
//! requests use (`hecate_backend::exec::execute`, on the same
//! `jobs_per_request` DAG workers), and the per-tenant runs it returns
//! become the per-member responses. Members are collected with the
//! queue's `take_matching`, which removes only same-key jobs: an
//! incompatible request keeps its place in the queue for the next free
//! worker and never waits for the coalescer. The wait is bounded by the
//! queue's condvar, so a member arriving midway through the window wakes
//! the coalescer at once and small batches close as soon as their
//! members exist instead of being quantized by a polling interval.
//!
//! # Failure domains
//!
//! Batching never makes a request less reliable than solo serving:
//!
//! - Chaos is decided once per collected member; members drawing an
//!   injection run solo so the injection hits exactly one request.
//! - Members whose deadline already expired fail fast solo with a typed
//!   timeout instead of holding the batch.
//! - An infeasible occupancy (the plan's slot footprint does not fit the
//!   block) shrinks the batch by powers of two, down to solo serving.
//! - Any shared-run failure — a guard trip, a cancellation, even a panic
//!   — degrades every member to an independent solo run with its own
//!   retry budget. One poisoned member cannot fail its batch-mates.
//!
//! # Key honesty
//!
//! A shared ciphertext is necessarily encrypted under one key, so every
//! batched run executes under the runtime's shared session (id 0, never
//! handed out, seeded from the base seed like any other) rather than any
//! single tenant's. This is not a weakening of the trust model: the
//! runtime's [`SessionManager`] already holds every session's key
//! material server-side (see its module docs — isolation is against
//! mix-ups, not adversaries), and batching is opt-in per deployment.
//!
//! [`SessionManager`]: crate::session::SessionManager

use crate::chaos::ChaosInjection;
use crate::pool::{Inner, Job, Response};
use hecate_backend::exec::{execute, CancelToken};
use hecate_telemetry::{recorder, trace};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Process-wide batch-id mint (ids start at 1; `0` means "no batch" in
/// [`trace::push_context`]). A `batch_id` attr links the shared
/// `batch-execute` span with each member's `batch-member` mark, so a
/// retained trace for one request pulls in the batch work it shared.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// Largest power of two ≤ `n` (0 for 0).
fn floor_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Serves each job solo, in order, deferring any panic until every job
/// has been served. [`Inner::serve_with`] re-raises a caught panic after
/// replying (so the supervisor recycles the worker); without the
/// deferral, one panicking member would unwind through this frame and
/// drop its batch-mates' reply channels unanswered.
fn serve_each_solo(inner: &Inner, jobs: Vec<(Job, Option<ChaosInjection>)>) {
    let mut pending_panic = None;
    for (job, injection) in jobs {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| inner.serve_with(job, injection))) {
            pending_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = pending_panic {
        std::panic::resume_unwind(payload);
    }
}

/// The dequeue path: coalesces compatible queued requests with `first`,
/// runs them as one packed execution, demultiplexes the responses, and
/// serves everything else solo. See the module docs for the collection
/// and degradation rules.
pub(crate) fn serve_coalesced(inner: &Inner, first: Job) {
    let key = first.key;
    let max = inner.config.max_batch.max(1);
    let window_end = Instant::now() + inner.config.batch_window;
    let mut members = vec![first];
    // Already-queued members are taken at once, even with a zero window;
    // `None` means the window expired (or the queue closed).
    while members.len() < max {
        let Some(job) = inner.queue.take_matching(window_end, |job| job.key == key) else {
            break;
        };
        inner.dequeued(&job);
        members.push(job);
    }

    // Chaos and expired deadlines are decided per member, now: injected
    // members run solo so the injection hits exactly one request, and
    // already-late members must not hold the batch.
    let mut fallback: Vec<(Job, Option<ChaosInjection>)> = Vec::new();
    let mut clean: Vec<Job> = Vec::new();
    for job in members {
        let injection = inner.chaos.next(inner.config.chaos.as_ref());
        let expired = job
            .req
            .deadline
            .is_some_and(|d| job.enqueued.elapsed() >= d);
        // Unknown (closed) sessions degrade too: the solo path surfaces
        // the typed error the client expects.
        let known = inner.sessions.get(job.req.session).is_ok();
        if injection.is_some() || expired || !known {
            fallback.push((job, injection));
        } else {
            clean.push(job);
        }
    }

    let occupancy = floor_pow2(clean.len().min(max));
    if occupancy >= 2 {
        let batched = run_shared(inner, key, clean, occupancy);
        match batched {
            Ok(leftover) => fallback.extend(leftover.into_iter().map(|j| (j, None))),
            Err(degraded) => fallback.extend(degraded.into_iter().map(|j| (j, None))),
        }
    } else {
        fallback.extend(clean.into_iter().map(|j| (j, None)));
    }
    serve_each_solo(inner, fallback);
}

/// Attempts the shared packed execution for up to `occupancy` of the
/// `clean` members. On success, replies to every batch member and
/// returns the members beyond the occupancy (`Ok`); on any failure —
/// plan resolution, engine build, execution error, or panic — returns
/// every member untouched for solo degradation (`Err`).
fn run_shared(
    inner: &Inner,
    key: u64,
    mut clean: Vec<Job>,
    mut occupancy: usize,
) -> Result<Vec<Job>, Vec<Job>> {
    let (artifact, cache_hit) = {
        let req = &clean[0].req;
        match inner
            .cache
            .get_or_compile_keyed(key, &req.func, req.scheme, &req.options)
        {
            Ok(x) => x,
            // Let each member surface its own typed compile error.
            Err(_) => return Err(clean),
        }
    };
    // Shrink until the plan's slot footprint fits the blocks.
    let shared = inner.sessions.shared();
    let engine = loop {
        if occupancy < 2 {
            return Err(clean);
        }
        match shared.engine(&artifact, occupancy, &inner.config.backend) {
            Ok(Some(engine)) => break engine,
            Ok(None) => occupancy /= 2,
            Err(_) => return Err(clean),
        }
    };

    let extras = clean.split_off(occupancy);
    let batch = clean;
    // The shared execution belongs to every member at once, so its span
    // carries a batch id (not any single req_id); each member announces
    // its membership with a mark, and retention by req_id follows the
    // batch_id link to pull the shared span into the member's trace.
    let batch_id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
    let _ctx = trace::push_context(0, batch_id);
    for job in &batch {
        trace::mark_with("batch-member", || {
            vec![
                ("req_id", job.req_id.into()),
                ("session", job.req.session.into()),
            ]
        });
    }
    let mut span = trace::span_with("batch-execute", || {
        vec![
            ("plan_key", key.into()),
            ("occupancy", (occupancy as u64).into()),
        ]
    });
    // The shared run honors the most urgent member's deadline; members
    // degraded by its cancellation re-run solo where each deadline is
    // enforced individually.
    let cancel = batch
        .iter()
        .filter_map(|j| j.req.deadline.map(|d| j.enqueued + d))
        .min()
        .map(CancelToken::with_deadline);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let inputs: Vec<&HashMap<String, Vec<f64>>> = batch.iter().map(|j| &j.req.inputs).collect();
        execute(
            &engine,
            &inputs,
            inner.config.jobs_per_request,
            None,
            cancel.as_ref(),
        )
    }));
    let runs = match result {
        Ok(Ok(runs)) => runs,
        Ok(Err(e)) => {
            span.attr("ok", false.into());
            trace::mark_with("batch-degraded", || {
                vec![
                    ("plan_key", key.into()),
                    ("occupancy", (occupancy as u64).into()),
                    ("cause", e.to_string().into()),
                ]
            });
            if crate::pool::is_transient(&e) {
                shared.invalidate(key, occupancy);
            }
            let mut all = batch;
            all.extend(extras);
            return Err(all);
        }
        Err(_payload) => {
            // The panic is contained here, not re-raised: no client saw
            // it (every member retries solo), so it is a degradation, not
            // a `Panicked` response.
            span.attr("ok", false.into());
            trace::mark_with("batch-degraded", || {
                vec![
                    ("plan_key", key.into()),
                    ("occupancy", (occupancy as u64).into()),
                    ("cause", "panic".into()),
                ]
            });
            shared.invalidate(key, occupancy);
            let mut all = batch;
            all.extend(extras);
            return Err(all);
        }
    };
    span.attr("ok", true.into());
    span.attr("total_us", runs[0].total_us.into());
    // Close the shared span before any member's trace can be retained:
    // a retained member trace must include the batch End event.
    drop(span);

    inner.stats.record_batch(occupancy);
    let slow_us = inner.config.slow_threshold.map(|t| t.as_secs_f64() * 1e6);
    // Worker busy time is shared: each member is billed its fraction so
    // utilization stays truthful.
    let busy_share_us = t0.elapsed().as_secs_f64() * 1e6 / occupancy as f64;
    for (job, run) in batch.into_iter().zip(runs) {
        inner
            .stats
            .record_precision(job.req.session, run.min_margin_bits);
        let latency_us = job.enqueued.elapsed().as_secs_f64() * 1e6;
        inner.stats.record_done(true, latency_us, busy_share_us);
        if slow_us.is_some_and(|t| latency_us >= t) {
            // Tail retention for a slow batched member: the batch_id link
            // pulls the shared batch-execute span into its trace.
            recorder::retain_with(job.req_id, batch_id, "slow");
        }
        let response = Response {
            run,
            cache_hit,
            plan_key: key,
            latency_us,
            retries: 0,
            batch_occupancy: occupancy,
            req_id: job.req_id,
        };
        // A dropped receiver means the client gave up; nothing to do.
        let _ = job.reply.send(Ok(response));
    }
    Ok(extras)
}
