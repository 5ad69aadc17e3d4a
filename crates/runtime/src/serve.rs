//! The one serving path: every dequeued request is served as a *group*
//! of 1..=[`crate::RuntimeConfig::max_batch`] same-plan requests,
//! resolved, run and replied to here.
//!
//! A worker that dequeues a request keeps taking *compatible* requests —
//! same plan key, i.e. identical function, scheme, and compile options —
//! out of the queue (for up to [`crate::RuntimeConfig::batch_window`]).
//! Members are collected with the queue's `take_matching`, which removes
//! only same-key jobs: an incompatible request keeps its place in the
//! queue for the next free worker and never waits for the coalescer. The
//! wait is bounded by the queue's condvar, so a member arriving midway
//! through the window wakes the coalescer at once and small groups close
//! as soon as their members exist instead of being quantized by a
//! polling interval. At `max_batch` 1 no member joins.
//!
//! One `run` serves a group, whatever its size: plan resolution
//! ([`crate::PlanCache`]), engine acquisition ([`Session::engine`]), a
//! cancel token from the earliest member deadline, and the backend's one
//! op driver ([`hecate_backend::exec::execute`], on the serving
//! thread). A group of one runs on its tenant's session at
//! occupancy 1; a larger group packs each member's inputs into a
//! disjoint slot block of one ciphertext on the shared session, and the
//! per-tenant runs it returns become the per-member responses. One
//! `reply` records a member's stats and tail retention and sends its
//! response.
//!
//! # Failure domains
//!
//! One bad request cannot take the service down, and batching never
//! makes a request less reliable than serving it alone:
//!
//! - **Panic isolation** — a group of one runs under `catch_unwind`. A
//!   panic becomes a typed [`RuntimeError::Panicked`] response (the
//!   client always gets exactly one terminal answer), then resumes
//!   unwinding once every member of the dequeue has been replied to, so
//!   the worker recycles through its supervisor loop, which re-enters the
//!   serving loop and counts a respawn. Shared state (plan cache, session
//!   maps, stats) recovers from lock poisoning, so the surviving workers
//!   are unaffected.
//! - **Deadlines** — a [`crate::Request::deadline`] becomes a
//!   [`CancelToken`] the op driver polls between ops; expiry anywhere
//!   (queued or executing) yields [`RuntimeError::TimedOut`]. Members
//!   whose deadline already expired are served alone instead of holding
//!   a group.
//! - **Final failures** — engines are immutable and deterministic, and a
//!   plan over the noise budget is refused when its engine is built, so a
//!   group of one's failure would repeat bit for bit: it is the
//!   request's answer, never re-run.
//! - **Admission control** — the queue is bounded
//!   ([`crate::RuntimeConfig::queue_capacity`]), and with
//!   [`crate::RuntimeConfig::admission_budget_us`] set, requests whose
//!   estimated cost scaled by the current queue depth exceeds the budget
//!   are shed *before* they consume queue space.
//! - **Chaos** — [`crate::ChaosOptions`] turns all of the above against
//!   itself: injected faults, latency, and panics on every Nth request,
//!   used by the `chaos_soak` test and `hecatec --serve --chaos`. Chaos is
//!   decided once per collected member; members drawing an injection are
//!   served alone so the injection hits exactly one request, on a
//!   one-off engine that is never cached.
//! - **Slot batching** — an infeasible occupancy (the plan's slot
//!   footprint does not fit the block) halves the group's occupancy; the
//!   members it leaves out are served alone. Any failure of a group of
//!   two or more — a guard trip, a cancellation, even a panic — serves
//!   every member again as a group of one (occupancy changes the noise
//!   prediction, so a solo run can pass where the packed one was
//!   refused). One poisoned member cannot fail its batch-mates.
//!
//! # Key honesty
//!
//! A shared ciphertext is necessarily encrypted under one key, so every
//! group of two or more executes under the runtime's shared session (id
//! 0, never handed out, seeded from the base seed like any other) rather
//! than any single tenant's. This is not a weakening of the trust model:
//! the runtime's [`SessionManager`] already holds every session's key
//! material server-side (see its module docs — isolation is against
//! mix-ups, not adversaries), and batching is opt-in per deployment.
//!
//! [`SessionManager`]: crate::session::SessionManager

use crate::chaos::ChaosInjection;
use crate::pool::{Inner, Job, Response};
use crate::session::Session;
use crate::RuntimeError;
use hecate_backend::exec::{execute, CancelToken, ExecError};
use hecate_telemetry::{recorder, trace};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide batch-id mint (ids start at 1; `0` means "no batch" in
/// [`trace::push_context`]). A `batch_id` attr links the shared
/// `batch-execute` span with each member's `batch-member` mark, so a
/// retained trace for one request pulls in the batch work it shared.
static NEXT_BATCH_ID: AtomicU64 = AtomicU64::new(1);

/// Renders a caught panic payload (the `&str`/`String` cases cover
/// `panic!` with a message; anything else is typed opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.map(str::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Whether `job`'s deadline has passed.
fn expired(job: &Job) -> bool {
    job.req
        .deadline
        .is_some_and(|d| job.enqueued.elapsed() >= d)
}

/// A collected job with the two decisions made once per job: its session
/// (`None` when it is not open) and its chaos injection.
type Member = (Job, Option<Arc<Session>>, Option<ChaosInjection>);

/// The dequeue path: collects same-plan requests with `first`, runs the
/// clean ones as one group, and serves everything else — and whatever
/// that group leaves out or fails — as groups of one.
pub(crate) fn serve(inner: &Inner, first: Job) {
    let key = first.key;
    let max = inner.config.max_batch.max(1);
    let window_end = Instant::now() + inner.config.batch_window;
    let mut jobs = vec![first];
    // Already-queued members are taken at once, even with a zero window;
    // `None` means the window expired (or the queue closed).
    while jobs.len() < max {
        let Some(job) = inner.queue.take_matching(window_end, |job| job.key == key) else {
            break;
        };
        inner.dequeued(&job);
        jobs.push(job);
    }

    // Injected, already-late and unknown-session members are served
    // alone: the injection hits exactly one request, a late member must
    // not hold the group, and a group of one surfaces the typed error.
    let (mut group, mut alone) = (Vec::new(), Vec::new());
    for job in jobs {
        let session = inner.sessions.get(job.req.session).ok();
        let injection = inner.chaos.next(inner.config.chaos.as_ref());
        let clean = injection.is_none() && session.is_some() && !expired(&job);
        (if clean { &mut group } else { &mut alone }).push((job, session, injection));
    }
    if group.len() >= 2 {
        group = serve_group(inner, key, group);
    }
    alone.extend(group);

    // Any panic is deferred until every member has been replied to:
    // unwinding through this frame would drop the others' reply channels
    // unanswered.
    let first_panic = alone
        .into_iter()
        .filter_map(|member| catch_unwind(AssertUnwindSafe(|| serve_one(inner, member))).err())
        .reduce(|first, _| first);
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Runs two or more clean members as one packed execution on the shared
/// session and replies to those it ran. Returns the members to serve as
/// groups of one: those beyond the occupancy that fits, or all of them
/// when the shared run fails in any way, a panic included.
fn serve_group(inner: &Inner, key: u64, mut group: Vec<Member>) -> Vec<Member> {
    let t0 = Instant::now();
    let jobs: Vec<&Job> = group.iter().map(|(job, ..)| job).collect();
    let shared = Some(inner.sessions.shared());
    let (responses, batch_id) =
        match catch_unwind(AssertUnwindSafe(|| run(inner, key, &jobs, shared, None))) {
            Ok(Ok((responses, batch_id))) if !responses.is_empty() => (responses, batch_id),
            _ => return group,
        };
    let occupancy = responses.len();
    inner.stats.record_batch(occupancy);
    let rest = group.split_off(occupancy);
    // Worker busy time is shared: each member is billed its fraction so
    // utilization stays truthful.
    let busy_us = t0.elapsed().as_secs_f64() * 1e6 / occupancy as f64;
    for ((job, ..), response) in group.into_iter().zip(responses) {
        reply(inner, job, Ok(response), busy_us, batch_id, None);
    }
    rest
}

/// Serves one member as a group of one: its `request` span, its one run
/// and panic isolation. A panic is replied to as
/// [`RuntimeError::Panicked`] and then re-raised.
fn serve_one(inner: &Inner, (job, session, injection): Member) {
    // Every event this request produces from here on — including backend
    // exec-op spans deep inside the engine — is stamped with its
    // correlation id via the thread-local context.
    let _ctx = trace::push_context(job.req_id, 0);
    let mut span = trace::span_with("request", || {
        vec![
            ("session", job.req.session.into()),
            ("func", job.req.func.name.as_str().into()),
            ("scheme", job.req.scheme.to_string().into()),
        ]
    });
    if let Some(inj) = &injection {
        span.attr("chaos", inj.kind_str().into());
    }
    let t0 = Instant::now();
    let (session, injection) = (session.as_deref(), injection.as_ref());
    let timed_out = || {
        inner.stats.timeouts.inc();
        RuntimeError::TimedOut {
            elapsed: job.enqueued.elapsed(),
        }
    };
    let outcome = || {
        if expired(&job) {
            return Err(timed_out());
        }
        match run(inner, job.key, &[&job], session, injection) {
            Ok((mut responses, _)) => Ok(responses.pop().expect("one run")),
            Err(RuntimeError::Exec(ExecError::Cancelled { .. })) => Err(timed_out()),
            Err(e) => Err(e),
        }
    };
    let (result, repanic) = match catch_unwind(AssertUnwindSafe(outcome)) {
        Ok(result) => (result, None),
        Err(payload) => {
            inner.stats.panics.inc();
            let message = panic_message(payload.as_ref());
            trace::mark_with("panic-recovered", || {
                vec![
                    ("session", job.req.session.into()),
                    ("message", message.as_str().into()),
                ]
            });
            (Err(RuntimeError::Panicked { message }), Some(payload))
        }
    };
    let busy_us = t0.elapsed().as_secs_f64() * 1e6;
    reply(inner, job, result, busy_us, 0, Some(span));
    if let Some(payload) = repanic {
        // The response is out; now let the panic finish unwinding so the
        // supervisor recycles this worker. Any state the panic touched is
        // suspect — a fresh loop iteration is cheap.
        std::panic::resume_unwind(payload);
    }
}

/// Resolves the plan, acquires the engine and executes `jobs` as one
/// group under `session` (`None`: the tenant's session is not open).
/// Returns one response per member it ran and the run's batch id (`0`
/// for a group of one). A group of one runs at occupancy 1; a larger
/// group at the largest power of two its members and the plan's slot
/// footprint allow — the members beyond it are not run, and none is when
/// no packing of two fits. `injection` applies to a group of one.
fn run(
    inner: &Inner,
    key: u64,
    jobs: &[&Job],
    session: Option<&Session>,
    injection: Option<&ChaosInjection>,
) -> Result<(Vec<Response>, u64), RuntimeError> {
    let req = &jobs[0].req;
    // The hit flag comes from inside the cache's own lock — a separate
    // pre-probe would race with concurrent publication and could
    // mislabel a single-flight waiter.
    let (artifact, cache_hit) =
        inner
            .cache
            .get_or_compile_keyed(key, &req.func, req.scheme, &req.options)?;
    if !cache_hit {
        // Publishing may have evicted a plan; the shared session, never
        // closed, drops the evicted plans' packed engines with them.
        let shared = inner.sessions.shared();
        shared.retain_plans(|plan| inner.cache.contains(plan));
    }
    let session = session.ok_or(RuntimeError::UnknownSession(req.session))?;
    if let Some(ChaosInjection::Panic) = injection {
        panic!("chaos: injected worker panic");
    }
    if let Some(ChaosInjection::Latency(d)) = injection {
        std::thread::sleep(*d);
    }
    let mut occupancy = 1 << jobs.len().ilog2();
    let engine = match injection {
        // A one-off sabotaged engine from the session's own constructor,
        // never cached: the fault cannot leak into other requests, and
        // the session seed keeps its keys identical to the real ones.
        Some(ChaosInjection::Fault(fault)) => {
            let mut opts = inner.config.backend.clone();
            opts.fault = Some(fault.clone());
            let engine = session.build_engine(&artifact, 1, &opts);
            Arc::new(engine.map_err(RuntimeError::Exec)?)
        }
        // Occupancy 1 always fits; a group halves until its packing does.
        _ => loop {
            match session.engine(&artifact, occupancy, &inner.config.backend)? {
                Some(engine) => break engine,
                None if occupancy > 2 => occupancy /= 2,
                None => return Ok((Vec::new(), 0)),
            }
        },
    };
    let jobs = &jobs[..occupancy];
    // A group honors its most urgent member's deadline; members a
    // cancellation fails re-run alone, where each deadline is enforced
    // individually.
    let cancel = jobs
        .iter()
        .filter_map(|j| j.req.deadline.map(|d| j.enqueued + d))
        .min()
        .map(CancelToken::with_deadline);
    let inputs: Vec<&HashMap<String, Vec<f64>>> = jobs.iter().map(|j| &j.req.inputs).collect();
    let execute_group = || execute(&engine, &inputs, None, cancel.as_ref());
    let respond = |runs: Vec<_>| {
        let responses = runs.into_iter().zip(jobs).map(|(run, job)| Response {
            run,
            cache_hit,
            plan_key: key,
            latency_us: 0.0,
            batch_occupancy: occupancy,
            req_id: job.req_id,
        });
        responses.collect()
    };
    if occupancy == 1 {
        return Ok((respond(execute_group().map_err(RuntimeError::Exec)?), 0));
    }

    // The shared execution belongs to every member at once, so its span
    // carries a batch id (not any single req_id); each member announces
    // its membership with a mark, and retention by req_id follows the
    // batch_id link to pull the shared span into the member's trace.
    let batch_id = NEXT_BATCH_ID.fetch_add(1, Ordering::Relaxed);
    let _ctx = trace::push_context(0, batch_id);
    for job in jobs {
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
    let result = catch_unwind(AssertUnwindSafe(execute_group));
    let cause = match &result {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(_) => Some("panic".to_string()),
    };
    span.attr("ok", cause.is_none().into());
    if let Ok(Ok(runs)) = &result {
        span.attr("total_us", runs[0].total_us.into());
    }
    if let Some(cause) = cause {
        // No client sees this failure (every member re-runs alone), so it
        // is a degradation, not a response.
        trace::mark_with("batch-degraded", || {
            vec![
                ("plan_key", key.into()),
                ("occupancy", (occupancy as u64).into()),
                ("cause", cause.into()),
            ]
        });
    }
    // Closed before any member's trace can be retained: a retained member
    // trace must include the batch End event.
    drop(span);
    let runs = result.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    Ok((respond(runs.map_err(RuntimeError::Exec)?), batch_id))
}

/// Replies to `job`: its precision and completion stats, its request
/// span's outcome, tail retention, the panic black box, and the send.
/// `batch_id` links a group member's retained trace to its shared run.
fn reply(
    inner: &Inner,
    job: Job,
    result: Result<Response, RuntimeError>,
    busy_us: f64,
    batch_id: u64,
    span: Option<trace::Span>,
) {
    if let Ok(resp) = &result {
        let margin = resp.run.min_margin_bits;
        inner.stats.record_precision(job.req.session, margin);
    }
    let latency_us = job.enqueued.elapsed().as_secs_f64() * 1e6;
    inner.stats.record_done(result.is_ok(), latency_us, busy_us);
    // Tail-based retention: the request span closes *first* so the
    // retained tree includes its End event.
    if let Some(mut span) = span {
        span.attr("ok", result.is_ok().into());
        span.attr("latency_us", latency_us.into());
    }
    let reason = match &result {
        Err(RuntimeError::Panicked { .. }) => Some("panicked"),
        Err(RuntimeError::TimedOut { .. }) => Some("timed-out"),
        Err(RuntimeError::Exec(ExecError::Guard { .. } | ExecError::BudgetExhausted { .. })) => {
            Some("guard-failed")
        }
        Err(_) => Some("failed"),
        Ok(_) => inner
            .config
            .slow_threshold
            .filter(|t| latency_us >= t.as_secs_f64() * 1e6)
            .map(|_| "slow"),
    };
    if let Some(reason) = reason {
        recorder::retain_with(job.req_id, batch_id, reason);
    }
    if let (Err(RuntimeError::Panicked { message }), Some(diag)) = (&result, &inner.config.diag) {
        // The black box is written at the catch site, before the panic
        // resumes unwinding: the evidence must hit disk even if recycling
        // the worker goes badly.
        crate::diag::write_black_box(inner, &diag.dir, job.req_id, message);
    }
    // A dropped receiver means the client gave up; nothing to do.
    let _ = job
        .reply
        .send(result.map(|resp| Response { latency_us, ..resp }));
}
