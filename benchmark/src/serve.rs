//! `serve-mixed` and `serve-packed4`: the same runtime and backend layers
//! used two ways, both as closed loops (a caller blocks on `run_batch`
//! and sends its next request only when the reply is back).
//!
//! - `serve-mixed`: 2 clients against 2 workers, solo execution at degree
//!   512. Four long-lived tenants share a hot set of {SF, HCD, LR E2} ×
//!   {w24, w28}, warmed in set-up; every 10th request of a client is a
//!   brand-new tenant at a drawn waterline, i.e. compile + keygen + LRU
//!   eviction. Reads (hits) and writes (misses) of the plan cache, the
//!   queue, session engines and the reply path all show.
//! - `serve-packed4`: 1 client submitting rounds of four same-plan
//!   requests from four tenants, coalesced into one ciphertext at degree
//!   4096 (degree 2048 only packs 2). The coalescer, the batched driver
//!   and packed rotations show, so a solo-path gain that costs the packed
//!   path (or the reverse) cannot hide.

use crate::check::{Tally, RMS_BOUND};
use crate::common::{
    backend, ms_since, op_kinds, options, request, us_by_kind, Base, Ctx, Deadline, RuntimeObs,
    Sample, Window, WATERLINE,
};
use crate::programs::{Program, Size};
use hecate_compiler::Scheme;
use hecate_math::rng::Xoshiro256;
use hecate_runtime::{
    plan_key, Request, Response, Runtime, RuntimeConfig, RuntimeError, SessionId,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Mixed,
    Packed4,
}

const MIXED_DEGREE: usize = 512;
const MIXED_CLIENTS: u64 = 2;
const MIXED_PROGRAMS: [&str; 3] = ["SF", "HCD", "LR E2"];
const HOT_WATERLINES: [f64; 2] = [WATERLINE, 28.0];
/// Cold requests send HCD only (index into `MIXED_PROGRAMS`). Off the
/// integer waterlines SF and LR E2 break the 2⁻⁸ bound at degree 512 (at
/// seed 1: SF w30.29 rms 7.0e-3, LR E2 w29.70 rms 9.1e-2), and a workload
/// must not contain operations that fail; HCD stays under 2e-5 on the
/// whole 22.00 … 31.99 grid.
const COLD_PROGRAM: usize = 1;
const TENANTS: usize = 4;
/// Every `COLD_EVERY`-th request of a client comes from a new tenant.
const COLD_EVERY: u64 = 10;
/// Cold waterlines are drawn from 22.00 … 31.99 in 0.01 steps, one per
/// 0.1-wide stratum until all strata are used, so every seed sees the
/// same spread of compile cost and chain length.
const COLD_LOW_STEPS: u64 = 2200;
const COLD_STRATA: u64 = 100;
const STRATUM_STEPS: u64 = 10;

const PACKED_DEGREE: usize = 4096;
const PACKED_WINDOW: Duration = Duration::from_millis(5);
const PACKED_WARMUP_ROUNDS: usize = 3;

pub struct Setup {
    pub base: Base,
    mix: Mix,
    rt: Runtime,
    tenants: Vec<SessionId>,
    degree: usize,
    /// Op kinds of each hot plan, by the key replies carry.
    kinds_by_key: HashMap<u64, Vec<usize>>,
    /// `Runtime::stats().compiles` once set-up has warmed every plan.
    pub served_compiles: u64,
}

pub fn setup(ctx: &Ctx, mix: Mix) -> Result<Setup, String> {
    let (names, waterlines, degree, config): (&[&'static str], &[f64], usize, RuntimeConfig) =
        match mix {
            Mix::Mixed => (
                &MIXED_PROGRAMS,
                &HOT_WATERLINES,
                MIXED_DEGREE,
                RuntimeConfig {
                    workers: 2,
                    max_batch: 1,
                    ..RuntimeConfig::default()
                },
            ),
            Mix::Packed4 => (
                &["HCD"],
                &[WATERLINE],
                PACKED_DEGREE,
                RuntimeConfig {
                    workers: 1,
                    max_batch: 4,
                    batch_window: PACKED_WINDOW,
                    ..RuntimeConfig::default()
                },
            ),
        };
    let mut programs: Vec<Program> = names
        .iter()
        .map(|name| ctx.build_app(name, Size::Small, 0))
        .collect();
    // The runtime compiles these itself on first sight; compiling them
    // here as well puts the compiler's work under a span and gives the
    // op kinds behind each reply's `plan_key`.
    let mut plans = Vec::new();
    let mut kinds_by_key = HashMap::new();
    for (i, p) in programs.iter().enumerate() {
        for &w in waterlines {
            let plan = ctx.compile(true, 0, i, p, w, Some(degree))?;
            let key = plan_key(&p.func, Scheme::Hecate, &options(w, Some(degree)));
            kinds_by_key.insert(key, op_kinds(&plan.compiled.func));
            plans.push(plan);
        }
    }
    if mix == Mix::Packed4 {
        // HCD's function does not depend on its data seed, so the four
        // tenants of a round share one plan yet each sends its own image:
        // a reply demuxed from the wrong block fails the check.
        for t in 1..TENANTS {
            programs.push(ctx.build_app("HCD", Size::Small, t as u64));
        }
    }
    let rt = Runtime::new(RuntimeConfig {
        jobs_per_request: 1,
        backend: backend(degree),
        ..config
    });
    let tenants: Vec<SessionId> = (0..TENANTS).map(|_| rt.open_session()).collect();
    let mut setup = Setup {
        base: Base {
            programs,
            own_plans: plans.len(),
            plans,
            probe_plan: 0,
            probe_degree: degree,
        },
        mix,
        rt,
        tenants,
        degree,
        kinds_by_key,
        served_compiles: 0,
    };
    let warmups = match mix {
        // Every (tenant, plan) pair once: 6 compiles, 24 engines.
        Mix::Mixed => 1,
        Mix::Packed4 => PACKED_WARMUP_ROUNDS,
    };
    for _ in 0..warmups {
        let reqs = match mix {
            Mix::Mixed => setup
                .base
                .plans
                .iter()
                .flat_map(|plan| setup.tenants.iter().map(move |&t| (t, plan)))
                .map(|(t, plan)| setup.request(t, plan.program, plan.waterline))
                .collect(),
            Mix::Packed4 => setup.packed_round(),
        };
        for reply in setup.rt.run_batch(reqs) {
            reply.map_err(|e| format!("warm-up request: {e}"))?;
        }
    }
    setup.served_compiles = setup.rt.stats().compiles;
    Ok(setup)
}

impl Setup {
    fn request(&self, session: SessionId, program: usize, waterline: f64) -> Request {
        request(
            session,
            &self.base.programs[program],
            waterline,
            self.degree,
        )
    }

    /// One request per tenant, each with that tenant's own image.
    fn packed_round(&self) -> Vec<Request> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, &session)| self.request(session, t, WATERLINE))
            .collect()
    }

    /// Checks one reply and files it under the unit's `runtime.request`
    /// span, with the backend's share as synthesized children.
    fn account(
        &self,
        ctx: &Ctx,
        unit: &Unit,
        program: &Program,
        reply: &Result<Response, RuntimeError>,
        out: &mut ClientResult,
    ) {
        let result = reply
            .as_ref()
            .map(|r| &r.run.outputs)
            .map_err(|e| e.to_string());
        if let Ok(resp) = reply {
            // A packed round that coalesced fewer than four tenants is
            // still a correct reply; `runtime.occupancy4_share` shows it.
            out.obs.record_reply(
                unit.wall_ms,
                resp.run.total_us,
                resp.cache_hit,
                resp.batch_occupancy,
            );
            let exec = ctx.rec.synthesize_children(
                unit.span,
                "backend.execute",
                unit.req,
                &[(program.name, resp.run.total_us)],
            );
            if let (Some(&exec), Some(kinds)) =
                (exec.first(), self.kinds_by_key.get(&resp.plan_key))
            {
                let parts = us_by_kind(&resp.run.op_us, kinds);
                ctx.rec
                    .synthesize_children(Some(exec), "backend.op", unit.req, &parts);
            }
        }
        out.tally
            .record(program.name, &program.reference, result, RMS_BOUND);
    }
}

/// One timed request or round: its span, the id its spans share, and the
/// client-side wall time.
struct Unit {
    span: Option<u32>,
    req: u64,
    wall_ms: f64,
}

#[derive(Default)]
struct ClientResult {
    samples: Vec<Sample>,
    obs: RuntimeObs,
    tally: Tally,
}

pub fn run(ctx: &Ctx, setup: &Setup, seconds: f64) -> Window {
    let before = setup.rt.stats();
    let start = Instant::now();
    let end = &Deadline::after(seconds);
    let clients: Vec<ClientResult> = match setup.mix {
        Mix::Mixed => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..MIXED_CLIENTS)
                .map(|c| scope.spawn(move || mixed_client(ctx, setup, c, end)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("client threads catch nothing; a panic is a benchmark bug")
                })
                .collect()
        }),
        Mix::Packed4 => vec![packed_client(ctx, setup, end)],
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut obs = RuntimeObs::default();
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for c in clients {
        samples.extend(c.samples);
        obs.merge(c.obs);
        tally.merge(c.tally);
    }
    obs.take_stats(&before, &setup.rt.stats());
    Window {
        units: obs.replies,
        samples,
        wall_s,
        tally,
        runtime: Some(obs),
        ..Window::default()
    }
}

/// The miss path of `serve-packed4`, which its window (all hits by
/// construction) never takes: one round from four new tenants at a
/// waterline no plan was compiled for. Run after a traced window only.
pub fn packed_cold_round(ctx: &Ctx, setup: &Setup) -> (RuntimeObs, Tally) {
    let sessions: Vec<SessionId> = (0..TENANTS).map(|_| setup.rt.open_session()).collect();
    let reqs = sessions
        .iter()
        .enumerate()
        .map(|(t, &session)| setup.request(session, t, HOT_WATERLINES[1]))
        .collect();
    let t0 = Instant::now();
    let replies = setup.rt.run_batch(reqs);
    let unit = Unit {
        span: None,
        req: 0,
        wall_ms: ms_since(t0),
    };
    let mut out = ClientResult::default();
    for (t, reply) in replies.iter().enumerate() {
        setup.account(ctx, &unit, &setup.base.programs[t], reply, &mut out);
    }
    for session in sessions {
        setup.rt.close_session(session);
    }
    (out.obs, out.tally)
}

fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

fn mixed_client(ctx: &Ctx, setup: &Setup, client: u64, end: &Deadline) -> ClientResult {
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed.wrapping_mul(MIXED_CLIENTS) + client);
    // Hot requests walk a reshuffled deck of all (tenant, plan) pairs, and
    // cold waterlines a reshuffled deck of strata: the seed sets the
    // order, never the mix.
    let mut hot: Vec<(usize, usize)> = (0..TENANTS)
        .flat_map(|t| (0..setup.base.plans.len()).map(move |p| (t, p)))
        .collect();
    let mut strata: Vec<u64> = (0..COLD_STRATA).collect();
    let (mut hot_at, mut cold_n) = (hot.len(), 0u64);
    let mut out = ClientResult::default();
    let mut i = 0u64;
    while end.allows(out.samples.last().map_or(0.0, |s| s.ms)) {
        let traced = ctx.traced(i);
        let req_id = ctx.req_id(client, i);
        let cold = i % COLD_EVERY == COLD_EVERY - 1;
        let (tenant, program, waterline) = if cold {
            let at = (cold_n % COLD_STRATA) as usize;
            if at == 0 {
                shuffle(&mut strata, &mut rng);
            }
            let mut steps =
                COLD_LOW_STEPS + strata[at] * STRATUM_STEPS + rng.next_below(STRATUM_STEPS);
            // Never land on a hot waterline: that would be a hit.
            if HOT_WATERLINES.contains(&(steps as f64 / 100.0)) {
                steps += 1;
            }
            cold_n += 1;
            (None, COLD_PROGRAM, steps as f64 / 100.0)
        } else {
            if hot_at == hot.len() {
                shuffle(&mut hot, &mut rng);
                hot_at = 0;
            }
            let (t, p) = hot[hot_at];
            hot_at += 1;
            let plan = &setup.base.plans[p];
            (Some(setup.tenants[t]), plan.program, plan.waterline)
        };
        let label = setup.base.programs[program].name;
        let span = ctx.rec.span(traced, "runtime.request", label, None, req_id);
        let t0 = Instant::now();
        // A cold request pays for its tenant too: open, request, close.
        let session = tenant.unwrap_or_else(|| setup.rt.open_session());
        let reply = setup
            .rt
            .run_batch(vec![setup.request(session, program, waterline)])
            .pop()
            .expect("one reply per request");
        if tenant.is_none() {
            setup.rt.close_session(session);
        }
        let wall_ms = ms_since(t0);
        let unit = Unit {
            span: span.id(),
            req: req_id,
            wall_ms,
        };
        drop(span);
        out.samples.push(Sample {
            ms: wall_ms,
            traced,
        });
        let program = &setup.base.programs[program];
        setup.account(ctx, &unit, program, &reply, &mut out);
        i += 1;
    }
    out
}

fn packed_client(ctx: &Ctx, setup: &Setup, end: &Deadline) -> ClientResult {
    let mut out = ClientResult::default();
    let mut i = 0u64;
    while end.allows(out.samples.last().map_or(0.0, |s| s.ms)) {
        let traced = ctx.traced(i);
        let reqs = setup.packed_round();
        let req_id = ctx.req_id(0, i);
        let span = ctx
            .rec
            .span(traced, "runtime.request", "HCD x4", None, req_id);
        let t0 = Instant::now();
        let replies = setup.rt.run_batch(reqs);
        let wall_ms = ms_since(t0);
        let mut unit = Unit {
            span: span.id(),
            req: req_id,
            wall_ms,
        };
        drop(span);
        // One sample per round: its four replies arrive together.
        out.samples.push(Sample {
            ms: wall_ms,
            traced,
        });
        // Each tenant of the round is checked on its own; only the first
        // hangs its backend share under the round's span.
        for (t, reply) in replies.iter().enumerate() {
            setup.account(ctx, &unit, &setup.base.programs[t], reply, &mut out);
            unit.span = None;
        }
        i += 1;
    }
    out
}
