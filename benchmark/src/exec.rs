//! `exec-rot-wide` and `exec-mul-deep`: one compiled plan run straight
//! through `ExecEngine::new` + `execute_sequential` on a warm engine, no
//! runtime in the way. The two differ only in the program: MLP is one
//! hoisted 81-way rotation fan-out on a shallow chain (key-switch / NTT
//! bound, HECATE ≈ EVA), the polynomial product is rotation-free and deep
//! (mul / relin / rescale bound, where the scale-management plan matters).

use crate::check::{catching, Tally, RMS_BOUND};
use crate::common::{
    backend, ms_since, op_kinds, us_by_kind, BackendObs, Base, Ctx, Deadline, Sample, Window,
    WATERLINE,
};
use crate::programs::Size;
use hecate_backend::exec::{execute_sequential, EncryptedRun, ExecEngine};
use std::time::Instant;

pub const DEGREE: usize = 2048;
const WARMUP_RUNS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Program {
    RotWide,
    MulDeep,
}

pub struct Setup {
    pub base: Base,
    engine: ExecEngine,
    engine_new_ms: f64,
    kinds: Vec<usize>,
}

pub fn setup(ctx: &Ctx, which: Program) -> Result<Setup, String> {
    let program = match which {
        Program::RotWide => ctx.build_app("MLP", Size::Small, 0),
        Program::MulDeep => ctx.build_poly_deep(),
    };
    let plan = ctx.compile(true, 0, 0, &program, WATERLINE, Some(DEGREE))?;
    let t0 = Instant::now();
    let engine = {
        let _s = ctx
            .rec
            .span(true, "backend.engine_new", program.name, None, 0);
        ExecEngine::new(plan.compiled.clone(), &backend(DEGREE)).map_err(|e| e.to_string())?
    };
    let engine_new_ms = ms_since(t0);
    let kinds = op_kinds(&plan.compiled.func);
    let setup = Setup {
        base: Base {
            programs: vec![program],
            plans: vec![plan],
            own_plans: 1,
            probe_plan: 0,
            probe_degree: DEGREE,
        },
        engine,
        engine_new_ms,
        kinds,
    };
    for _ in 0..WARMUP_RUNS {
        setup.execute()?;
    }
    Ok(setup)
}

impl Setup {
    fn execute(&self) -> Result<EncryptedRun, String> {
        let inputs = &self.base.programs[0].inputs;
        catching(|| execute_sequential(&self.engine, inputs).map_err(|e| e.to_string()))
    }
}

pub fn run(ctx: &Ctx, setup: &Setup, seconds: f64) -> Window {
    let program = &setup.base.programs[0];
    let mut obs = BackendObs {
        engine_new_ms: vec![setup.engine_new_ms],
        est_us: setup.base.plans[0].compiled.stats.estimated_latency_us,
        ..BackendObs::default()
    };
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let end = Deadline::after(seconds);
    while end.allows(samples.last().map_or(0.0, |s: &Sample| s.ms)) {
        let i = samples.len() as u64;
        let traced = ctx.traced(i);
        let req = ctx.req_id(0, i);
        let span = ctx
            .rec
            .span(traced, "backend.execute", program.name, None, req);
        let t0 = Instant::now();
        let result = setup.execute();
        let wall_ms = ms_since(t0);
        let span_id = span.id();
        drop(span);
        samples.push(Sample {
            ms: wall_ms,
            traced,
        });
        if let Ok(run) = &result {
            obs.record_run(wall_ms, run, &setup.kinds);
            let parts = us_by_kind(&run.op_us, &setup.kinds);
            ctx.rec
                .synthesize_children(span_id, "backend.op", req, &parts);
        }
        tally.record(
            program.name,
            &program.reference,
            result
                .as_ref()
                .map(|run| &run.outputs)
                .map_err(Clone::clone),
            RMS_BOUND,
        );
    }
    Window {
        units: samples.len() as u64,
        // Throughput counts time inside `execute_sequential` only; the
        // output checks between runs are the benchmark's, not the program's.
        wall_s: samples.iter().map(|s| s.ms).sum::<f64>() / 1e3,
        samples,
        tally,
        backend: Some(obs),
        ..Window::default()
    }
}
