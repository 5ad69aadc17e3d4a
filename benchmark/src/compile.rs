//! `compile-paper8`: one pass compiles all eight paper-shape programs
//! under `Scheme::Hecate` at waterline 24, with no encryption — the only
//! workload where the compiler does all the work and the backend none.
//! LeNet (13 k ops out) is bound by IR size, PR E3 (991 plans) by search.

use crate::check::Tally;
use crate::common::{Base, Ctx, Deadline, Plan, Sample, Window, WATERLINE};
use crate::exec::DEGREE as PROBE_DEGREE;
use crate::programs::{Size, PAPER8};
use hecate_ir::interp::interpret;
use std::collections::BTreeMap;
use std::time::Instant;

/// Scale management ops are value identities in the interpreter, so a
/// compiled function must reproduce its source's plaintext outputs up to
/// float reassociation by constant folding.
const PLAINTEXT_BOUND: f64 = 1e-6;

pub struct Setup {
    pub base: Base,
}

/// Builds the eight programs and compiles each once (the warm-up pass,
/// which also yields the plan set), plus the small program the layer
/// probe executes — the paper shapes are out of encrypted reach here.
pub fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let mut programs: Vec<_> = PAPER8
        .iter()
        .map(|name| ctx.build_app(name, Size::Paper, 0))
        .collect();
    let mut plans = pass(ctx, &programs, true, 0)?;
    programs.push(ctx.build_app("SF", Size::Small, 0));
    let probe = programs.len() - 1;
    plans.push(ctx.compile(
        true,
        0,
        probe,
        &programs[probe],
        WATERLINE,
        Some(PROBE_DEGREE),
    )?);
    Ok(Setup {
        base: Base {
            programs,
            own_plans: PAPER8.len(),
            probe_plan: plans.len() - 1,
            plans,
            probe_degree: PROBE_DEGREE,
        },
    })
}

fn pass(
    ctx: &Ctx,
    programs: &[crate::programs::Program],
    traced: bool,
    req: u64,
) -> Result<Vec<Plan>, String> {
    programs
        .iter()
        .take(PAPER8.len())
        .enumerate()
        .map(|(i, p)| ctx.compile(traced, req, i, p, WATERLINE, None))
        .collect()
}

pub fn run(ctx: &Ctx, setup: &Setup, seconds: f64) -> Window {
    let programs = &setup.base.programs;
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut compile_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut busy_s = 0.0;
    let end = Deadline::after(seconds);
    while end.allows(samples.last().map_or(0.0, |s: &Sample| s.ms)) {
        let i = samples.len() as u64;
        let traced = ctx.traced(i);
        let t0 = Instant::now();
        let result = pass(ctx, programs, traced, ctx.req_id(0, i));
        let elapsed = t0.elapsed().as_secs_f64();
        busy_s += elapsed;
        samples.push(Sample {
            ms: elapsed * 1e3,
            traced,
        });
        // Outside the timed pass: each compiled program is one operation,
        // checked by interpreting it next to its source.
        match result {
            Ok(plans) => {
                for plan in &plans {
                    let p = &programs[plan.program];
                    compile_ms.entry(p.name).or_default().push(plan.compile_ms);
                    let outputs = interpret(&plan.compiled.func, &p.inputs);
                    tally.record(
                        p.name,
                        &p.reference,
                        outputs.as_ref().map_err(|e| e.to_string()),
                        PLAINTEXT_BOUND,
                    );
                }
            }
            Err(why) => {
                for p in programs.iter().take(PAPER8.len()) {
                    tally.record(p.name, &p.reference, Err(why.clone()), PLAINTEXT_BOUND);
                }
            }
        }
    }
    Window {
        units: samples.len() as u64,
        samples,
        wall_s: busy_s,
        tally,
        compile_ms,
        ..Window::default()
    }
}
