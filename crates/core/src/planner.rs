//! The scale management space explorer (SMSE) — paper §VI-A.
//!
//! A *plan* assigns an optimization degree to every SMU edge. The planner
//! climbs the plan space by steepest ascent: from the incumbent plan it
//! generates one neighbour per edge (degree +1 there), lowers each through
//! the code generator, scores it with the performance estimator, and adopts
//! the best improvement; it stops at a local optimum (the "hilltop").
//!
//! The naïve explorer (Table III's comparison point) runs the same climb
//! over raw use–def edges instead of SMU edges — the same code path with a
//! per-use plan — and is capped by an evaluation budget since the paper
//! measured it at up to 649 hours.

use crate::codegen::{generate, GenOptions, PlanRef};
use crate::estimator::{estimate_latency_us, estimate_noise_bits};
use crate::options::{CompileError, CompileOptions, Objective};
use crate::params::{select_params, SelectedParams};
use crate::smu::{cipherness, SmuAnalysis};
use hecate_ir::types::Type;
use hecate_ir::Function;
use std::collections::HashMap;

/// One lowered-and-scored plan.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The generated function.
    pub func: Function,
    /// Its types.
    pub types: Vec<Type>,
    /// The selected parameters.
    pub params: SelectedParams,
    /// Estimated latency, microseconds.
    pub cost_us: f64,
    /// Estimated output noise (log2 standard deviation).
    pub noise_bits: f64,
    /// The objective value the explorer compared (depends on
    /// [`Objective`]).
    pub score: f64,
}

/// Outcome of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The winning candidate.
    pub best: Candidate,
    /// Improving iterations (Table III "epoch").
    pub epochs: usize,
    /// Plans evaluated, including infeasible ones (Table III "plans").
    pub plans_explored: usize,
    /// Whether the run stopped on the evaluation budget rather than at a
    /// local optimum (naïve mode only).
    pub capped: bool,
}

fn evaluate(
    func: &Function,
    plan: PlanRef<'_>,
    proactive: bool,
    opts: &CompileOptions,
) -> Result<Candidate, CompileError> {
    let g = GenOptions {
        cfg: opts.type_config(),
        proactive,
        plan,
        early_modswitch: opts.early_modswitch,
        rotate_cse: opts.canonicalize,
    };
    let (out, types) = generate(func, &g)?;
    // Re-check the full invariant set on every lowered candidate — the
    // emitter type-checks incrementally, but the verifier additionally
    // guards the waterline, budget, monotonicity, and rescale conditions
    // against bugs in the generation passes themselves.
    if opts.verify_passes {
        let pass = match (plan, proactive) {
            (PlanRef::None, false) => "eva-codegen",
            (PlanRef::None, true) => "pars-codegen",
            (PlanRef::Smu { .. }, false) => "smse-candidate(eva)",
            (PlanRef::Smu { .. }, true) => "smse-candidate(pars)",
            (PlanRef::Naive { .. }, false) => "naive-candidate(eva)",
            (PlanRef::Naive { .. }, true) => "naive-candidate(pars)",
        };
        hecate_ir::verify::verify_plan(&out, &g.cfg, pass)?;
    }
    let params = select_params(&out, &types, opts)?;
    let cost_us = estimate_latency_us(
        &out,
        &types,
        &opts.cost_model,
        params.chain_len,
        params.degree,
    );
    let noise_bits = estimate_noise_bits(&out, &types, params.degree);
    let score = match opts.objective {
        Objective::Latency => cost_us,
        Objective::LatencyAndError { error_weight } => {
            cost_us.max(1e-9).log2() + error_weight * noise_bits
        }
    };
    Ok(Candidate {
        func: out,
        types,
        params,
        cost_us,
        noise_bits,
        score,
    })
}

/// Compiles without exploration (EVA and PARS schemes).
///
/// # Errors
/// Propagates code-generation and parameter-selection failures.
pub fn compile_plain(
    func: &Function,
    proactive: bool,
    opts: &CompileOptions,
) -> Result<Candidate, CompileError> {
    evaluate(func, PlanRef::None, proactive, opts)
}

/// Runs SMSE over SMU edges (SMSE and HECATE schemes).
///
/// # Errors
/// Fails only if the *initial* (all-zero) plan cannot be lowered; bad
/// neighbours are simply discarded.
pub fn explore_smu(
    func: &Function,
    smu: &SmuAnalysis,
    proactive: bool,
    opts: &CompileOptions,
) -> Result<ExploreOutcome, CompileError> {
    let edge_count = smu.edges.len();
    let mut degrees = vec![0u32; edge_count];
    let mut best = evaluate(
        func,
        PlanRef::Smu {
            smu,
            degrees: &degrees,
        },
        proactive,
        opts,
    )?;
    let mut epochs = 0;
    let mut plans_explored = 1;
    let iter_counter = hecate_telemetry::metrics::global().counter("hecate_smse_iters_total");
    for iter in 0..opts.max_smse_iters {
        let mut span = hecate_telemetry::trace::span_with("smse-iter", || {
            vec![("iter", iter.into()), ("incumbent_us", best.cost_us.into())]
        });
        iter_counter.inc();
        let mut improved: Option<(usize, Candidate)> = None;
        for e in 0..edge_count {
            degrees[e] += 1;
            plans_explored += 1;
            if let Ok(cand) = evaluate(
                func,
                PlanRef::Smu {
                    smu,
                    degrees: &degrees,
                },
                proactive,
                opts,
            ) {
                if cand.score < best.score - 1e-9
                    && improved
                        .as_ref()
                        .map(|(_, c)| cand.score < c.score)
                        .unwrap_or(true)
                {
                    improved = Some((e, cand));
                }
            }
            degrees[e] -= 1;
        }
        match improved {
            Some((e, cand)) => {
                degrees[e] += 1;
                best = cand;
                epochs += 1;
                span.attr("improved", true.into());
                span.attr("best_us", best.cost_us.into());
            }
            None => {
                span.attr("improved", false.into());
                break;
            }
        }
    }
    Ok(ExploreOutcome {
        best,
        epochs,
        plans_explored,
        capped: false,
    })
}

/// Runs the naïve exploration over raw use–def edges, stopping after
/// `max_evaluations` plan evaluations if given.
///
/// # Errors
/// Fails only if the initial plan cannot be lowered.
pub fn explore_naive(
    func: &Function,
    proactive: bool,
    opts: &CompileOptions,
    max_evaluations: Option<usize>,
) -> Result<ExploreOutcome, CompileError> {
    // Use edges with cipher-valued defs (plain edges are not managed).
    let cipher = cipherness(func);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, op) in func.ops().iter().enumerate() {
        for v in op.operands() {
            if cipher[v.index()] {
                edges.push((v.0, i as u32));
            }
        }
    }
    let mut degrees: HashMap<(u32, u32), u32> = HashMap::new();
    let mut best = evaluate(func, PlanRef::Naive { degrees: &degrees }, proactive, opts)?;
    let mut epochs = 0;
    let mut plans_explored = 1;
    let mut capped = false;
    'outer: for _ in 0..opts.max_smse_iters {
        let mut improved: Option<((u32, u32), Candidate)> = None;
        for &edge in &edges {
            if let Some(buget) = max_evaluations {
                if plans_explored >= buget {
                    capped = true;
                    break 'outer;
                }
            }
            *degrees.entry(edge).or_insert(0) += 1;
            plans_explored += 1;
            if let Ok(cand) = evaluate(func, PlanRef::Naive { degrees: &degrees }, proactive, opts)
            {
                if cand.score < best.score - 1e-9
                    && improved
                        .as_ref()
                        .map(|(_, c)| cand.score < c.score)
                        .unwrap_or(true)
                {
                    improved = Some((edge, cand));
                }
            }
            let d = degrees.get_mut(&edge).expect("just inserted");
            *d -= 1;
            if *d == 0 {
                degrees.remove(&edge);
            }
        }
        match improved {
            Some((edge, cand)) => {
                *degrees.entry(edge).or_insert(0) += 1;
                best = cand;
                epochs += 1;
            }
            None => break,
        }
    }
    Ok(ExploreOutcome {
        best,
        epochs,
        plans_explored,
        capped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smu;
    use hecate_ir::FunctionBuilder;

    fn motivating() -> Function {
        let mut b = FunctionBuilder::new("motivating", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let z = b.add(x2, y2);
        let z2 = b.mul(z, z);
        let z3 = b.mul(z2, z);
        b.output(z3);
        b.finish()
    }

    fn opts(w: f64) -> CompileOptions {
        let mut o = CompileOptions::with_waterline(w);
        o.degree = Some(4096); // fixed degree keeps cost comparisons stable
        o
    }

    #[test]
    fn smse_never_worse_than_base_policy() {
        let func = motivating();
        for proactive in [false, true] {
            for w in [20.0, 30.0] {
                let o = opts(w);
                let base = compile_plain(&func, proactive, &o).unwrap();
                let a = smu::analyze(&func, w);
                let explored = explore_smu(&func, &a, proactive, &o).unwrap();
                assert!(
                    explored.best.cost_us <= base.cost_us + 1e-9,
                    "explored {} > base {} (proactive={proactive}, w={w})",
                    explored.best.cost_us,
                    base.cost_us
                );
            }
        }
    }

    #[test]
    fn exploration_counts_plans_per_epoch() {
        let func = motivating();
        let o = opts(20.0);
        let a = smu::analyze(&func, 20.0);
        let out = explore_smu(&func, &a, true, &o).unwrap();
        // plans = 1 initial + (epochs+1 rounds)·edges, minus nothing.
        assert!(out.plans_explored > a.edges.len());
        assert_eq!(
            out.plans_explored,
            1 + (out.epochs + 1) * a.edges.len(),
            "steepest ascent evaluates every edge each round"
        );
    }

    #[test]
    fn naive_explores_more_plans_than_smu() {
        let func = motivating();
        let o = opts(20.0);
        let a = smu::analyze(&func, 20.0);
        let smu_out = explore_smu(&func, &a, false, &o).unwrap();
        let naive_out = explore_naive(&func, false, &o, None).unwrap();
        assert!(
            naive_out.plans_explored >= smu_out.plans_explored,
            "naive {} < smu {}",
            naive_out.plans_explored,
            smu_out.plans_explored
        );
        // Both reach feasible programs.
        assert!(naive_out.best.cost_us > 0.0);
    }

    #[test]
    fn naive_budget_caps_run() {
        let func = motivating();
        let o = opts(20.0);
        let out = explore_naive(&func, false, &o, Some(5)).unwrap();
        assert!(out.capped);
        assert!(out.plans_explored <= 6);
    }

    #[test]
    fn best_plan_type_checks_and_has_params() {
        let func = motivating();
        let o = opts(20.0);
        let a = smu::analyze(&func, 20.0);
        let out = explore_smu(&func, &a, true, &o).unwrap();
        hecate_ir::types::infer_types(&out.best.func, &o.type_config()).unwrap();
        assert!(out.best.params.chain_len >= 1);
    }
}
