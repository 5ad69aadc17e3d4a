//! The scale management space explorer (SMSE) — paper §VI-A.
//!
//! A *plan* assigns an optimization degree to every edge of a unit
//! analysis ([`SmuAnalysis`]). [`explore`] climbs the plan space by
//! steepest ascent: from the incumbent plan it generates one neighbour per
//! edge (degree +1 there), lowers each through the code generator, scores
//! it with the performance estimator, and adopts the best improvement; it
//! stops at a local optimum (the "hilltop").
//!
//! The analysis passed in is the only thing that differs between callers:
//!
//! - SMSE and HECATE climb over SMU edges ([`crate::smu::analyze`]);
//! - the naïve explorer of Table III climbs over raw use–def edges
//!   ([`SmuAnalysis::per_value`]), under an evaluation budget since the
//!   paper measured it at up to 649 hours;
//! - EVA and PARS pass the edge-less [`SmuAnalysis::default`], so the
//!   all-zero plan — the pure policy — is the only one evaluated.

use crate::codegen::{generate, GenOptions, PlanRef};
use crate::estimator::estimate_latency_us;
use crate::options::{CompileError, CompileOptions};
use crate::params::{select_params, SelectedParams};
use crate::smu::SmuAnalysis;
use hecate_ir::types::Type;
use hecate_ir::Function;

/// Upper bound on hill-climbing iterations (a safety net: the climb
/// normally stops at a local optimum much earlier).
const MAX_SMSE_ITERS: usize = 100;

/// One lowered-and-scored plan.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The generated function.
    pub func: Function,
    /// Its types.
    pub types: Vec<Type>,
    /// The selected parameters.
    pub params: SelectedParams,
    /// Estimated latency, microseconds: what the explorer minimizes.
    pub cost_us: f64,
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
    /// local optimum.
    pub capped: bool,
}

fn evaluate(
    func: &Function,
    units: &SmuAnalysis,
    degrees: &[u32],
    proactive: bool,
    opts: &CompileOptions,
) -> Result<Candidate, CompileError> {
    let g = GenOptions {
        cfg: opts.type_config(),
        proactive,
        plan: PlanRef {
            smu: units,
            degrees,
        },
        early_modswitch: opts.early_modswitch,
    };
    let out = generate(func, &g)?;
    // Re-check the full invariant set on every lowered candidate — the
    // emitter type-checks incrementally, but the verifier additionally
    // guards the waterline, budget, monotonicity, and rescale conditions
    // against bugs in the generation passes themselves. Its types are the
    // candidate's.
    let pass = match (degrees.is_empty(), proactive) {
        (true, false) => "eva-codegen",
        (true, true) => "pars-codegen",
        (false, false) => "smse-candidate(eva)",
        (false, true) => "smse-candidate(pars)",
    };
    let types = hecate_ir::verify::verify_plan(&out, &g.cfg, pass)?;
    let params = select_params(&out, &types, opts)?;
    let cost_us = estimate_latency_us(
        &out,
        &types,
        &opts.cost_model,
        params.chain_len,
        params.degree,
    );
    Ok(Candidate {
        func: out,
        types,
        params,
        cost_us,
    })
}

/// Runs SMSE: a steepest-ascent climb over the edges of `units`, from the
/// all-zero plan to a local optimum, or until `budget` plans have been
/// evaluated (`capped`). An edge-less analysis (the default) evaluates the
/// all-zero plan once and opens no `smse-iter` span.
///
/// `func` must be canonical ([`hecate_ir::transform::canonicalize`], as
/// [`crate::compile`] runs it). Each candidate is lowered once by
/// [`generate`] and typed once, by the verifier.
///
/// # Errors
/// Fails only if the *initial* (all-zero) plan cannot be lowered (a
/// non-canonical `func` is [`CompileError::UnsupportedInput`]); bad
/// neighbours are simply discarded.
pub fn explore(
    func: &Function,
    units: &SmuAnalysis,
    proactive: bool,
    opts: &CompileOptions,
    budget: Option<usize>,
) -> Result<ExploreOutcome, CompileError> {
    let edge_count = units.edges.len();
    let mut degrees = vec![0u32; edge_count];
    let mut best = evaluate(func, units, &degrees, proactive, opts)?;
    let mut epochs = 0;
    let mut plans_explored = 1;
    let mut capped = false;
    let iters = if edge_count == 0 { 0 } else { MAX_SMSE_ITERS };
    let iter_counter = hecate_telemetry::metrics::global().counter("hecate_smse_iters_total");
    'climb: for iter in 0..iters {
        let mut span = hecate_telemetry::trace::span_with("smse-iter", || {
            vec![("iter", iter.into()), ("incumbent_us", best.cost_us.into())]
        });
        iter_counter.inc();
        let mut improved: Option<(usize, Candidate)> = None;
        for e in 0..edge_count {
            if budget.is_some_and(|b| plans_explored >= b) {
                capped = true;
                break 'climb;
            }
            degrees[e] += 1;
            plans_explored += 1;
            if let Ok(cand) = evaluate(func, units, &degrees, proactive, opts) {
                if cand.cost_us < best.cost_us - 1e-9
                    && improved
                        .as_ref()
                        .is_none_or(|(_, c)| cand.cost_us < c.cost_us)
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
        capped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smu;
    use hecate_ir::FunctionBuilder;
    use hecate_telemetry::trace;

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
                let base = explore(&func, &SmuAnalysis::default(), proactive, &o, None).unwrap();
                let a = smu::analyze(&func, w);
                let explored = explore(&func, &a, proactive, &o, None).unwrap();
                assert!(
                    explored.best.cost_us <= base.best.cost_us + 1e-9,
                    "explored {} > base {} (proactive={proactive}, w={w})",
                    explored.best.cost_us,
                    base.best.cost_us
                );
            }
        }
    }

    #[test]
    fn exploration_counts_plans_per_epoch() {
        let func = motivating();
        let o = opts(20.0);
        let a = smu::analyze(&func, 20.0);
        let out = explore(&func, &a, true, &o, None).unwrap();
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
        let smu_out = explore(&func, &a, false, &o, None).unwrap();
        let naive = SmuAnalysis::per_value(&func);
        let naive_out = explore(&func, &naive, false, &o, None).unwrap();
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
    fn naive_climb_evaluates_each_use_def_pair_once() {
        // x → x² → x⁴: each square uses its operand twice, but there are
        // only two distinct (def, user) pairs to climb over.
        let mut b = FunctionBuilder::new("squares", 4);
        let x = b.input_cipher("x");
        let x2 = b.square(x);
        let x4 = b.square(x2);
        b.output(x4);
        let func = b.finish();
        let out = explore(
            &func,
            &SmuAnalysis::per_value(&func),
            true,
            &opts(20.0),
            None,
        )
        .unwrap();
        assert!(!out.capped);
        assert_eq!(out.plans_explored, 1 + (out.epochs + 1) * 2);
    }

    #[test]
    fn naive_budget_caps_run() {
        let func = motivating();
        let o = opts(20.0);
        let naive = SmuAnalysis::per_value(&func);
        for k in [2, 5, 9] {
            let out = explore(&func, &naive, false, &o, Some(k)).unwrap();
            assert!(out.capped, "budget {k}");
            assert_eq!(out.plans_explored, k);
        }
    }

    #[test]
    fn edgeless_analysis_evaluates_one_plan_and_opens_no_span() {
        let func = motivating();
        for proactive in [false, true] {
            let (out, events) = trace::capture(|| {
                explore(&func, &SmuAnalysis::default(), proactive, &opts(20.0), None).unwrap()
            });
            assert_eq!((out.plans_explored, out.epochs), (1, 0));
            assert!(!out.capped);
            let tid = trace::current_tid();
            assert!(!events.iter().any(|e| e.tid == tid && e.name == "smse-iter"));
        }
    }

    #[test]
    fn best_plan_type_checks_and_has_params() {
        let func = motivating();
        let o = opts(20.0);
        let a = smu::analyze(&func, 20.0);
        let out = explore(&func, &a, true, &o, None).unwrap();
        hecate_ir::types::infer_types(&out.best.func, &o.type_config()).unwrap();
        assert!(out.best.params.chain_len >= 1);
    }
}
