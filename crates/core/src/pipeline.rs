//! The end-to-end compilation pipeline and the waterline sweep driver.

use crate::estimator::estimate_noise_bits;
use crate::options::{CompileError, CompileOptions, CompileStats, CompiledProgram, Scheme};
use crate::planner::{explore, Candidate, ExploreOutcome};
use crate::smu::{self, SmuAnalysis};
use hecate_ir::analysis::{op_histogram, use_edge_count};
use hecate_ir::verify::{verify_input, verify_plan};
use hecate_ir::Function;
use hecate_telemetry::trace;

/// Compiles an input program under one of the four schemes (§VII-A).
///
/// # Errors
/// Returns a [`CompileError`] if the input is malformed, a transformation
/// is ill-typed, or no parameter set fits the resulting scales.
///
/// # Example
/// ```
/// use hecate_compiler::{compile, CompileOptions, Scheme};
/// use hecate_ir::FunctionBuilder;
///
/// let mut b = FunctionBuilder::new("square", 4);
/// let x = b.input_cipher("x");
/// let sq = b.square(x);
/// b.output(sq);
/// let func = b.finish();
///
/// let compiled = compile(&func, Scheme::Hecate, &CompileOptions::with_waterline(20.0))?;
/// assert!(compiled.stats.estimated_latency_us > 0.0);
/// # Ok::<(), hecate_compiler::CompileError>(())
/// ```
pub fn compile(
    func: &Function,
    scheme: Scheme,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let mut compile_span = trace::span_with("compile", || {
        vec![
            ("func", func.name.as_str().into()),
            ("scheme", scheme.to_string().into()),
        ]
    });
    hecate_telemetry::metrics::global()
        .counter("hecate_compiles_total")
        .inc();
    {
        let _s = trace::span("pass:verify-input");
        verify_input(func, "frontend")?;
    }
    // Hash the function as submitted (before canonicalization): reloading
    // a saved plan compares this against the re-parsed source file.
    let source_hash = hecate_ir::hash::function_hash(func);
    let canonical = {
        let _s = trace::span("pass:canonicalize");
        let canonical = hecate_ir::transform::canonicalize(func);
        verify_input(&canonical, "canonicalize")?;
        canonical
    };
    let func = &canonical;
    let cfg = opts.type_config();
    let analysis = {
        let _s = trace::span("pass:smu-analyze");
        smu::analyze(func, cfg.waterline)
    };
    // EVA and PARS lower the all-zero plan of an edge-less analysis.
    let (pass, units) = if scheme.explores() {
        ("pass:explore", &analysis)
    } else {
        ("pass:codegen", &SmuAnalysis::default())
    };
    let ExploreOutcome {
        best: mut candidate,
        epochs,
        plans_explored,
        ..
    } = {
        let _s = trace::span(pass);
        explore(func, units, scheme.proactive(), opts, None)?
    };
    // The one noise estimate per plan: over the winner as lowered, before
    // any injected compile fault.
    let estimated_noise_bits =
        estimate_noise_bits(&candidate.func, &candidate.types, candidate.params.degree);
    {
        let _s = trace::span("pass:final-verify");
        apply_fault_and_verify(&mut candidate, opts)?;
    }
    compile_span.attr("est_us", candidate.cost_us.into());
    compile_span.attr("plans_explored", plans_explored.into());
    let stats = CompileStats {
        estimated_latency_us: candidate.cost_us,
        estimated_noise_bits,
        epochs,
        plans_explored,
        smu_units: analysis.unit_count,
        smu_edges: analysis.edges.len(),
        use_edges: use_edge_count(func),
        op_counts: op_histogram(&candidate.func),
    };
    Ok(CompiledProgram {
        func: candidate.func,
        types: candidate.types,
        waterline: cfg.waterline,
        scheme,
        params: candidate.params,
        source_hash,
        stats,
    })
}

/// Applies any configured [`CompileFault`](crate::options::CompileFault)
/// to the winning candidate, then runs the final whole-plan verification.
///
/// The fault lands *before* the final check, so every injected compiler
/// fault surfaces as [`CompileError::Verify`] rather than a miscompiled
/// program.
fn apply_fault_and_verify(
    candidate: &mut Candidate,
    opts: &CompileOptions,
) -> Result<(), CompileError> {
    if let Some(sabotaged) = opts.fault.as_ref().and_then(|f| f.apply(&candidate.func)) {
        candidate.func = sabotaged;
    }
    // The final check binds C1 to the *selected* modulus chain, so a plan
    // inconsistent with its own parameters cannot ship.
    let cfg = candidate.params.type_config(opts.type_config().waterline);
    candidate.types = verify_plan(&candidate.func, &cfg, "final-plan")?;
    Ok(())
}

/// Compiles one program at every waterline and returns the results paired
/// with their waterlines (failures are kept: a waterline can be infeasible).
///
/// The paper sweeps 36 waterlines per scheme and picks the fastest whose
/// measured error stays within the bound; error filtering happens in the
/// backend, so this helper only produces the candidates.
pub fn sweep_waterlines(
    func: &Function,
    scheme: Scheme,
    waterlines: &[f64],
    opts: &CompileOptions,
) -> Vec<(f64, Result<CompiledProgram, CompileError>)> {
    waterlines
        .iter()
        .map(|&w| {
            let mut o = opts.clone();
            o.waterline_bits = w;
            (w, compile(func, scheme, &o))
        })
        .collect()
}

/// The default sweep: 36 waterlines from 15 to 50 bits, matching the
/// paper's 36-point sweep.
pub fn default_waterlines() -> Vec<f64> {
    (15..51).map(|w| w as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        o.degree = Some(4096);
        o
    }

    #[test]
    fn all_schemes_compile_the_motivating_example() {
        let func = motivating();
        for scheme in Scheme::ALL {
            let c = compile(&func, scheme, &opts(20.0)).unwrap();
            assert!(c.stats.estimated_latency_us > 0.0, "{scheme}");
            assert!(c.params.chain_len >= 1);
            assert_eq!(c.scheme, scheme);
            assert!(c.stats.use_edges >= 10);
            assert!(c.stats.smu_units >= 3);
        }
    }

    #[test]
    fn hecate_at_least_as_fast_as_eva_in_estimate() {
        let func = motivating();
        let o = opts(20.0);
        let eva = compile(&func, Scheme::Eva, &o).unwrap();
        let hec = compile(&func, Scheme::Hecate, &o).unwrap();
        assert!(
            hec.stats.estimated_latency_us <= eva.stats.estimated_latency_us + 1e-9,
            "HECATE {} vs EVA {}",
            hec.stats.estimated_latency_us,
            eva.stats.estimated_latency_us
        );
    }

    #[test]
    fn sweep_produces_one_result_per_waterline() {
        let func = motivating();
        let ws = [18.0, 22.0, 26.0];
        let results = sweep_waterlines(&func, Scheme::Pars, &ws, &opts(20.0));
        assert_eq!(results.len(), 3);
        for (w, r) in &results {
            let c = r.as_ref().expect("feasible waterline");
            assert_eq!(c.waterline, *w);
        }
    }

    #[test]
    fn default_sweep_has_36_points() {
        assert_eq!(default_waterlines().len(), 36);
    }

    #[test]
    fn compiled_stats_populated() {
        let func = motivating();
        let c = compile(&func, Scheme::Hecate, &opts(20.0)).unwrap();
        assert!(c.stats.plans_explored >= 1);
        assert!(c.stats.op_counts.contains_key("mul"));
    }
}
