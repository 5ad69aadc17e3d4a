//! Validates the first-order noise model against measured encrypted
//! error across **all 8 paper benchmarks** (SF, HCD, MLP, LeNet,
//! LR E2/E3, PR E2/E3).
//!
//! The model is deliberately conservative: at accumulation-heavy ops it
//! can *over*-predict the decoded-domain RMS error by several orders of
//! magnitude, because it tracks worst-case variance growth rather than
//! the cancellation real data exhibits. What it must never do is
//! *under*-predict badly — a measured error far above prediction means a
//! decryption the compiler promised was accurate is garbage. So the
//! contract asserted here is the one-sided safety bound the audit gate
//! enforces: at every probed operation,
//!
//! ```text
//! measured_rms <= 10 x max(predicted_rms, floor)
//! ```
//!
//! i.e. the estimate is within one order of magnitude of the measured
//! error on the side that matters. Empirically the worst ratio across
//! the suite is ~5x (LR E2), so the bound has real headroom without
//! being vacuous.

use hecate_apps::{all_benchmarks, harris, regression, sobel, Benchmark, Preset};
use hecate_backend::exec::{execute_encrypted, BackendOptions};
use hecate_backend::{audit_encrypted, AuditOptions};
use hecate_compiler::{
    compile, serialize_plan, CompileOptions, CompiledProgram, CostModel, Scheme,
};
use hecate_ir::interp::{interpret, rms_error};
use hecate_ir::Function;
use std::collections::HashMap;

fn backend(degree: usize) -> BackendOptions {
    BackendOptions {
        degree_override: Some(degree),
        ..BackendOptions::default()
    }
}

#[test]
fn noise_estimate_bounds_measured_error_on_all_benchmarks() {
    let audit = AuditOptions::default(); // factor 10, floor 1e-7
    let benches = all_benchmarks(Preset::Small);
    assert_eq!(benches.len(), 8, "the paper's full benchmark suite");
    for bench in &benches {
        let degree = (2 * bench.func.vec_size).max(512);
        let mut opts = CompileOptions::with_waterline(24.0);
        opts.degree = Some(degree);
        let prog = compile(&bench.func, Scheme::Pars, &opts)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.name));
        let report = audit_encrypted(
            &prog,
            &bench.inputs,
            &backend(degree),
            &audit,
            &opts.cost_model,
        )
        .unwrap_or_else(|e| panic!("{}: audited run failed: {e}", bench.name));
        // Every probed op (all outputs + 4 checkpoints) satisfies the
        // one-sided order-of-magnitude bound, and the plan's scales all
        // clear the waterline.
        let violations = report.violations(&audit);
        assert!(
            violations.is_empty(),
            "{}: audit violations: {}",
            bench.name,
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert!(
            report.min_margin_bits >= 0.0,
            "{}: negative waterline margin {:.2} bits",
            bench.name,
            report.min_margin_bits
        );
        let probed = report.rows.iter().filter(|r| r.measured_rms.is_some());
        assert!(probed.count() > 0, "{}: audit probed nothing", bench.name);
        let worst = report.worst_ratio(audit.floor);
        assert!(
            worst <= audit.factor,
            "{}: worst measured/predicted ratio {worst:.2} exceeds {}",
            bench.name,
            audit.factor
        );
    }
}

#[test]
fn audit_flags_under_waterlined_plan_via_public_api() {
    // Same drift the unit test covers, but through the crate's public
    // re-exports, on a real benchmark: raise the claimed waterline above
    // the plan's actual scales and the audit must report a negative
    // margin. EVA plans read nothing from cfg.waterline at execution
    // time, so the tamper changes only the claim being audited.
    let bench = &all_benchmarks(Preset::Small)[0]; // SF
    let degree = (2 * bench.func.vec_size).max(512);
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(degree);
    let mut prog = compile(&bench.func, Scheme::Eva, &opts).expect("SF compiles");
    prog.waterline += 64.0;
    let audit = AuditOptions::default();
    let report = audit_encrypted(
        &prog,
        &bench.inputs,
        &backend(degree),
        &audit,
        &opts.cost_model,
    )
    .expect("tampered run");
    assert!(report.min_margin_bits < 0.0);
    assert!(
        !report.violations(&audit).is_empty(),
        "under-waterlined plan passed the audit"
    );
}

/// A fractional waterline compiles at its ceiling. SF at w30.29 is the
/// function of w31 and LR E2 at w29.70 that of w30, and both pass the
/// audit. When scales could be fractional, SF carried an `upscale` by
/// δ = 0.58 and LR E2 four `downscale`s by δ = 0.60; the executor
/// multiplied by `round(2^δ)` but declared δ, and both failed at an output.
#[test]
fn fractional_waterline_compiles_at_its_ceiling_and_passes_the_audit() {
    let audit = AuditOptions::default();
    let benches = all_benchmarks(Preset::Small);
    for (name, waterline, ceiling) in [("SF", 30.29, 31.0), ("LR E2", 29.70, 30.0)] {
        let bench = benches.iter().find(|b| b.name == name).unwrap();
        let prog = compile_hecate(&bench.func, waterline);
        assert_eq!(prog.waterline, ceiling, "{name} w{waterline}");
        assert_eq!(
            prog.func,
            compile_hecate(&bench.func, ceiling).func,
            "{name} w{waterline}"
        );
        let report = audit_encrypted(
            &prog,
            &bench.inputs,
            &backend(512),
            &audit,
            &CostModel::default(),
        )
        .unwrap_or_else(|e| panic!("{name} w{waterline}: audited run failed: {e}"));
        let violations = report.violations(&audit);
        assert!(
            violations.is_empty(),
            "{name} w{waterline}: {}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

/// HECATE at degree 512, the scheme and degree of `serve-mixed`.
fn compile_hecate(func: &Function, waterline: f64) -> CompiledProgram {
    let mut opts = CompileOptions::with_waterline(waterline);
    opts.degree = Some(512);
    compile(func, Scheme::Hecate, &opts)
        .unwrap_or_else(|e| panic!("{} w{waterline}: compile failed: {e}", func.name))
}

/// `serve-mixed`'s three programs, Small shapes, with data seed `seed`.
fn mixed_programs(seed: u64) -> [Benchmark; 3] {
    let mk = |name: &str, (func, inputs)| Benchmark {
        name: name.into(),
        func,
        inputs,
    };
    let (h, w) = (16, 16);
    [
        mk("SF", sobel::build(&sobel::SobelConfig { h, w, seed })),
        mk("HCD", harris::build(&harris::HarrisConfig { h, w, seed })),
        mk(
            "LR E2",
            regression::build_linear(&regression::RegressionConfig::small(2, seed)),
        ),
    ]
}

/// Every whole-bit waterline `serve-mixed`'s cold requests compile at
/// (the ceilings of 22.00–31.99), encrypted: SF, HCD and LR E2 at degree
/// 512 with data seed 1 + (w mod 4), each output within the paper's 2⁻⁸
/// RMS bound. With the fractional points below compiling to these very
/// plans, all three programs could be sent cold, not HCD alone.
#[test]
fn serve_mixed_programs_are_within_the_bound_on_every_whole_bit_waterline() {
    for w in 22..=32u32 {
        for b in mixed_programs(1 + u64::from(w % 4)) {
            let prog = compile_hecate(&b.func, f64::from(w));
            let run = execute_encrypted(&prog, &b.inputs, &backend(512))
                .unwrap_or_else(|e| panic!("{} w{w}: run failed: {e}", b.name));
            for (out, want) in interpret(&b.func, &b.inputs).unwrap() {
                let rms = rms_error(&run.outputs[&out], &want);
                assert!(rms < 2f64.powi(-8), "{} w{w} {out}: rms {rms:.3e}", b.name);
            }
        }
    }
}

/// A pass left reading the raw waterline would split a fractional request
/// from its ceiling: 52 fractional points of the 22.00–31.99 grid, spread
/// over SF, HCD and LR E2, each compile to exactly the plan (function,
/// types, config, parameters, estimates) of their ceiling.
#[test]
fn fractional_grid_points_compile_to_the_plan_of_their_ceiling() {
    let programs = mixed_programs(1);
    let mut ceiling_plans = HashMap::new();
    let points = (2200..3200u32).step_by(19).filter(|c| c % 100 != 0);
    for (i, centibits) in points.enumerate() {
        let b = &programs[i % programs.len()];
        let (w, ceiling) = (f64::from(centibits) / 100.0, centibits.div_ceil(100));
        let want = ceiling_plans
            .entry((i % programs.len(), ceiling))
            .or_insert_with(|| serialize_plan(&compile_hecate(&b.func, f64::from(ceiling))));
        assert_eq!(
            &serialize_plan(&compile_hecate(&b.func, w)),
            want,
            "{} w{w} vs w{ceiling}",
            b.name
        );
    }
}
