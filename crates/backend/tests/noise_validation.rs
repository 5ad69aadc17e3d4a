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

use hecate_apps::{all_benchmarks, Preset};
use hecate_backend::exec::BackendOptions;
use hecate_backend::{audit_encrypted, AuditOptions};
use hecate_compiler::{compile, CompileOptions, Scheme};

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
    prog.cfg.waterline += 64.0;
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
