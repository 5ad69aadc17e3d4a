//! Graceful-degradation tests: the fallback driver descends the ladder
//! when a rung is sabotaged, and records where it landed.

use hecate_compiler::{
    compile, compile_with_fallback, CompileError, CompileFault, CompileFaultKind, CompileOptions,
    FallbackRung, Scheme,
};
use hecate_ir::{Function, FunctionBuilder};

/// The paper's motivating example, (x² + y²)³.
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
fn healthy_compile_reports_primary_rung() {
    let prog = compile_with_fallback(&motivating(), Scheme::Hecate, &opts(20.0)).unwrap();
    assert_eq!(prog.stats.fallback, Some(FallbackRung::Primary));
    assert_eq!(prog.stats.fallback_attempts, 0);
    assert_eq!(prog.scheme, Scheme::Hecate);
}

#[test]
fn sabotaged_hecate_rung_falls_back_to_pars() {
    // Sabotage only the HECATE rung: every plan it produces loses a
    // scale-management step, which the per-pass verifier rejects. The
    // PARS rung is untouched and must recover the program.
    let mut o = opts(20.0);
    o.fault = Some(CompileFault {
        scheme: Some(Scheme::Hecate),
        kind: CompileFaultKind::ForwardReference,
    });
    let direct = compile(&motivating(), Scheme::Hecate, &o);
    assert!(
        matches!(direct, Err(CompileError::Verify(_))),
        "sabotage must be caught, got {direct:?}"
    );

    let prog = compile_with_fallback(&motivating(), Scheme::Hecate, &o).unwrap();
    assert_eq!(prog.stats.fallback, Some(FallbackRung::Pars));
    assert_eq!(prog.stats.fallback_attempts, 1);
    assert_eq!(prog.scheme, Scheme::Pars);
    // The recovered program is a real compile: verified types and params.
    hecate_ir::verify::verify_plan(
        &prog.func,
        &prog.params.type_config(prog.waterline),
        "recovered",
    )
    .unwrap();
    assert!(prog.params.chain_len >= 1);
}

#[test]
fn sabotage_of_every_rung_reports_the_primary_error() {
    // An unrestricted structural fault corrupts every rung's plan; the
    // ladder runs dry and the primary scheme's diagnosis comes back.
    let mut o = opts(20.0);
    o.fault = Some(CompileFault {
        scheme: None,
        kind: CompileFaultKind::ForwardReference,
    });
    let all = compile_with_fallback(&motivating(), Scheme::Hecate, &o);
    assert!(matches!(all, Err(CompileError::Verify(_))), "{all:?}");
}

#[test]
fn sabotaged_pars_falls_back_to_eva() {
    let mut o = opts(20.0);
    o.fault = Some(CompileFault {
        scheme: Some(Scheme::Pars),
        kind: CompileFaultKind::ForwardReference,
    });
    let prog = compile_with_fallback(&motivating(), Scheme::Pars, &o).unwrap();
    assert_eq!(prog.stats.fallback, Some(FallbackRung::Eva));
    assert_eq!(prog.scheme, Scheme::Eva);
    assert_eq!(prog.stats.fallback_attempts, 1);
}

#[test]
fn dropped_rescale_is_reported_with_pass_and_invariant() {
    // At waterline 26 EVA's reactive policy emits a real rescale
    // (52-bit products cross the 86-bit threshold after squaring).
    // Dropping it leaves scales that no longer fit the selected chain.
    let mut o = opts(26.0);
    o.fault = Some(CompileFault {
        scheme: Some(Scheme::Eva),
        kind: CompileFaultKind::DropRescale { nth: 0 },
    });
    match compile(&motivating(), Scheme::Eva, &o) {
        Err(CompileError::Verify(v)) => {
            assert_eq!(v.pass, "final-plan");
            assert!(v.at.is_some(), "error names the offending op: {v}");
        }
        other => panic!("expected a verification error, got {other:?}"),
    }
}
