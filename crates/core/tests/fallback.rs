//! Compiler sabotage tests: an injected [`CompileFault`] never ships as a
//! miscompiled program; the per-pass verifier turns it into a
//! [`CompileError::Verify`] naming the pass and the offending op.

use hecate_compiler::{compile, CompileError, CompileFault, CompileOptions, Scheme};
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
fn sabotage_under_every_scheme_is_a_verify_error() {
    // A structural fault corrupts the winning plan; the final verifier
    // refuses it under every scheme, so no miscompiled program ships.
    let mut o = opts(20.0);
    o.fault = Some(CompileFault::ForwardReference);
    for scheme in Scheme::ALL {
        let got = compile(&motivating(), scheme, &o);
        assert!(
            matches!(got, Err(CompileError::Verify(_))),
            "{scheme}: sabotage must be caught, got {got:?}"
        );
    }
}

#[test]
fn dropped_rescale_is_reported_with_pass_and_invariant() {
    // At waterline 26 EVA's reactive policy emits a real rescale
    // (52-bit products cross the 86-bit threshold after squaring).
    // Dropping it leaves scales that no longer fit the selected chain.
    let mut o = opts(26.0);
    o.fault = Some(CompileFault::DropRescale { nth: 0 });
    match compile(&motivating(), Scheme::Eva, &o) {
        Err(CompileError::Verify(v)) => {
            assert_eq!(v.pass, "final-plan");
            assert!(v.at.is_some(), "error names the offending op: {v}");
        }
        other => panic!("expected a verification error, got {other:?}"),
    }
}
