//! Compiler edge cases: degenerate programs, extreme options, and
//! graceful failure modes.

use hecate_compiler::{compile, CompileError, CompileOptions, Scheme};
use hecate_ir::{ConstData, Function, FunctionBuilder, Op};

fn opts(w: f64) -> CompileOptions {
    let mut o = CompileOptions::with_waterline(w);
    o.degree = Some(256);
    o
}

#[test]
fn identity_program_compiles() {
    let mut b = FunctionBuilder::new("id", 8);
    let x = b.input_cipher("x");
    b.output(x);
    let func = b.finish();
    for scheme in Scheme::ALL {
        let prog = compile(&func, scheme, &opts(24.0)).unwrap();
        assert_eq!(prog.params.max_level, 0, "{scheme}");
        assert_eq!(prog.params.chain_len, 1);
    }
}

#[test]
fn mul_free_rotation_only_program() {
    let mut b = FunctionBuilder::new("rot", 16);
    let x = b.input_cipher("x");
    let r1 = b.rotate(x, 1);
    let r2 = b.rotate(r1, 4);
    let s = b.add(r2, x);
    b.output(s);
    let func = b.finish();
    let prog = compile(&func, Scheme::Hecate, &opts(24.0)).unwrap();
    // No multiplications → nothing to rescale → single-prime chain.
    assert_eq!(prog.params.chain_len, 1);
    assert_eq!(prog.stats.op_counts.get("rescale"), None);
}

#[test]
fn very_high_waterline_still_compiles() {
    let mut b = FunctionBuilder::new("hw", 8);
    let x = b.input_cipher("x");
    let m = b.square(x);
    b.output(m);
    let func = b.finish();
    let prog = compile(&func, Scheme::Eva, &opts(50.0)).unwrap();
    // 100-bit product at level 0 needs a long chain but must succeed.
    assert!(prog.params.total_bits >= 100);
}

#[test]
fn minimum_waterline_boundary() {
    let mut b = FunctionBuilder::new("lw", 8);
    let x = b.input_cipher("x");
    let m = b.square(x);
    b.output(m);
    let func = b.finish();
    // Very low waterlines are legal (error filtering happens downstream).
    let prog = compile(&func, Scheme::Hecate, &opts(10.0)).unwrap();
    assert!(prog.stats.estimated_latency_us > 0.0);
}

#[test]
fn shared_subexpression_gets_single_scale_management() {
    // z used by three consumers: the memoized codegen must insert one
    // rescale chain, not three.
    let mut b = FunctionBuilder::new("share", 8);
    let x = b.input_cipher("x");
    let z = b.square(x);
    let z2 = b.square(z);
    let a = b.mul(z2, z);
    let c = b.mul(z2, a);
    b.output(c);
    let func = b.finish();
    let prog = compile(&func, Scheme::Pars, &opts(24.0)).unwrap();
    let rescales = prog.stats.op_counts.get("rescale").copied().unwrap_or(0);
    // z² (48 bits) and deeper values rescale, but shared values share.
    assert!(
        rescales <= 4,
        "got {rescales} rescales:\n{:?}",
        prog.stats.op_counts
    );
}

#[test]
fn output_directly_on_constant_is_rejected_cleanly() {
    // A function whose only output is a constant is not an FHE program.
    // The per-pass verifier now rejects the free output before parameter
    // selection ever runs (this used to surface later as NoParameters).
    let mut f = Function::new("c", 4);
    let c = f.push(Op::Const {
        data: ConstData::splat(1.0),
    });
    f.mark_output("o", c);
    let err = compile(&f, Scheme::Eva, &opts(24.0));
    match err {
        Err(CompileError::Verify(v)) => {
            assert_eq!(v.invariant, hecate_ir::verify::Invariant::OutputKind)
        }
        other => panic!("expected a verification error, got {other:?}"),
    }
}

#[test]
fn max_chain_guard_reports_oversized_programs() {
    let mut b = FunctionBuilder::new("deep", 8);
    let x = b.input_cipher("x");
    let mut cur = x;
    for _ in 0..7 {
        cur = b.square(cur); // 2^7-fold scale growth
    }
    b.output(cur);
    let func = b.finish();
    let mut o = opts(40.0);
    o.max_chain_len = 3;
    assert!(matches!(
        compile(&func, Scheme::Eva, &o),
        Err(CompileError::NoParameters { .. })
    ));
}

#[test]
fn duplicate_input_names_reference_the_same_ciphertext() {
    // Canonicalization merges same-named inputs; semantics must hold.
    let mut f = Function::new("dup", 8);
    let x1 = f.push(Op::Input { name: "x".into() });
    let x2 = f.push(Op::Input { name: "x".into() });
    let m = f.push(Op::Mul(x1, x2)); // effectively x²
    f.mark_output("o", m);
    let prog = compile(&f, Scheme::Eva, &opts(24.0)).unwrap();
    let inputs_left = prog.stats.op_counts.get("input").copied().unwrap_or(0);
    assert_eq!(inputs_left, 1, "CSE merges same-named inputs");
}

#[test]
fn stats_reflect_smaller_canonicalized_program() {
    let mut b = FunctionBuilder::new("c", 8);
    let x = b.input_cipher("x");
    let r1 = b.rotate(x, 2);
    let r2 = b.rotate(x, 2); // duplicate
    let s = b.add(r1, r2);
    b.output(s);
    let func = b.finish();
    let prog = compile(&func, Scheme::Eva, &opts(24.0)).unwrap();
    assert_eq!(prog.stats.op_counts.get("rotate").copied(), Some(1));
}
