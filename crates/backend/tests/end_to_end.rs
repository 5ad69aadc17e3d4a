//! End-to-end tests: compile → execute encrypted → compare against the
//! plaintext reference, across schemes and waterlines — and the one op
//! driver's contract: SSA order, bit-identical outputs at any kernel
//! thread count, the first failure ends the run, one shared decomposition
//! per rotation fan-out.

use hecate_apps::{all_benchmarks, Preset};
use hecate_backend::exec::{
    execute, execute_encrypted, execute_sequential, BackendOptions, CancelToken, ExecEngine,
    ExecError, GuardOptions, OpValue,
};
use hecate_backend::{max_rms_error, rms_error, simulate};
use hecate_ckks::encoder::EncodeError;
use hecate_compiler::{compile, CompileOptions, CompiledProgram, HoistRole, Lowering, Scheme};
use hecate_ir::interp::interpret;
use hecate_ir::{verify_plan, ConstData, Function, FunctionBuilder, Op, ValueId};
use hecate_telemetry::trace::{self, Event, EventKind};
use std::collections::HashMap;
use std::sync::Arc;

fn motivating(vec: usize) -> Function {
    let mut b = FunctionBuilder::new("motivating", vec);
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

fn inputs(vec: usize) -> HashMap<String, Vec<f64>> {
    let mut m = HashMap::new();
    m.insert(
        "x".to_string(),
        (0..vec).map(|i| 0.1 + (i % 5) as f64 * 0.2).collect(),
    );
    m.insert(
        "y".to_string(),
        (0..vec).map(|i| 0.8 - (i % 3) as f64 * 0.3).collect(),
    );
    m
}

fn opts(w: f64, degree: usize) -> CompileOptions {
    let mut o = CompileOptions::with_waterline(w);
    o.degree = Some(degree);
    o
}

#[test]
fn all_schemes_compute_the_same_function() {
    let vec = 16;
    let func = motivating(vec);
    let ins = inputs(vec);
    let reference = interpret(&func, &ins).unwrap();
    for scheme in Scheme::ALL {
        let prog = compile(&func, scheme, &opts(26.0, 256)).unwrap();
        let run = execute_encrypted(&prog, &ins, &BackendOptions::default()).unwrap();
        let err = rms_error(&run.outputs["out0"], &reference["out0"]);
        assert!(
            err < 2f64.powi(-8),
            "{scheme}: RMS error {err} exceeds 2^-8"
        );
        assert!(run.total_us > 0.0);
        assert_eq!(run.chain_len, prog.params.chain_len);
    }
}

#[test]
fn rotation_heavy_program_roundtrips() {
    let vec = 16;
    let mut b = FunctionBuilder::new("rot", vec);
    let x = b.input_cipher("x");
    let s = b.rotate_sum(x, 8);
    let c = b.splat(0.125);
    let avg = b.mul(s, c);
    b.output(avg);
    let func = b.finish();
    let mut ins = HashMap::new();
    ins.insert("x".to_string(), (0..vec).map(|i| i as f64 * 0.1).collect());
    let reference = interpret(&func, &ins).unwrap();
    let prog = compile(&func, Scheme::Hecate, &opts(25.0, 256)).unwrap();
    let run = execute_encrypted(&prog, &ins, &BackendOptions::default()).unwrap();
    let err = rms_error(&run.outputs["out0"], &reference["out0"]);
    assert!(err < 2f64.powi(-8), "RMS error {err}");
}

#[test]
fn replication_preserves_rotation_semantics() {
    // vec_size 8 on a 128-slot ring: windows must rotate independently.
    let vec = 8;
    let mut b = FunctionBuilder::new("rep", vec);
    let x = b.input_cipher("x");
    let r = b.rotate(x, 3);
    b.output(r);
    let func = b.finish();
    let mut ins = HashMap::new();
    ins.insert("x".to_string(), (0..vec).map(|i| i as f64).collect());
    let reference = interpret(&func, &ins).unwrap();
    let prog = compile(&func, Scheme::Eva, &opts(25.0, 256)).unwrap();
    let run = execute_encrypted(&prog, &ins, &BackendOptions::default()).unwrap();
    for k in 0..vec {
        assert!(
            (run.outputs["out0"][k] - reference["out0"][k]).abs() < 1e-2,
            "slot {k}: {} vs {}",
            run.outputs["out0"][k],
            reference["out0"][k]
        );
    }
}

#[test]
fn smaller_waterline_gives_larger_error() {
    let vec = 8;
    let func = motivating(vec);
    let ins = inputs(vec);
    let reference = interpret(&func, &ins).unwrap();
    let mut errors = Vec::new();
    for w in [18.0, 30.0] {
        let prog = compile(&func, Scheme::Eva, &opts(w, 256)).unwrap();
        let run = execute_encrypted(&prog, &ins, &BackendOptions::default()).unwrap();
        errors.push(rms_error(&run.outputs["out0"], &reference["out0"]));
    }
    assert!(
        errors[0] > errors[1],
        "error at waterline 18 ({}) should exceed waterline 30 ({})",
        errors[0],
        errors[1]
    );
}

#[test]
fn noise_simulation_tracks_encrypted_error() {
    let vec = 8;
    let func = motivating(vec);
    let ins = inputs(vec);
    let reference = interpret(&func, &ins).unwrap();
    let prog = compile(&func, Scheme::Hecate, &opts(24.0, 256)).unwrap();
    let run = execute_encrypted(&prog, &ins, &BackendOptions::default()).unwrap();
    let measured = rms_error(&run.outputs["out0"], &reference["out0"]);
    let sim = simulate(&prog, &ins, 256);
    let estimated = max_rms_error(&sim);
    // The simulator's outputs are the exact reference.
    assert_eq!(sim.outputs["out0"], reference["out0"]);
    // Order-of-magnitude agreement is all the sweep filter needs.
    assert!(
        estimated > measured / 300.0 && estimated < measured * 300.0 + 1e-12,
        "estimated {estimated} vs measured {measured}"
    );
}

#[test]
fn deep_chain_and_peak_live_reporting() {
    let vec = 8;
    let mut b = FunctionBuilder::new("deep", vec);
    let x = b.input_cipher("x");
    let mut cur = x;
    for _ in 0..4 {
        cur = b.square(cur);
    }
    b.output(cur);
    let func = b.finish();
    let mut ins = HashMap::new();
    ins.insert("x".to_string(), vec![1.05; vec]);
    let reference = interpret(&func, &ins).unwrap();
    let prog = compile(&func, Scheme::Pars, &opts(24.0, 256)).unwrap();
    let run = execute_encrypted(&prog, &ins, &BackendOptions::default()).unwrap();
    let err = rms_error(&run.outputs["out0"], &reference["out0"]);
    assert!(err < 2f64.powi(-6), "deep chain error {err}");
    assert!(run.peak_live >= 1 && run.peak_live < 8);
}

#[test]
fn missing_input_is_reported() {
    let func = motivating(8);
    let prog = compile(&func, Scheme::Eva, &opts(25.0, 256)).unwrap();
    let err = execute_encrypted(&prog, &HashMap::new(), &BackendOptions::default());
    assert!(matches!(err, Err(ExecError::MissingInput { .. })));
    // Inputs are encrypted before any op runs, so a partly bound run
    // fails the same way.
    let engine = ExecEngine::new(Arc::new(prog), &BackendOptions::default()).unwrap();
    let mut partial = inputs(8);
    partial.remove("y");
    let err = execute(&engine, &[&partial], None, None).unwrap_err();
    assert!(matches!(err, ExecError::MissingInput { .. }));
}

#[test]
fn an_input_the_modulus_cannot_hold_is_an_encode_error() {
    // `x + x` at waterline 24 runs on one 46-bit prime. x = 2^26 at scale
    // 2^24 is a 2^50 coefficient, past q0/2: encoding it would wrap.
    let mut b = FunctionBuilder::new("double", 8);
    let x = b.input_cipher("x");
    let y = b.add(x, x);
    b.output(y);
    let prog = compile(&b.finish(), Scheme::Hecate, &opts(24.0, 512)).unwrap();
    assert_eq!((prog.params.chain_len, prog.params.q0_bits), (1, 46));
    let ins = HashMap::from([("x".to_string(), vec![2f64.powi(26); 8])]);
    let err = execute_encrypted(&prog, &ins, &BackendOptions::default()).map(|r| r.outputs);
    assert!(
        matches!(
            err,
            Err(ExecError::Encode(EncodeError::ScaleOverflow { .. }))
        ),
        "{err:?}"
    );
}

/// `base`'s parameters under a plan no compiler scheme emits: a constant
/// encoded at 2^20, a plaintext `upscale` to `target_bits`, and `combine`
/// of the cipher input `x` with the result. The plan passes the verifier
/// against the parameters it runs on.
fn plain_upscale_plan(
    base: &CompiledProgram,
    target_bits: f64,
    combine: fn(ValueId, ValueId) -> Op,
) -> CompiledProgram {
    let mut f = Function::new("plain-upscale", base.func.vec_size);
    let x = f.push(Op::Input { name: "x".into() });
    let c = f.push(Op::Const {
        data: ConstData::vector(vec![0.25, -0.5, 0.75, 1.0]),
    });
    let e = f.push(Op::Encode {
        value: c,
        scale_bits: 20.0,
        level: 0,
    });
    let u = f.push(Op::Upscale {
        value: e,
        target_bits,
    });
    let y = f.push(combine(x, u));
    f.mark_output("out0", y);
    let mut prog = base.clone();
    prog.types = verify_plan(&f, &base.params.type_config(base.waterline), "hand-built").unwrap();
    prog.func = f;
    prog
}

#[test]
fn plaintext_upscale_multiplies_its_operand() {
    let base = compile(&motivating(8), Scheme::Hecate, &opts(30.0, 512)).unwrap();
    let ins = HashMap::from([(
        "x".to_string(),
        vec![0.5, -0.25, 0.125, 1.0, 0.0, 0.75, -1.0, 0.3],
    )]);

    // δ = 10: encode at 2^20, upscale to the waterline, add to x.
    let prog = plain_upscale_plan(&base, 30.0, Op::Add);
    let want = interpret(&prog.func, &ins).unwrap();
    let engine = ExecEngine::new(Arc::new(prog), &BackendOptions::default()).unwrap();
    let solo = execute_sequential(&engine, &ins).unwrap();
    for (j, (got, want)) in solo.outputs["out0"].iter().zip(&want["out0"]).enumerate() {
        assert!(
            (got - want).abs() < 2f64.powi(-8),
            "slot {j}: {got} vs {want}"
        );
    }
    assert!(solo.op_us[3] > 0.0, "the plaintext upscale is timed");

    // δ = 64: a verified plan whose multiplier does not fit a u64 is a
    // typed error, not a wrapped multiplier or a panic.
    let prog = plain_upscale_plan(&base, 84.0, Op::Mul);
    let engine = ExecEngine::new(Arc::new(prog), &BackendOptions::default()).unwrap();
    let err = execute_sequential(&engine, &ins).unwrap_err();
    assert!(
        matches!(err, ExecError::Encode(EncodeError::ScaleOverflow { .. })),
        "{err}"
    );
}

/// What an observer saw of one op: index, cipher or not, predicted RMS bits.
type Seen = (usize, bool, u64);

/// What an observed run of `engine` saw, op by op, and its result.
fn observed_run(
    engine: &ExecEngine,
    ins: &HashMap<String, Vec<f64>>,
) -> (hecate_backend::EncryptedRun, Vec<Seen>) {
    let mut seen: Vec<Seen> = Vec::new();
    let mut observer = |i: usize, value: &OpValue, rms: f64| {
        seen.push((i, value.is_cipher(), rms.to_bits()));
        Ok(())
    };
    let run = execute(engine, &[ins], Some(&mut observer), None)
        .unwrap()
        .pop()
        .unwrap();
    (run, seen)
}

#[test]
fn ops_run_in_ssa_order_and_observing_changes_no_bits() {
    let func = motivating(8);
    let ins = inputs(8);
    let prog = Arc::new(compile(&func, Scheme::Hecate, &opts(24.0, 256)).unwrap());
    let engine = ExecEngine::new(prog.clone(), &BackendOptions::default()).unwrap();
    let n = prog.func.len();

    // The observer sees every op once, in SSA order; exactly the cipher
    // ops carry a (positive) predicted RMS.
    let (seen_run, seen) = observed_run(&engine, &ins);
    let order: Vec<usize> = seen.iter().map(|s| s.0).collect();
    assert_eq!(order, (0..n).collect::<Vec<_>>(), "SSA order");
    for &(i, is_cipher, rms_bits) in &seen {
        assert_eq!(is_cipher, prog.types[i].is_cipher());
        assert_eq!(
            is_cipher,
            f64::from_bits(rms_bits) > 0.0,
            "op {i}: exactly the cipher ops carry a prediction"
        );
    }
    assert!(seen_run.min_margin_bits.is_finite());

    // An unobserved run frees and computes exactly the same.
    let plain = execute_sequential(&engine, &ins).unwrap();
    assert_eq!(plain.peak_live, seen_run.peak_live);
    assert_eq!(plain.peak_bytes, seen_run.peak_bytes);
    assert_eq!(
        plain.min_margin_bits.to_bits(),
        seen_run.min_margin_bits.to_bits()
    );
    assert_eq!(plain.outputs, seen_run.outputs, "observing changes no bits");
}

/// Randomness lives only in key generation and input encryption, both of
/// which happen before the first op runs; every homomorphic kernel is
/// deterministic, and the limb stripes of `kernel_jobs` split only
/// independent RNS limbs. So an engine striping its kernels over 4
/// threads must agree with a one-thread engine *exactly* on every
/// benchmark workload (`perf_smoke` adds 2 threads on three of them).
#[test]
fn every_app_workload_is_bit_identical_at_any_worker_count() {
    let copts = opts(24.0, 512);
    let bopts = |kernel_jobs| BackendOptions {
        degree_override: Some(512),
        kernel_jobs,
        ..BackendOptions::default()
    };
    for bench in all_benchmarks(Preset::Small) {
        // SF also under the full HECATE scheme (downscales, not just
        // PARS's rescale placement).
        let schemes: &[Scheme] = if bench.name == "SF" {
            &[Scheme::Pars, Scheme::Hecate]
        } else {
            &[Scheme::Pars]
        };
        for &scheme in schemes {
            let prog = compile(&bench.func, scheme, &copts)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", bench.name));
            let prog = Arc::new(prog);
            let engine = ExecEngine::new(prog.clone(), &bopts(1)).unwrap();
            let seq = execute_sequential(&engine, &bench.inputs).unwrap();
            let striped = ExecEngine::new(prog, &bopts(4)).unwrap();
            let par = execute_sequential(&striped, &bench.inputs).unwrap();
            assert_eq!(
                par.outputs, seq.outputs,
                "{} ({scheme}) diverged at kernel_jobs=4",
                bench.name
            );
        }
    }
}

#[test]
fn cancelled_token_aborts_between_ops() {
    let prog = compile(&motivating(8), Scheme::Hecate, &opts(24.0, 256)).unwrap();
    let engine = ExecEngine::new(Arc::new(prog), &BackendOptions::default()).unwrap();
    let ins = inputs(8);
    let token = CancelToken::new();
    token.cancel();
    let err = execute(&engine, &[&ins], None, Some(&token)).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled { at: 0 }), "{err}");
    // An expired deadline trips the same path without an explicit
    // cancel() call.
    let expired = CancelToken::with_deadline(std::time::Instant::now());
    let err = execute(&engine, &[&ins], None, Some(&expired)).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled { at: 0 }), "{err}");
    // A token tripped mid-run stops the run at the op that sees it.
    let mid = CancelToken::new();
    let mut observer = |i: usize, _: &OpValue, _: f64| {
        if i == 3 {
            mid.cancel();
        }
        Ok(())
    };
    let err = execute(&engine, &[&ins], Some(&mut observer), Some(&mid)).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled { at: 4 }), "{err}");
    // An untripped token changes nothing.
    let idle = CancelToken::new();
    let run = execute(&engine, &[&ins], None, Some(&idle)).unwrap();
    let clean = execute(&engine, &[&ins], None, None).unwrap();
    assert_eq!(run[0].outputs, clean[0].outputs);
}

#[test]
fn noise_budget_failure_is_a_typed_error_at_the_first_value() {
    let vec = 8;
    let mut b = FunctionBuilder::new("deep", vec);
    let x = b.input_cipher("x");
    let mut acc = x;
    for _ in 0..3 {
        acc = b.square(acc);
    }
    b.output(acc);
    let prog = compile(&b.finish(), Scheme::Hecate, &opts(18.0, 64)).unwrap();
    // An absurdly tight RMS budget: the first value already exceeds it.
    let bopts = BackendOptions {
        guard: GuardOptions {
            max_rms: Some(1e-12),
            ..GuardOptions::default()
        },
        ..BackendOptions::default()
    };
    let engine = ExecEngine::new(Arc::new(prog), &bopts).unwrap();
    let mut ins = HashMap::new();
    ins.insert("x".to_string(), vec![1.05; vec]);
    let err = execute(&engine, &[&ins], None, None).unwrap_err();
    assert!(
        matches!(err, ExecError::BudgetExhausted { at: 0, .. }),
        "{err}"
    );
}

/// The string attribute `key` of a trace event.
fn str_attr<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    event
        .attrs
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.as_str())
}

/// `sum_{s=1..=8} rot(x*x, s)`: one value rotated by eight distinct
/// steps, one hoist group. The group leader decomposes the value once,
/// inside its own `exec-op` span, and all eight rotations reuse that
/// decomposition — an identity of the trace, not a timing.
#[test]
fn rotation_fan_out_decomposes_once() {
    let width = 64;
    let mut b = FunctionBuilder::new("rotfan", width);
    let x = b.input_cipher("x");
    let x2 = b.mul(x, x);
    let mut acc = x2;
    for step in 1..=8 {
        let r = b.rotate(x2, step);
        acc = b.add(acc, r);
    }
    b.output(acc);
    let prog = compile(&b.finish(), Scheme::Pars, &opts(24.0, 512)).unwrap();
    let engine = ExecEngine::new(Arc::new(prog), &BackendOptions::default()).unwrap();
    let prog = engine.prog();
    let slots = engine.degree() / 2;
    let lowering = Lowering::new(&prog.func, &prog.types, engine.chain_len(), slots, 1);
    let leader = lowering
        .ops()
        .iter()
        .position(|op| matches!(op.rotation, Some((_, HoistRole::Leader))))
        .expect("the fan-out is one hoist group");
    let mut ins = HashMap::new();
    ins.insert(
        "x".to_string(),
        (0..width).map(|i| i as f64 * 0.01 - 0.3).collect(),
    );
    let int_attr = |e: &Event, key: &str| {
        e.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_i64())
    };
    let req: u64 = 0xF00D_0001;
    let (run, events) = trace::capture(|| {
        let _ctx = trace::push_context(req, 0);
        execute(&engine, &[&ins], None, None)
    });
    run.unwrap();
    // Tests running alongside record too: keep the events carrying this
    // run's id. The span each `hoist-decompose` opens inside is the top
    // of the stack of open spans.
    let mut open: Vec<&Event> = Vec::new();
    let mut hoists = Vec::new();
    let mut rotates = 0;
    for e in events
        .iter()
        .filter(|e| int_attr(e, "req_id") == Some(req as i64))
    {
        match e.kind {
            EventKind::Begin => {
                if e.name == "hoist-decompose" {
                    hoists.push(open.last().copied());
                }
                if e.name == "exec-op" && str_attr(e, "op") == Some("rotate") {
                    rotates += 1;
                }
                open.push(e);
            }
            EventKind::End => {
                open.pop();
            }
            _ => {}
        }
    }
    assert_eq!(hoists.len(), 1, "one decomposition per group");
    let outer = hoists[0].expect("the decomposition runs inside an op");
    assert_eq!(outer.name, "exec-op");
    assert_eq!(int_attr(outer, "i"), Some(leader as i64));
    assert_eq!(str_attr(outer, "cost_op"), Some("rotate"));
    assert_eq!(rotates, 8);
}
