//! Targeted backend tests: key requirements, parameter construction,
//! memory accounting, and the noise simulator's trends.

use hecate_backend::exec::{build_params, execute_encrypted, BackendOptions};
use hecate_backend::{max_rms_error, simulate};
use hecate_compiler::{compile, CompileOptions, CostOp, HoistRole, Lowering, Scheme};
use hecate_ir::types::{infer_types, TypeConfig};
use hecate_ir::FunctionBuilder;
use std::collections::HashMap;

fn opts(w: f64) -> CompileOptions {
    let mut o = CompileOptions::with_waterline(w);
    o.degree = Some(256);
    o
}

#[test]
fn key_requirements_cover_exactly_whats_used() {
    // One ct×ct mul at level 0 and rotations at two levels.
    let mut b = FunctionBuilder::new("k", 16);
    let x = b.input_cipher("x");
    let r = b.rotate(x, 3);
    let m = b.mul(x, r);
    let m2 = b.mul(m, m);
    let r2 = b.rotate(m2, 5);
    b.output(r2);
    let func = b.finish();
    let prog = compile(&func, Scheme::Eva, &opts(20.0)).unwrap();
    let params = build_params(
        &prog,
        &BackendOptions {
            degree_override: Some(256),
            seed: 1,
            ..BackendOptions::default()
        },
    )
    .unwrap();
    let lowering = Lowering::new(
        &prog.func,
        &prog.types,
        params.basis().chain_len(),
        params.slots(),
        1,
    );
    let (relin, rot) = lowering.key_requirements();
    assert!(!relin.is_empty(), "ct×ct multiplications need relin keys");
    let steps: Vec<usize> = rot.iter().map(|(s, _)| *s).collect();
    assert!(steps.contains(&3) && steps.contains(&5), "{steps:?}");
    // No spurious keys: only the two steps used.
    assert!(steps.iter().all(|s| *s == 3 || *s == 5));
}

#[test]
fn build_params_matches_compiled_chain() {
    let mut b = FunctionBuilder::new("p", 8);
    let x = b.input_cipher("x");
    let m = b.mul(x, x);
    let m2 = b.mul(m, m);
    b.output(m2);
    let func = b.finish();
    let prog = compile(&func, Scheme::Hecate, &opts(24.0)).unwrap();
    let bo = BackendOptions {
        degree_override: Some(512),
        seed: 2,
        ..BackendOptions::default()
    };
    let params = build_params(&prog, &bo).unwrap();
    assert_eq!(params.degree(), 512);
    assert_eq!(params.basis().chain_len(), prog.params.chain_len);
}

#[test]
fn peak_bytes_tracks_live_set() {
    // A wide fan-in keeps many ciphertexts alive; a chain keeps few.
    let wide = {
        let mut b = FunctionBuilder::new("wide", 8);
        let xs: Vec<_> = (0..8).map(|i| b.input_cipher(format!("x{i}"))).collect();
        let mut acc = xs[0];
        for &v in &xs[1..] {
            acc = b.add(acc, v);
        }
        b.output(acc);
        b.finish()
    };
    let chain = {
        let mut b = FunctionBuilder::new("chain", 8);
        let x = b.input_cipher("x0");
        let mut acc = x;
        for _ in 0..7 {
            acc = b.add(acc, acc);
        }
        b.output(acc);
        b.finish()
    };
    let mut inputs = HashMap::new();
    for i in 0..8 {
        inputs.insert(format!("x{i}"), vec![0.5; 8]);
    }
    let bo = BackendOptions {
        degree_override: Some(256),
        seed: 3,
        ..BackendOptions::default()
    };
    let o = opts(24.0);
    let run_wide =
        execute_encrypted(&compile(&wide, Scheme::Eva, &o).unwrap(), &inputs, &bo).unwrap();
    let run_chain =
        execute_encrypted(&compile(&chain, Scheme::Eva, &o).unwrap(), &inputs, &bo).unwrap();
    assert!(run_wide.peak_live > run_chain.peak_live);
    assert!(run_wide.peak_bytes > run_chain.peak_bytes);
    // Sanity: bytes ≈ live × 2 polys × prefix × degree × 8.
    assert!(run_wide.peak_bytes >= run_wide.peak_live * 2 * 256 * 8);
}

#[test]
fn noise_simulation_grows_with_depth() {
    let mut prev = 0.0;
    for depth in [1usize, 3, 5] {
        let mut b = FunctionBuilder::new("d", 8);
        let x = b.input_cipher("x");
        let mut acc = x;
        for _ in 0..depth {
            acc = b.square(acc);
        }
        b.output(acc);
        let func = b.finish();
        let mut o = CompileOptions::with_waterline(30.0);
        o.degree = Some(256);
        let prog = compile(&func, Scheme::Eva, &o).unwrap();
        // Keep the message at exactly 1.0 so repeated squaring leaves the
        // signal fixed and depth is the only variable (with a shrinking
        // message the error legitimately shrinks too).
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![1.0; 8]);
        let rmse = max_rms_error(&simulate(&prog, &inputs, 256));
        assert!(rmse > prev, "depth {depth}: {rmse} should exceed {prev}");
        prev = rmse;
    }
}

#[test]
fn overlong_input_is_a_typed_error() {
    let mut b = FunctionBuilder::new("long", 8);
    let x = b.input_cipher("x");
    let m = b.mul(x, x);
    b.output(m);
    let func = b.finish();
    let prog = compile(&func, Scheme::Eva, &opts(20.0)).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert("x".to_string(), vec![0.1; 9]); // width is 8
    let err = execute_encrypted(
        &prog,
        &inputs,
        &BackendOptions {
            degree_override: Some(256),
            seed: 4,
            ..BackendOptions::default()
        },
    );
    match err {
        Err(hecate_backend::ExecError::InputTooLong {
            name,
            len,
            vec_size,
        }) => {
            assert_eq!(name, "x");
            assert_eq!(len, 9);
            assert_eq!(vec_size, 8);
        }
        other => panic!("expected InputTooLong, got {other:?}"),
    }
}

/// A rotation-heavy function: `fan` distinct rotations of the same input,
/// summed. This is the shape hoisting accelerates.
fn rotation_fan_func(fan: usize) -> hecate_ir::Function {
    let mut b = FunctionBuilder::new("fan", 16);
    let x = b.input_cipher("x");
    let x2 = b.mul(x, x); // descend a level so rotations run mid-chain
    let mut acc = x2;
    for step in 1..=fan {
        let r = b.rotate(x2, step);
        acc = b.add(acc, r);
    }
    b.output(acc);
    b.finish()
}

#[test]
fn hoist_roles_group_nonzero_physical_steps() {
    // Lowered straight from the builder (no rotation canonicalization), so
    // the wrapped and identity steps survive to the lowering.
    let mut b = FunctionBuilder::new("f", 16);
    let x = b.input_cipher("x");
    let r1 = b.rotate(x, 3);
    let r2 = b.rotate(x, 5);
    let r3 = b.rotate(x, 3 + 16); // wraps to 3 on a 16-slot ring: no new key
    let r4 = b.rotate(x, 16); // identity on a 16-slot ring
    let s1 = b.add(r1, r2);
    let s2 = b.add(r3, r4);
    let s = b.add(s1, s2);
    b.output(s);
    let func = b.finish();
    let types = infer_types(&func, &TypeConfig::new(20.0, 60.0)).unwrap();
    let lowering = Lowering::new(&func, &types, 3, 16, 1);
    let op = |v: hecate_ir::ValueId| &lowering.ops()[v.index()];
    let follower = HoistRole::Follower { leader: r1.index() };
    assert_eq!(op(r1).rotation, Some((3, HoistRole::Leader)));
    assert_eq!(op(r2).rotation, Some((5, follower)));
    assert_eq!(op(r3).rotation, Some((3, follower)));
    assert_eq!(op(r1).cost_ops, [CostOp::Rotate]);
    assert_eq!(op(r2).cost_ops, [CostOp::RotateHoisted]);
    assert_eq!(op(r3).cost_ops, [CostOp::RotateHoisted]);
    // The identity runs as a copy: no cost op, no key.
    assert_eq!(op(r4).rotation, Some((0, HoistRole::Lone)));
    assert!(op(r4).cost_ops.is_empty());
    let (_, rot) = lowering.key_requirements();
    let steps: Vec<usize> = rot.iter().map(|&(s, _)| s).collect();
    assert_eq!(steps, [3, 5]);
}

/// The fan-out shares one hoisted decomposition across its rotations;
/// splitting the per-limb kernels over threads must not change a bit.
#[test]
fn rotation_fan_out_is_bit_identical_across_kernel_jobs() {
    let func = rotation_fan_func(4);
    let prog = compile(&func, Scheme::Eva, &opts(24.0)).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(
        "x".to_string(),
        (0..16).map(|i| (i as f64) * 0.05 - 0.3).collect(),
    );
    let base = BackendOptions {
        degree_override: Some(256),
        seed: 7,
        ..BackendOptions::default()
    };
    let reference = execute_encrypted(&prog, &inputs, &base).unwrap();
    for jobs in [2, 4] {
        let run = execute_encrypted(
            &prog,
            &inputs,
            &BackendOptions {
                kernel_jobs: jobs,
                ..base.clone()
            },
        )
        .unwrap();
        for (name, out) in &reference.outputs {
            let got = &run.outputs[name];
            assert_eq!(out.len(), got.len());
            for (a, b) in out.iter().zip(got) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "kernel_jobs={jobs}: outputs diverged"
                );
            }
        }
    }
}

#[test]
fn vector_width_must_fit_slots() {
    let mut b = FunctionBuilder::new("big", 1024);
    let x = b.input_cipher("x");
    let m = b.mul(x, x);
    b.output(m);
    let func = b.finish();
    let prog = compile(&func, Scheme::Eva, &opts(20.0)).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert("x".to_string(), vec![0.1; 1024]);
    // 256-degree ring has 128 slots < 1024.
    let err = execute_encrypted(
        &prog,
        &inputs,
        &BackendOptions {
            degree_override: Some(256),
            seed: 4,
            ..BackendOptions::default()
        },
    );
    assert!(matches!(
        err,
        Err(hecate_backend::ExecError::BadVectorWidth { .. })
    ));
}
