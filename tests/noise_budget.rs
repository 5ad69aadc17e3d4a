//! The noise budget is a fact of the plan: `ExecEngine::new` judges
//! `GuardOptions::max_rms` against the engine's one noise prediction
//! (`predict_rms`) and refuses a plan over it before key generation, so a
//! refused plan never runs. For every cipher op k of each case, a bound
//! just below op k's prediction is refused at the first op whose
//! prediction exceeds it, with that op's deficit; a bound at the plan's
//! largest prediction builds and runs.

use hecate::apps::{benchmark, Preset};
use hecate::backend::exec::{
    execute_sequential, BackendOptions, ExecEngine, ExecError, GuardOptions,
};
use hecate::backend::noise::predict_rms;
use hecate::compiler::{compile, CompileOptions, Scheme};
use hecate::ir::parse::parse_function;
use hecate::ir::Function;
use std::collections::HashMap;
use std::sync::Arc;

const DEGREE: usize = 2048;

fn backend(max_rms: f64) -> BackendOptions {
    BackendOptions {
        degree_override: Some(DEGREE),
        guard: GuardOptions {
            max_rms: Some(max_rms),
            ..GuardOptions::default()
        },
        ..BackendOptions::default()
    }
}

/// Checks the verdict of every cipher op's bound on `func` under
/// `scheme`, then builds and runs it at the largest prediction.
fn check_verdicts(
    label: &str,
    func: &Function,
    scheme: Scheme,
    inputs: &HashMap<String, Vec<f64>>,
) {
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(DEGREE);
    let prog = Arc::new(compile(func, scheme, &opts).unwrap_or_else(|e| panic!("{label}: {e}")));
    let rms = predict_rms(&prog, DEGREE, 1, None);
    let cipher: Vec<usize> = (0..rms.len())
        .filter(|&k| prog.types[k].is_cipher())
        .collect();
    assert!(!cipher.is_empty(), "{label}: no cipher op");
    for k in cipher {
        let bound = rms[k].next_down();
        let first = rms.iter().position(|&r| r > bound).expect("op k exceeds");
        match ExecEngine::new(prog.clone(), &backend(bound)) {
            Err(ExecError::BudgetExhausted { at, deficit }) => {
                assert_eq!(at, first, "{label} op {k}: first op over the bound");
                let want = (rms[first] / bound).log2();
                assert_eq!(deficit.to_bits(), want.to_bits(), "{label} op {k}");
            }
            Err(e) => panic!("{label} op {k}: expected BudgetExhausted, got {e}"),
            Ok(_) => panic!("{label} op {k}: a bound below op {k}'s prediction built"),
        }
    }

    let max = rms.iter().copied().fold(0.0, f64::max);
    let engine = ExecEngine::new(prog.clone(), &backend(max))
        .unwrap_or_else(|e| panic!("{label}: a bound at the largest prediction: {e}"));
    execute_sequential(&engine, inputs).unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn budget_verdict_is_taken_at_engine_build() {
    let src = include_str!("../examples/ir/poly.heir");
    let func = parse_function(src).expect("poly.heir parses");
    let x: Vec<f64> = (0..func.vec_size).map(|i| (i as f64 - 3.5) / 4.0).collect();
    let inputs = HashMap::from([("x".to_string(), x)]);
    for scheme in Scheme::ALL {
        check_verdicts(&format!("poly.heir/{scheme}"), &func, scheme, &inputs);
    }
    let bench = benchmark("SF", Preset::Small).expect("known benchmark");
    check_verdicts("SF", &bench.func, Scheme::Hecate, &bench.inputs);
}
