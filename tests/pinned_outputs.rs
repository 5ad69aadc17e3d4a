//! Pinned encrypted outputs: the `f64::to_bits` of every decrypted output,
//! hashed, at the default `BackendOptions::seed` and degree 2048. Key
//! generation, encryption and every kernel are deterministic, so a kernel
//! change that claims bit-identity (a transform moved between domains, a
//! lazier reduction) must leave these constants as they are. A change
//! that means to move the outputs updates them and says why.

use hecate::apps::{benchmark, Preset};
use hecate::backend::exec::{execute_sequential, BackendOptions, ExecEngine};
use hecate::compiler::{compile, CompileOptions, Scheme};
use hecate::ir::parse::parse_function;
use std::collections::HashMap;
use std::sync::Arc;

const DEGREE: usize = 2048;

/// FNV-1a over the outputs in name order: each name, then the bits of
/// each of its values.
fn output_hash(outputs: &HashMap<String, Vec<f64>>) -> u64 {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let bytes = names.into_iter().flat_map(|name| {
        let values = outputs[name].iter().flat_map(|v| v.to_bits().to_le_bytes());
        name.bytes().chain(values)
    });
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Compiles `func` under `scheme` at waterline 24 and degree 2048, runs it
/// once on `inputs`, and hashes the decrypted outputs.
fn run_hash(
    func: &hecate::ir::Function,
    scheme: Scheme,
    inputs: &HashMap<String, Vec<f64>>,
) -> u64 {
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(DEGREE);
    let prog = compile(func, scheme, &opts).unwrap_or_else(|e| panic!("{scheme}: {e}"));
    let backend = BackendOptions {
        degree_override: Some(DEGREE),
        ..BackendOptions::default()
    };
    let engine = ExecEngine::new(Arc::new(prog), &backend).expect("engine builds");
    let run = execute_sequential(&engine, inputs).unwrap_or_else(|e| panic!("{scheme}: {e}"));
    output_hash(&run.outputs)
}

#[test]
fn small_mlp_outputs_are_pinned() {
    let bench = benchmark("MLP", Preset::Small).expect("known benchmark");
    let got = run_hash(&bench.func, Scheme::Hecate, &bench.inputs);
    assert_eq!(got, 0x5bd1_bd3c_e130_6c9e, "MLP under hecate: {got:#018x}");
}

#[test]
fn poly_outputs_are_pinned_under_every_scheme() {
    let src = include_str!("../examples/ir/poly.heir");
    let func = parse_function(src).expect("poly.heir parses");
    let x: Vec<f64> = (0..func.vec_size).map(|i| (i as f64 - 3.5) / 4.0).collect();
    let inputs = HashMap::from([("x".to_string(), x)]);
    let pinned = [
        (Scheme::Eva, 0xe76c_d40d_7593_ddabu64),
        (Scheme::Pars, 0xe76c_d40d_7593_ddab),
        (Scheme::Smse, 0xd593_66ed_ecb8_dad2),
        (Scheme::Hecate, 0xe013_ea90_3d16_0966),
    ];
    let got: Vec<(Scheme, String)> = Scheme::ALL
        .iter()
        .map(|&scheme| {
            (
                scheme,
                format!("{:#018x}", run_hash(&func, scheme, &inputs)),
            )
        })
        .collect();
    let want: Vec<(Scheme, String)> = pinned
        .iter()
        .map(|&(scheme, h)| (scheme, format!("{h:#018x}")))
        .collect();
    assert_eq!(got, want);
}
