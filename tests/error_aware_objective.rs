//! Tests of the static noise estimator: the one noise estimate each
//! compiled plan carries (`CompileStats::estimated_noise_bits`).

use hecate::apps::{benchmark, Preset};
use hecate::backend::exec::{execute_encrypted, BackendOptions};
use hecate::backend::rms_error;
use hecate::compiler::estimator::estimate_noise_bits;
use hecate::compiler::{compile, CompileOptions, Scheme};
use hecate::ir::interp::interpret;
use hecate::ir::FunctionBuilder;

fn opts(w: f64) -> CompileOptions {
    let mut o = CompileOptions::with_waterline(w);
    o.degree = Some(512);
    o
}

#[test]
fn noise_estimate_improves_with_waterline() {
    // Higher scales → lower relative noise: the static estimate must be
    // monotone in the waterline.
    let bench = benchmark("SF", Preset::Small).unwrap();
    let mut prev: Option<f64> = None;
    for w in [18.0, 24.0, 30.0, 36.0] {
        let prog = compile(&bench.func, Scheme::Eva, &opts(w)).unwrap();
        let nb = prog.stats.estimated_noise_bits;
        if let Some(p) = prev {
            assert!(nb < p, "noise bits at w={w}: {nb} vs previous {p}");
        }
        prev = Some(nb);
    }
}

#[test]
fn noise_estimate_tracks_measured_error() {
    // The static estimate must land within a few bits of the measured RMS
    // error.
    let bench = benchmark("SF", Preset::Small).unwrap();
    let prog = compile(&bench.func, Scheme::Hecate, &opts(26.0)).unwrap();
    let run = execute_encrypted(&prog, &bench.inputs, &BackendOptions::default()).unwrap();
    let reference = interpret(&bench.func, &bench.inputs).unwrap();
    let measured = rms_error(&run.outputs["edges"], &reference["edges"]);
    let estimated_bits = prog.stats.estimated_noise_bits;
    let measured_bits = measured.log2();
    assert!(
        (estimated_bits - measured_bits).abs() < 8.0,
        "estimated 2^{estimated_bits:.1} vs measured 2^{measured_bits:.1}"
    );
}

#[test]
fn direct_noise_estimator_on_known_structures() {
    // A single fresh input: noise is the fresh-encryption floor.
    let mut b = FunctionBuilder::new("one", 8);
    let x = b.input_cipher("x");
    b.output(x);
    let f = b.finish();
    let cfg = hecate::ir::types::TypeConfig::new(30.0, 60.0);
    let tys = hecate::ir::types::infer_types(&f, &cfg).unwrap();
    let nb = estimate_noise_bits(&f, &tys, 512);
    // fresh = 0.5·log2(2·512·10.5 + 512/12) − 30: RLWE noise plus the
    // encoding's rounding. The estimator used to omit the N/12 term the
    // simulator and the engine's prediction add (≈0.003 bit); since all three step
    // one rule (`hecate_compiler::noise`), the complete term is pinned.
    let fresh = 0.5 * (2.0 * 512.0 * 10.5f64 + 512.0 / 12.0).log2() - 30.0;
    assert!((nb - fresh).abs() < 1e-9);

    // Adding two equal-noise values raises noise by exactly half a bit.
    let mut b2 = FunctionBuilder::new("two", 8);
    let x = b2.input_cipher("x");
    let y = b2.input_cipher("y");
    let s = b2.add(x, y);
    b2.output(s);
    let f2 = b2.finish();
    let tys2 = hecate::ir::types::infer_types(&f2, &cfg).unwrap();
    let nb2 = estimate_noise_bits(&f2, &tys2, 512);
    assert!((nb2 - (nb + 0.5)).abs() < 1e-9);
}
