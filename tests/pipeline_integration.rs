//! Cross-crate integration tests: every benchmark, every scheme, compiled
//! and verified, and its plan file reloads to the same plan; the compiled
//! code preserves plaintext semantics; the paper's qualitative claims hold
//! in the estimates.

use hecate::apps::{all_benchmarks, Preset};
use hecate::compiler::{compile, deserialize_plan, serialize_plan, CompileOptions, Scheme};
use hecate::ir::interp::{interpret, rms_error};
use hecate::ir::types::infer_types;

fn opts(w: f64) -> CompileOptions {
    let mut o = CompileOptions::with_waterline(w);
    o.degree = Some(512);
    o
}

/// A plan file states the chain once and no types: reloading it derives
/// the same types and parameters (the security label included, from the
/// auto-selected degree) as the compile that saved it.
#[test]
fn every_benchmark_plan_round_trips_through_a_plan_file() {
    for bench in all_benchmarks(Preset::Small) {
        for scheme in Scheme::ALL {
            let prog = compile(&bench.func, scheme, &CompileOptions::with_waterline(26.0))
                .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", bench.name));
            let text = serialize_plan(&prog);
            let back = deserialize_plan(&text)
                .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", bench.name));
            assert_eq!(back.func, prog.func, "{} under {scheme}", bench.name);
            assert_eq!(back.types, prog.types, "{} under {scheme}", bench.name);
            assert_eq!(back.params, prog.params, "{} under {scheme}", bench.name);
            assert_eq!(
                back.waterline, prog.waterline,
                "{} under {scheme}",
                bench.name
            );
            assert_eq!(serialize_plan(&back), text, "{} under {scheme}", bench.name);
        }
    }
}

#[test]
fn every_benchmark_compiles_under_every_scheme() {
    for bench in all_benchmarks(Preset::Small) {
        for scheme in Scheme::ALL {
            let prog = compile(&bench.func, scheme, &opts(26.0))
                .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", bench.name));
            // The compiled program passes the full type checker.
            infer_types(&prog.func, &prog.params.type_config(prog.waterline))
                .unwrap_or_else(|e| panic!("{} under {scheme} ill-typed: {e}", bench.name));
            assert!(prog.params.chain_len >= 1);
            assert!(prog.stats.estimated_latency_us > 0.0);
        }
    }
}

#[test]
fn compiled_code_is_semantics_preserving() {
    // The homomorphism property (§IV-A): with opaque ops as identities,
    // compiled programs compute exactly the input program's function.
    for bench in all_benchmarks(Preset::Small) {
        let reference = interpret(&bench.func, &bench.inputs).unwrap();
        for scheme in [Scheme::Eva, Scheme::Hecate] {
            let prog = compile(&bench.func, scheme, &opts(24.0)).unwrap();
            let compiled_out = interpret(&prog.func, &bench.inputs).unwrap();
            for (name, expect) in &reference {
                let got = &compiled_out[name];
                let err = rms_error(got, expect);
                assert!(
                    err < 1e-9,
                    "{} under {scheme}, output {name}: drift {err}",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn hecate_estimate_never_worse_than_eva() {
    // SMSE only accepts improving plans, and PARS's plan is in HECATE's
    // search space, so the estimate must not regress.
    for bench in all_benchmarks(Preset::Small) {
        for w in [22.0, 30.0] {
            let o = opts(w);
            let eva = compile(&bench.func, Scheme::Eva, &o).unwrap();
            let smse = compile(&bench.func, Scheme::Smse, &o).unwrap();
            let hecate = compile(&bench.func, Scheme::Hecate, &o).unwrap();
            assert!(
                smse.stats.estimated_latency_us <= eva.stats.estimated_latency_us + 1e-6,
                "{} w={w}: SMSE {} > EVA {}",
                bench.name,
                smse.stats.estimated_latency_us,
                eva.stats.estimated_latency_us
            );
            let _ = hecate;
        }
    }
}

/// The compiler's rows for the eight Small programs under HECATE at w24
/// (security-selected degree) and for `exec-rot-wide`'s plan (MLP at
/// degree 2048): estimate, plans explored, epochs, SMUs, ops out and chain
/// length. A change that moves a plan updates this table and says so.
#[test]
fn hecate_rows_are_pinned() {
    // (name, degree, est µs, plans, epochs, SMUs, ops out, chain)
    let rows = [
        ("SF", None, 383320.0640000001, 14, 0, 12, 56, 3),
        ("HCD", None, 1255014.4000000001, 67, 2, 16, 132, 4),
        ("MLP", None, 880672.7680000014, 27, 1, 10, 414, 3),
        ("MLP", Some(2048), 192446.4640000001, 27, 1, 10, 414, 3),
        ("LeNet", None, 19876282.36799992, 69, 1, 25, 2469, 6),
        ("LR E2", None, 1870495.743999999, 106, 2, 29, 110, 4),
        ("LR E3", None, 3856793.6000000006, 386, 6, 43, 167, 6),
        ("PR E2", None, 3082092.5439999984, 291, 4, 46, 166, 5),
        ("PR E3", None, 13236568.06399998, 991, 10, 68, 251, 7),
    ];
    let benches = all_benchmarks(Preset::Small);
    for (name, degree, est_us, plans, epochs, smus, ops, chain) in rows {
        let bench = benches.iter().find(|b| b.name == name).unwrap();
        let mut o = CompileOptions::with_waterline(24.0);
        o.degree = degree;
        let prog = compile(&bench.func, Scheme::Hecate, &o).unwrap();
        let s = &prog.stats;
        assert_eq!(
            (
                s.estimated_latency_us,
                s.plans_explored,
                s.epochs,
                s.smu_units,
                prog.func.len(),
                prog.params.chain_len
            ),
            (est_us, plans, epochs, smus, ops, chain),
            "{name} at degree {degree:?}"
        );
    }
}

#[test]
fn pars_cumulative_scale_never_exceeds_eva() {
    // The paper: "PARS always achieves a smaller cumulative scale which
    // defines the initial level of the program."
    for bench in all_benchmarks(Preset::Small) {
        let o = opts(24.0);
        let eva = compile(&bench.func, Scheme::Eva, &o).unwrap();
        let pars = compile(&bench.func, Scheme::Pars, &o).unwrap();
        assert!(
            pars.params.total_bits <= eva.params.total_bits,
            "{}: PARS modulus {} bits > EVA {} bits",
            bench.name,
            pars.params.total_bits,
            eva.params.total_bits
        );
    }
}

#[test]
fn smu_counts_are_far_below_use_counts() {
    // Table III's core claim.
    for bench in all_benchmarks(Preset::Small) {
        let prog = compile(&bench.func, Scheme::Hecate, &opts(24.0)).unwrap();
        assert!(
            prog.stats.smu_units * 3 <= prog.stats.use_edges,
            "{}: {} SMUs vs {} uses",
            bench.name,
            prog.stats.smu_units,
            prog.stats.use_edges
        );
    }
}

#[test]
fn downscale_appears_only_in_proactive_schemes() {
    for bench in all_benchmarks(Preset::Small) {
        let eva = compile(&bench.func, Scheme::Eva, &opts(24.0)).unwrap();
        assert_eq!(
            eva.stats.op_counts.get("downscale"),
            None,
            "{}: EVA must not use downscale",
            bench.name
        );
    }
}

#[test]
fn security_selection_happens_without_degree_override() {
    let bench = &all_benchmarks(Preset::Small)[0];
    let mut o = CompileOptions::with_waterline(24.0);
    o.degree = None;
    let prog = compile(&bench.func, Scheme::Hecate, &o).unwrap();
    assert!(prog.params.secure, "auto-selected degree must be secure");
    assert!(prog.params.degree >= 1024);
}
