//! Property-based tests over randomly generated FHE programs.
//!
//! Programs are random DAGs of homomorphic operations; the properties are
//! the compiler's core invariants: compiled code always type-checks under
//! C1–C3, preserves plaintext semantics exactly, leaves no modswitch that
//! early modswitch could still move, the proactive scheme's modulus never
//! exceeds the baseline's, exploration never estimates worse than the
//! policy it starts from, the consumers of the one noise rule and the one
//! plaintext semantics agree with each other, an encrypted run is never
//! `Ok` and wrong, and neither is a saved plan whose header was edited.

use hecate::backend::exec::{
    execute_encrypted, BackendOptions, ExecEngine, ExecError, GuardOptions,
};
use hecate::backend::noise::{max_rms_error, predict_rms, simulate};
use hecate::compiler::{
    compile, deserialize_plan, serialize_plan, CompileError, CompileOptions, PlanError, Scheme,
    SelectedParams,
};
use hecate::ir::analysis::users;
use hecate::ir::interp::{interpret, rms_error};
use hecate::ir::types::infer_types;
use hecate::ir::verify::verify_plan;
use hecate::ir::{ConstData, Function, Op, ValueId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const VEC: usize = 8;

/// An abstract op choice, to be wired to random earlier values.
#[derive(Debug, Clone)]
enum Pick {
    Add,
    Sub,
    Mul,
    Negate,
    Rotate(usize),
    Const(f64),
}

fn pick_strategy() -> impl Strategy<Value = Pick> {
    prop_oneof![
        Just(Pick::Add),
        Just(Pick::Sub),
        Just(Pick::Mul),
        Just(Pick::Negate),
        (1usize..VEC).prop_map(Pick::Rotate),
        (-100i32..100).prop_map(|v| Pick::Const(v as f64 / 100.0)),
    ]
}

/// Builds a random well-formed program from op picks and operand seeds.
fn build_program(picks: &[(Pick, u64, u64)], n_inputs: usize) -> Function {
    let mut f = Function::new("random", VEC);
    let mut values: Vec<ValueId> = Vec::new();
    for i in 0..n_inputs {
        values.push(f.push(Op::Input {
            name: format!("x{i}"),
        }));
    }
    for (pick, s1, s2) in picks {
        let a = values[(*s1 % values.len() as u64) as usize];
        let b = values[(*s2 % values.len() as u64) as usize];
        let v = match pick {
            Pick::Add => f.push(Op::Add(a, b)),
            Pick::Sub => f.push(Op::Sub(a, b)),
            // Cap multiplication fan-in to keep scales finite: multiplying
            // two deep values doubles scale growth, which is fine — the
            // compiler must handle it or report NoParameters.
            Pick::Mul => f.push(Op::Mul(a, b)),
            Pick::Negate => f.push(Op::Negate(a)),
            Pick::Rotate(s) => f.push(Op::Rotate { value: a, step: *s }),
            Pick::Const(v) => f.push(Op::Const {
                data: ConstData::splat(*v),
            }),
        };
        values.push(v);
    }
    // Every sink becomes an output so nothing is trivially dead.
    let used: std::collections::HashSet<ValueId> =
        f.ops().iter().flat_map(|o| o.operands()).collect();
    let sinks: Vec<ValueId> = f.value_ids().filter(|v| !used.contains(v)).collect();
    for (i, v) in sinks.into_iter().enumerate() {
        f.mark_output(format!("o{i}"), v);
    }
    f
}

fn inputs_for(n_inputs: usize) -> HashMap<String, Vec<f64>> {
    (0..n_inputs)
        .map(|i| {
            let v: Vec<f64> = (0..VEC)
                .map(|k| 0.1 + 0.05 * ((i + k) % 7) as f64)
                .collect();
            (format!("x{i}"), v)
        })
        .collect()
}

/// Whether any output is cipher-valued (pure-constant programs are not
/// compilable FHE programs).
fn has_cipher_output(f: &Function) -> bool {
    let mut cipher = vec![false; f.len()];
    for (i, op) in f.ops().iter().enumerate() {
        cipher[i] = match op {
            Op::Input { .. } => true,
            Op::Const { .. } => false,
            _ => op.operands().iter().any(|v| cipher[v.index()]),
        };
    }
    f.outputs().iter().any(|(_, v)| cipher[v.index()])
}

/// A `modswitch` whose operand is an add, sub, mul, negate or rotate that
/// is not an output and has no other user: early modswitch would still
/// move it.
fn movable_modswitch(f: &Function) -> Option<usize> {
    let users = users(f);
    f.ops().iter().enumerate().position(|(i, op)| {
        let Op::ModSwitch(v) = op else {
            return false;
        };
        matches!(
            f.op(*v),
            Op::Add(..) | Op::Sub(..) | Op::Mul(..) | Op::Negate(_) | Op::Rotate { .. }
        ) && users[v.index()].iter().all(|u| u.index() == i)
            && !f.outputs().iter().any(|(_, o)| o == v)
    })
}

/// The one clean compile failure on a generated program: no parameter set
/// fits it. EVA and PARS lower exactly one plan, and SMSE and HECATE start
/// from that same plan, so a type or verification error is a lowering bug,
/// never an answer.
fn only_infeasible(e: &CompileError) -> bool {
    matches!(e, CompileError::NoParameters { .. })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_random_programs_type_check_and_preserve_semantics(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..25),
        n_inputs in 1usize..4,
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let ins = inputs_for(n_inputs);
        let reference = interpret(&func, &ins).unwrap();

        let mut opts = CompileOptions::with_waterline(24.0);
        opts.degree = Some(512);
        // At Sf = 24 bits every product rescales down a level, so level
        // matching, and with it early modswitch, runs on most programs.
        for (scheme, sf) in Scheme::ALL.into_iter().flat_map(|s| [(s, 60.0), (s, 24.0)]) {
            opts.sf_bits = sf;
            match compile(&func, scheme, &opts) {
                Ok(prog) => {
                    // Invariant 1: the result type-checks under C1–C3.
                    infer_types(&prog.func, &prog.params.type_config(prog.waterline)).expect("compiled code type-checks");
                    // Early modswitch reached its fixpoint.
                    let stuck = movable_modswitch(&prog.func);
                    prop_assert!(
                        stuck.is_none(),
                        "{scheme} at Sf {sf}: modswitch at {stuck:?} can still move"
                    );
                    // Invariant 2: plaintext semantics are preserved.
                    let out = interpret(&prog.func, &ins).unwrap();
                    for (name, expect) in &reference {
                        prop_assert!(
                            rms_error(&out[name], expect) < 1e-9,
                            "{scheme} at Sf {sf}: output {name} drifted"
                        );
                    }
                    // Invariant 3: parameters cover the program's levels.
                    prop_assert!(prog.params.chain_len > prog.params.max_level);
                }
                // Deep multiplication chains may legitimately exceed every
                // parameter set; that must be a clean error, not a panic.
                Err(e) => prop_assert!(
                    only_infeasible(&e),
                    "{scheme} at Sf {sf}: unexpected error: {e}"
                ),
            }
        }
    }

    #[test]
    fn pars_modulus_never_exceeds_eva(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..20),
        n_inputs in 1usize..3,
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let mut opts = CompileOptions::with_waterline(22.0);
        opts.degree = Some(512);
        let eva = compile(&func, Scheme::Eva, &opts);
        let pars = compile(&func, Scheme::Pars, &opts);
        if let (Ok(e), Ok(p)) = (eva, pars) {
            prop_assert!(
                p.params.total_bits <= e.params.total_bits,
                "PARS {} bits > EVA {} bits",
                p.params.total_bits,
                e.params.total_bits
            );
        }
    }

    /// SMSE's climb starts at EVA's plan and HECATE's at PARS's, and only
    /// an improving neighbour is accepted: exploration never estimates
    /// worse than the policy it starts from (and compiles whenever it
    /// does).
    #[test]
    fn exploration_never_estimates_worse_than_its_base_policy(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..25),
        n_inputs in 1usize..4,
        centibits in 2200u32..3200,
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let mut opts = CompileOptions::with_waterline(f64::from(centibits) / 100.0);
        opts.degree = Some(512);
        let est = |scheme| compile(&func, scheme, &opts).map(|p| p.stats.estimated_latency_us);
        for (explored, base) in [(Scheme::Smse, Scheme::Eva), (Scheme::Hecate, Scheme::Pars)] {
            let Ok(base_us) = est(base) else {
                continue;
            };
            let explored_us = est(explored).expect("exploration compiles whenever its base does");
            prop_assert!(
                explored_us <= base_us,
                "{explored} estimates {explored_us} us > {base} {base_us} us"
            );
        }
    }

    /// Model against model (every other noise test compares a model to an
    /// encrypted run): the static estimate is the engine's prediction at
    /// occupancy 1 read at the worst output, and the simulator's slots are
    /// the interpreter's, bit for bit. The waterline is drawn on the
    /// 22.00–31.99 grid in 0.01 steps, fractional waterlines included.
    #[test]
    fn estimator_ledger_simulator_and_interpreter_agree(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..25),
        n_inputs in 1usize..4,
        centibits in 2200u32..3200,
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let ins = inputs_for(n_inputs);
        let mut opts = CompileOptions::with_waterline(f64::from(centibits) / 100.0);
        opts.degree = Some(512);
        for scheme in [Scheme::Eva, Scheme::Pars, Scheme::Smse, Scheme::Hecate] {
            let Ok(prog) = compile(&func, scheme, &opts) else {
                continue;
            };
            let rms = predict_rms(&prog, prog.params.degree, 1, None);
            let worst_rms = prog
                .func
                .outputs()
                .iter()
                .map(|(_, v)| rms[v.index()])
                .fold(0.0, f64::max);
            prop_assert!(
                (prog.stats.estimated_noise_bits - worst_rms.log2()).abs() < 1e-9,
                "{scheme}: estimate {} vs prediction {}",
                prog.stats.estimated_noise_bits,
                worst_rms.log2()
            );

            let sim = simulate(&prog, &ins, prog.params.degree);
            let reference = interpret(&prog.func, &ins).unwrap();
            prop_assert_eq!(sim.outputs.len(), reference.len());
            for (name, expect) in &reference {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&sim.outputs[name]), bits(expect), "{}: {}", scheme, name);
            }
        }
    }

    /// The noise budget is a fact of the plan, judged when the engine is
    /// built: a bound just below a random cipher value's prediction
    /// refuses the plan at the first op whose prediction exceeds it, and a
    /// bound at the largest prediction builds.
    #[test]
    fn budget_verdict_names_the_first_op_over_the_bound(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..25),
        n_inputs in 1usize..4,
        pick in any::<u64>(),
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let mut opts = CompileOptions::with_waterline(24.0);
        opts.degree = Some(512);
        let compiled = compile(&func, Scheme::Hecate, &opts);
        prop_assume!(compiled.is_ok());
        let prog = Arc::new(compiled.unwrap());
        let rms = predict_rms(&prog, prog.params.degree, 1, None);
        let cipher: Vec<usize> = (0..rms.len()).filter(|&i| prog.types[i].is_cipher()).collect();
        let k = cipher[(pick % cipher.len() as u64) as usize];
        let bound = rms[k].next_down();
        let first = rms.iter().position(|&r| r > bound).expect("op k exceeds its bound");
        let budget = |max_rms| BackendOptions {
            guard: GuardOptions {
                max_rms: Some(max_rms),
                ..GuardOptions::default()
            },
            ..BackendOptions::default()
        };
        match ExecEngine::new(prog.clone(), &budget(bound)) {
            Err(ExecError::BudgetExhausted { at, .. }) => prop_assert_eq!(at, first),
            Err(e) => prop_assert!(false, "op {k}: expected BudgetExhausted at {first}, got {e}"),
            Ok(_) => prop_assert!(false, "op {k}: a bound below its prediction built"),
        }
        let max = rms.iter().copied().fold(0.0, f64::max);
        prop_assert!(ExecEngine::new(prog, &budget(max)).is_ok());
    }

    /// The guarded pipeline never panics on random input: every program
    /// either compiles (and the result re-verifies against the parameters
    /// it selected) or fails with a structured, classifiable error.
    #[test]
    fn random_programs_never_panic_through_the_verifier(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..25),
        n_inputs in 1usize..4,
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let mut opts = CompileOptions::with_waterline(24.0);
        opts.degree = Some(512);
        match compile(&func, Scheme::Hecate, &opts) {
            Ok(prog) => {
                // A shipped plan must satisfy every invariant the verifier
                // knows, bound to the modulus chain it actually selected.
                verify_plan(&prog.func, &prog.params.type_config(prog.waterline), "proptest-audit")
                    .expect("shipped plan re-verifies against its own parameters");
            }
            Err(e) => prop_assert!(only_infeasible(&e), "unexpected error: {e}"),
        }
    }
}

/// The encrypted oracle over one generated case. The program is compiled
/// under every scheme at the waterline `centibits / 100` and run on inputs
/// `slots` (`VEC` per input) under strict runtime guards. Each output is
/// within 2⁻⁸·max(1, max|ref|) and within the noise simulator's
/// first-order estimate (with headroom for what the model ignores), or the
/// case ends in a typed error: `NoParameters` or an `ExecError`. It is
/// never `Ok` and wrong, and a fractional request is never refused.
fn encrypted_oracle(
    picks: &[(Pick, u64, u64)],
    n_inputs: usize,
    centibits: u32,
    slots: &[f64],
) -> Result<(), TestCaseError> {
    let func = build_program(picks, n_inputs);
    prop_assume!(has_cipher_output(&func));
    let ins: HashMap<String, Vec<f64>> = (0..n_inputs)
        .map(|i| (format!("x{i}"), slots[i * VEC..(i + 1) * VEC].to_vec()))
        .collect();
    let reference = interpret(&func, &ins).unwrap();
    let wrong = 2f64.powi(-8)
        * reference
            .values()
            .flatten()
            .fold(1f64, |m, x| m.max(x.abs()));
    let mut opts = CompileOptions::with_waterline(f64::from(centibits) / 100.0);
    opts.degree = Some(512);
    let backend = BackendOptions {
        guard: GuardOptions::strict(0.5),
        ..BackendOptions::default()
    };
    // Runs are deterministic: a plan an earlier scheme ran is not rerun.
    let mut ran: Vec<(Function, SelectedParams)> = Vec::new();
    for scheme in Scheme::ALL {
        let prog = match compile(&func, scheme, &opts) {
            Ok(prog) => prog,
            Err(e) => {
                prop_assert!(only_infeasible(&e), "{scheme}: unexpected error: {e}");
                continue;
            }
        };
        if ran
            .iter()
            .any(|(f, p)| *f == prog.func && *p == prog.params)
        {
            continue;
        }
        ran.push((prog.func.clone(), prog.params));
        let Ok(run) = execute_encrypted(&prog, &ins, &backend) else {
            continue;
        };
        // The simulator is a first-order variance model; allow an order of
        // magnitude of headroom plus an absolute floor for rounding noise.
        let sim = simulate(&prog, &ins, prog.params.degree);
        let bound = (max_rms_error(&sim) * 32.0).max(2f64.powi(-10));
        for (name, expect) in &reference {
            let measured = rms_error(&run.outputs[name], expect);
            prop_assert!(
                measured <= wrong,
                "{scheme} w{}: output {name}: rms {measured:.3e} is a wrong answer",
                opts.waterline_bits
            );
            prop_assert!(
                measured < bound,
                "{scheme} w{}: output {name}: measured rms {measured:.3e} exceeds \
                 simulated bound {bound:.3e}",
                opts.waterline_bits
            );
        }
    }
    Ok(())
}

proptest! {
    // Encrypted execution is the expensive half: 400 programs × 4 schemes
    // at degree 512.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// [`encrypted_oracle`] over programs of 3–9 ops and 1–2 inputs, at
    /// waterlines drawn on the 22.00–31.99 grid in 0.01 steps (fractional
    /// requests included), with inputs drawn uniformly in [−1, 1).
    #[test]
    fn verifier_accepted_plans_round_trip_encrypted_within_noise_bound(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..10),
        n_inputs in 1usize..3,
        centibits in 2200u32..3200,
        slots in proptest::collection::vec(-1.0f64..1.0, 2 * VEC),
    ) {
        encrypted_oracle(&picks, n_inputs, centibits, &slots)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The same draw, 2 000 programs × 4 schemes (its first 400 cases are
    /// the property above). Run it in release: `cargo test --release
    /// --test proptest_compiler -- --ignored`.
    #[test]
    #[ignore = "long scan; run in release with --ignored"]
    fn encrypted_oracle_long_scan(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..10),
        n_inputs in 1usize..3,
        centibits in 2200u32..3200,
        slots in proptest::collection::vec(-1.0f64..1.0, 2 * VEC),
    ) {
        encrypted_oracle(&picks, n_inputs, centibits, &slots)?;
    }
}

/// `text` with the header token `key=…` set to `key=value`.
fn set_field(text: &str, key: &str, value: impl std::fmt::Display) -> String {
    let prefix = format!("{key}=");
    let (head, body) = text.split_at(text.find("\nfunc").expect("plan has a body"));
    let head: Vec<String> = head
        .lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| match tok.starts_with(&prefix) {
                    true => format!("{prefix}{value}"),
                    false => tok.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    let edited = head.join("\n") + body;
    assert_ne!(edited, text, "{key}={value}: no such field");
    edited
}

/// Every single-field edit of a saved plan's header: waterline, `S_f` and
/// chain length ±1, base primes just and far outside the 24–60 bits
/// parameter selection searches, and the degree halved or doubled.
fn hostile_edits(text: &str, w: f64, p: &SelectedParams) -> Vec<(String, String)> {
    let mut edits: Vec<(&str, String)> = vec![
        ("waterline", (w - 1.0).to_string()),
        ("waterline", (w + 1.0).to_string()),
        ("sf", (p.sf_bits - 1).to_string()),
        ("sf", (p.sf_bits + 1).to_string()),
        ("chain", (p.chain_len - 1).to_string()),
        ("chain", (p.chain_len + 1).to_string()),
        ("degree", (p.degree / 2).to_string()),
        ("degree", (p.degree * 2).to_string()),
    ];
    edits.extend([22, 23, 61, 70].map(|q0| ("q0", q0.to_string())));
    edits
        .into_iter()
        .map(|(key, value)| (format!("{key}={value}"), set_field(text, key, &value)))
        .collect()
}

/// Header edits naming a chain parameter selection never builds, each
/// with the `PlanError` the loader must refuse it with: `S_f` outside the
/// backend's prime sizes, more primes than selection uses (2 000 would ask
/// key generation for tens of GiB), and degrees that are not a power of
/// two in 8..=32768 (2³⁰ would allocate 8 GiB per limb).
fn out_of_bounds_edits(text: &str) -> Vec<(String, String, PlanError)> {
    let max_chain = CompileOptions::default().max_chain_len;
    let mut edits = vec![
        ("sf", 19, PlanError::ScaleFactor(19)),
        ("sf", 62, PlanError::ScaleFactor(62)),
        (
            "chain",
            max_chain + 1,
            PlanError::ChainLength(max_chain + 1),
        ),
        ("chain", 2000, PlanError::ChainLength(2000)),
    ];
    edits.extend([4, 1000, 65536, 1 << 30].map(|d| ("degree", d, PlanError::Degree(d))));
    edits
        .into_iter()
        .map(|(key, value, err)| (format!("{key}={value}"), set_field(text, key, value), err))
        .collect()
}

/// Loads every [`hostile_edits`] variant of `prog`'s saved plan and runs
/// what loads: each is a typed rejection (a `PlanError` from the loader or
/// an `ExecError` from the run), or it decrypts every output within
/// 2⁻⁸·max(1, max|ref|) of `reference`, the source program's
/// interpretation. Never a panic, never `Ok` and wrong. Every
/// [`out_of_bounds_edits`] variant is refused by the loader, unrun.
fn hostile_plans_are_refused_or_right(
    prog: &hecate::compiler::CompiledProgram,
    ins: &HashMap<String, Vec<f64>>,
    reference: &HashMap<String, Vec<f64>>,
) -> Result<(), String> {
    let text = serialize_plan(prog);
    for (edit, hostile, want) in out_of_bounds_edits(&text) {
        match deserialize_plan(&hostile) {
            Err(e) if e == want => {}
            other => {
                return Err(format!(
                    "{} plan with {edit}: loaded as {:?}, want {want:?}",
                    prog.scheme,
                    other.map(|p| p.params)
                ))
            }
        }
    }
    let bound = 2f64.powi(-8)
        * reference
            .values()
            .flatten()
            .fold(1f64, |m, x| m.max(x.abs()));
    for (edit, hostile) in hostile_edits(&text, prog.waterline, &prog.params) {
        let Ok(loaded) = deserialize_plan(&hostile) else {
            continue;
        };
        let Ok(run) = execute_encrypted(&loaded, ins, &BackendOptions::default()) else {
            continue;
        };
        for (name, expect) in reference {
            let err = run.outputs[name]
                .iter()
                .zip(expect)
                .fold(0f64, |m, (a, b)| m.max((a - b).abs()));
            if err > bound {
                return Err(format!(
                    "{} plan with {edit}: output {name} is off by {err:.3e} (bound {bound:.3e})",
                    prog.scheme
                ));
            }
        }
    }
    Ok(())
}

/// The poly example's saved plan under every scheme (at degree 2048, to
/// keep the runs short), edited field by field.
#[test]
fn hostile_poly_plans_are_refused_or_run_correctly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ir/poly.heir");
    let func = hecate::ir::parse::parse_function(&std::fs::read_to_string(path).unwrap()).unwrap();
    let ins: HashMap<String, Vec<f64>> = [(
        "x".to_string(),
        vec![0.5, -0.25, 0.75, 0.1, -0.9, 0.3, 0.0, 1.0],
    )]
    .into();
    let reference = interpret(&func, &ins).unwrap();
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(2048);
    for scheme in Scheme::ALL {
        let prog = compile(&func, scheme, &opts).unwrap();
        hostile_plans_are_refused_or_right(&prog, &ins, &reference).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated programs at degree 512 and whole waterlines 22–31, under
    /// every scheme, with every header field edited.
    #[test]
    fn hostile_generated_plans_are_refused_or_run_correctly(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..10),
        n_inputs in 1usize..3,
        waterline in 22u32..32,
        slots in proptest::collection::vec(-1.0f64..1.0, 2 * VEC),
    ) {
        let func = build_program(&picks, n_inputs);
        prop_assume!(has_cipher_output(&func));
        let ins: HashMap<String, Vec<f64>> = (0..n_inputs)
            .map(|i| (format!("x{i}"), slots[i * VEC..(i + 1) * VEC].to_vec()))
            .collect();
        let reference = interpret(&func, &ins).unwrap();
        let mut opts = CompileOptions::with_waterline(f64::from(waterline));
        opts.degree = Some(512);
        let mut seen: Vec<String> = Vec::new();
        for scheme in Scheme::ALL {
            let Ok(prog) = compile(&func, scheme, &opts) else {
                continue;
            };
            // Runs are deterministic: a plan an earlier scheme saved is
            // not edited again.
            let text = serialize_plan(&prog);
            let body = text[text.find("\nfunc").unwrap()..].to_string();
            if seen.contains(&body) {
                continue;
            }
            seen.push(body);
            let verdict = hostile_plans_are_refused_or_right(&prog, &ins, &reference);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}

/// `text` with one edit drawn from `(kind, a, b)`: delete, duplicate or
/// swap a line, replace a token with another token of the same text, or
/// change a digit.
fn mutate_heir(text: &str, (kind, a, b): (u64, u64, u64)) -> String {
    let at = |x: u64, n: usize| (x % n.max(1) as u64) as usize;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    match kind % 5 {
        0 => {
            lines.remove(at(a, lines.len()));
        }
        1 => {
            let i = at(a, lines.len());
            lines.insert(i, lines[i].clone());
        }
        2 => {
            let (i, j) = (at(a, lines.len()), at(b, lines.len()));
            lines.swap(i, j);
        }
        3 => {
            let mut words: Vec<Vec<String>> = lines
                .iter()
                .map(|l| l.split(' ').map(str::to_string).collect())
                .collect();
            let spots: Vec<(usize, usize)> = words
                .iter()
                .enumerate()
                .flat_map(|(i, ws)| (0..ws.len()).map(move |k| (i, k)))
                .filter(|&(i, k)| !words[i][k].is_empty())
                .collect();
            let (si, sk) = spots[at(b, spots.len())];
            let (ti, tk) = spots[at(a, spots.len())];
            words[ti][tk] = words[si][sk].clone();
            lines = words.iter().map(|ws| ws.join(" ")).collect();
        }
        _ => {
            let joined = lines.join("\n");
            let digits: Vec<usize> = joined
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let mut bytes = joined.into_bytes();
            if !digits.is_empty() {
                bytes[digits[at(a, digits.len())]] = b'0' + (b % 10) as u8;
            }
            return String::from_utf8(bytes).expect("a digit for a digit");
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Hostile `.heir` text: the printed form of a generated program (or,
    /// one case in four, `examples/ir/poly.heir`) with one to three
    /// [`mutate_heir`] edits. Parsing, and compiling under HECATE at
    /// degree 512 whatever parses, return `Ok` or a typed error and never
    /// panic.
    #[test]
    fn hostile_heir_text_is_parsed_or_refused(
        picks in proptest::collection::vec((pick_strategy(), any::<u64>(), any::<u64>()), 3..10),
        n_inputs in 1usize..3,
        poly in 0u32..4,
        edits in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..4),
    ) {
        let mut text = if poly == 0 {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ir/poly.heir");
            std::fs::read_to_string(path).unwrap()
        } else {
            hecate::ir::print::print_function_full(&build_program(&picks, n_inputs))
        };
        for &edit in &edits {
            text = mutate_heir(&text, edit);
        }
        let mut opts = CompileOptions::with_waterline(24.0);
        opts.degree = Some(512);
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(func) = hecate::ir::parse::parse_function(&text) {
                let _ = compile(&func, Scheme::Hecate, &opts);
            }
        });
        prop_assert!(outcome.is_ok(), "panicked on:\n{text}");
    }
}
