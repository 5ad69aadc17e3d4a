//! The backend's two folds of the noise rule
//! ([`hecate_compiler::noise::NoiseRule`], where the model itself is
//! written): a simulator that predicts RMS error without encryption, and
//! the prediction every encrypted run of an engine reads.
//!
//! For large benchmarks (LeNet runs thousands of operations), measuring the
//! error of every (waterline × scheme) configuration under real encryption
//! is expensive. [`simulate`] pairs each value's plaintext slots (from
//! [`hecate_ir::interp::interpret_ops`]) with the rule's variance, stepped
//! with the *actual* message mean-squares. The estimate is validated
//! against real encrypted runs in the integration tests (same order of
//! magnitude), which is all the waterline sweep's error filter needs.
//!
//! [`predict_rms`] folds the same rule once per engine, without seeing the
//! plaintext: it bounds the mean-squares instead.

use crate::fault::FaultPlan;
use hecate_compiler::noise::NoiseRule;
use hecate_compiler::CompiledProgram;
use hecate_ir::interp::interpret_ops;
use std::collections::HashMap;

/// Result of a simulated run.
#[derive(Debug)]
pub struct SimulatedRun {
    /// Noiseless outputs (reference semantics).
    pub outputs: HashMap<String, Vec<f64>>,
    /// Estimated RMS error per output.
    pub rms_error: HashMap<String, f64>,
}

/// The simulator's per-operation state: the noiseless plaintext slots a
/// value holds and the first-order variance of its decoded-domain noise.
/// [`simulate_ops`] exposes one of these per operation so the audit
/// driver can compare a decrypt probe at *any* op against its predicted
/// error, not just at the outputs.
#[derive(Clone, Debug)]
pub struct SimVal {
    /// Noiseless reference slots (the first `vec_size` of them).
    pub values: Vec<f64>,
    /// Decoded-domain noise variance per slot.
    pub var: f64,
}

impl SimVal {
    /// Predicted decoded-domain RMS error of this value.
    pub fn predicted_rms(&self) -> f64 {
        self.var.sqrt()
    }
}

fn mean_sq(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64
}

/// Simulates a compiled program at ring degree `degree`, returning outputs
/// and estimated RMS errors.
///
/// # Panics
/// Panics if an input binding is missing (callers validate inputs first).
pub fn simulate(
    prog: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    degree: usize,
) -> SimulatedRun {
    let sims = simulate_ops(prog, inputs, degree);
    let mut outputs = HashMap::new();
    let mut rms = HashMap::new();
    for (name, v) in prog.func.outputs() {
        let s = &sims[v.index()];
        outputs.insert(name.clone(), s.values.clone());
        rms.insert(name.clone(), s.predicted_rms());
    }
    SimulatedRun {
        outputs,
        rms_error: rms,
    }
}

/// Like [`simulate`], but returns the full per-operation table: the
/// noiseless plaintext slots and predicted noise variance of *every*
/// value, in operation order. This is what `hecatec --explain` diffs
/// against intermediate decrypt probes.
///
/// # Panics
/// Panics if an input binding is missing (callers validate inputs first).
pub fn simulate_ops(
    prog: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    degree: usize,
) -> Vec<SimVal> {
    let values = interpret_ops(&prog.func, inputs).unwrap_or_else(|e| panic!("{e}"));
    let rule = NoiseRule::new(degree, 1.0);
    let vars = rule.fold(&prog.func, &prog.types, |v| mean_sq(&values[v.index()]));
    let sims = values.into_iter().zip(vars);
    sims.map(|(values, var)| SimVal { values, var }).collect()
}

/// The largest estimated RMS error across all outputs.
pub fn max_rms_error(run: &SimulatedRun) -> f64 {
    run.rms_error.values().fold(0.0, |m, v| m.max(*v))
}

/// The noise prediction for every run of an engine: the rule folded at
/// ring degree `degree` for `occupancy` tenants per ciphertext, one
/// decoded-domain RMS per value. It is a function of the plan's types, so
/// the engine computes it once and every run reads it; it never touches
/// ciphertext bits, which keeps observed and unobserved runs
/// bit-identical.
///
/// Packed slots still hold roughly unit-magnitude messages (CKKS practice
/// normalizes inputs), but the per-slot message mean-square is bounded by
/// the occupancy, so multiplicative growth stays conservative when guard
/// bands carry smeared neighbour data, and the occupancy is also the
/// rule's worst-block concentration. At occupancy 1 both factors are 1.0:
/// the static estimator's model. A [`FaultPlan::ExhaustNoise`] cipher op
/// adds the variance its corruption injects (every slot shifts by 2.0),
/// so the model sees the blow-up the `max_rms` guard must catch.
pub fn predict_rms(
    prog: &CompiledProgram,
    degree: usize,
    occupancy: usize,
    fault: Option<&FaultPlan>,
) -> Vec<f64> {
    let occ = occupancy.max(1) as f64;
    let rule = NoiseRule::new(degree, occ);
    let mut vars = Vec::with_capacity(prog.func.len());
    for i in 0..prog.func.len() {
        let injected = match fault {
            Some(FaultPlan::ExhaustNoise { at }) if *at == i && prog.types[i].is_cipher() => 4.0,
            _ => 0.0,
        };
        vars.push(rule.step(&prog.func, &prog.types, i, &vars, |_| occ) + injected);
    }
    vars.into_iter().map(f64::sqrt).collect()
}
