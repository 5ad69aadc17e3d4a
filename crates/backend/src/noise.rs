//! The backend's two steppers of the noise rule
//! ([`hecate_compiler::noise::NoiseRule`], where the model itself is
//! written): a simulator that predicts RMS error without encryption, and
//! the ledger every encrypted run keeps.
//!
//! For large benchmarks (LeNet runs thousands of operations), measuring the
//! error of every (waterline × scheme) configuration under real encryption
//! is expensive. [`simulate`] pairs each value's plaintext slots (from
//! [`hecate_ir::interp::interpret_ops`]) with the rule's variance, stepped
//! with the *actual* message mean-squares. The estimate is validated
//! against real encrypted runs in the integration tests (same order of
//! magnitude), which is all the waterline sweep's error filter needs.
//!
//! [`NoiseLedger`] steps the same rule online, one finished operation at a
//! time, without seeing the plaintext: it bounds the mean-squares instead.

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
/// value, in operation order. This is what `hecatec --audit` diffs
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

/// One row of the precision ledger: everything the executor knows about
/// the noise budget of one executed cipher operation.
///
/// All quantities are in the decoded domain and log2 ("bits") where
/// noted. The three derived fields answer the three questions an operator
/// asks about precision: how loud is the noise (`predicted_rms`), how far
/// is the scale above the waterline that guarantees output accuracy
/// (`margin_bits`), and how much modulus headroom is left at this level
/// (`budget_bits`).
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Operation index in the compiled program.
    pub op: usize,
    /// Operation mnemonic (`mul`, `rescale`, …).
    pub mnemonic: &'static str,
    /// Rescaling level of the result.
    pub level: usize,
    /// Declared scale of the result, log2 bits.
    pub scale_bits: f64,
    /// Predicted decoded-domain RMS noise of the result (message
    /// mean-squares bounded by the occupancy).
    pub predicted_rms: f64,
    /// Scale-vs-waterline margin in bits: `scale − S_w`. Non-negative
    /// for every well-formed plan (verifier invariant C2); negative means
    /// the plan no longer honors its waterline.
    pub margin_bits: f64,
    /// Remaining modulus budget at this value's level, in bits: the
    /// nominal active-prefix modulus (`q0 + S_f·(chain_len−1−level)`)
    /// minus the value's scale. This is the headroom future rescales and
    /// upscales draw from.
    pub budget_bits: f64,
}

/// A per-run ledger of predicted noise, waterline margin, and modulus
/// budget for every executed cipher operation.
///
/// The ledger steps the noise rule in completion order (always
/// topological), so the executor can ask after every operation whether
/// the tracked RMS still fits its budget and abort with `BudgetExhausted`
/// *before* a garbage decryption. It also materializes one
/// [`LedgerEntry`] per cipher op, which the executor emits as `precision`
/// trace marks, folds into the global precision metric family, and the
/// audit driver joins with decrypt probes. Recording is pure bookkeeping
/// over the compiled types — it never touches ciphertext bits, which is
/// what keeps audited and unaudited runs bit-identical.
#[derive(Debug)]
pub struct NoiseLedger {
    rule: NoiseRule,
    /// Assumed per-slot message mean-square bound.
    mean_sq: f64,
    /// Tracked variance per value (0 until recorded).
    vars: Vec<f64>,
    entries: Vec<LedgerEntry>,
    min_margin_bits: f64,
}

impl NoiseLedger {
    /// A ledger for one run of `prog` at ring degree `degree`, serving
    /// `occupancy` tenants from each ciphertext. Packed slots still hold
    /// roughly unit-magnitude messages (CKKS practice normalizes inputs),
    /// but the ledger bounds the per-slot message mean-square by the
    /// occupancy so multiplicative noise growth stays conservative when
    /// guard bands carry smeared neighbour data, and uses the occupancy
    /// as the rule's worst-block concentration. At occupancy 1 both
    /// factors are 1.0 — the static estimator's model.
    pub fn new(prog: &CompiledProgram, degree: usize, occupancy: usize) -> Self {
        let occ = occupancy.max(1) as f64;
        NoiseLedger {
            rule: NoiseRule::new(degree, occ),
            mean_sq: occ,
            vars: vec![0.0; prog.func.len()],
            entries: Vec::new(),
            min_margin_bits: f64::INFINITY,
        }
    }

    /// Advances the noise model across op `i` (plus any fault-injected
    /// variance, which makes physical corruption visible to the model)
    /// and, when the result is a ciphertext, appends and returns its
    /// ledger entry. Plain and free values advance the model only, so
    /// downstream cipher entries still see their variance.
    pub fn record(
        &mut self,
        prog: &CompiledProgram,
        i: usize,
        injected_var: f64,
    ) -> Option<&LedgerEntry> {
        let stepped = self
            .rule
            .step(&prog.func, &prog.types, i, &self.vars, |_| self.mean_sq);
        self.vars[i] = stepped + injected_var.max(0.0);
        let ty = prog.types[i];
        if !ty.is_cipher() {
            return None;
        }
        let scale_bits = ty.scale().unwrap_or(0.0);
        let level = ty.level().unwrap_or(0);
        let margin_bits = scale_bits - prog.cfg.waterline;
        self.min_margin_bits = self.min_margin_bits.min(margin_bits);
        let params = &prog.params;
        let modulus_bits = params.q0_bits as f64
            + params.sf_bits as f64 * (params.chain_len - 1).saturating_sub(level) as f64;
        self.entries.push(LedgerEntry {
            op: i,
            mnemonic: prog.func.ops()[i].mnemonic(),
            level,
            scale_bits,
            predicted_rms: self.rms(i),
            margin_bits,
            budget_bits: modulus_bits - scale_bits,
        });
        self.entries.last()
    }

    /// The tracked RMS noise of value `i`, cipher or not (0 before it is
    /// recorded) — what the executor's `max_rms` guard compares.
    pub fn rms(&self, i: usize) -> f64 {
        self.vars[i].sqrt()
    }

    /// Every recorded entry, in execution order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The tightest waterline margin recorded so far (infinite before the
    /// first cipher op).
    pub fn min_margin_bits(&self) -> f64 {
        self.min_margin_bits
    }
}
