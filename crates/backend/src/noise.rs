//! Noise-simulating execution: fast RMS-error estimation without
//! encryption.
//!
//! For large benchmarks (LeNet runs thousands of operations), measuring the
//! error of every (waterline × scheme) configuration under real encryption
//! is expensive. This executor tracks each value's plaintext slots plus a
//! first-order variance of its decoded-domain noise, using the standard
//! CKKS noise heuristics:
//!
//! - encoding rounds coefficients to integers: variance `N/12` in the
//!   coefficient domain, `/scale²` decoded;
//! - fresh encryption adds `≈ 2N·σ²` of RLWE noise (σ² = 10.5, CBD(21));
//! - `ct×ct` contributes `m₁²σ₂² + m₂²σ₁²` plus key-switch noise;
//! - `rescale` preserves decoded noise and adds a rounding term at the new
//!   scale; `modswitch` is exact in RNS.
//!
//! The estimate is validated against real encrypted runs in the integration
//! tests (same order of magnitude), which is all the waterline sweep's
//! error filter needs.

use hecate_compiler::CompiledProgram;
use hecate_ir::{Op, ValueId};
use std::collections::HashMap;

/// RLWE noise variance of CBD(21).
const SIGMA2: f64 = 10.5;

/// Decoded-domain variance of encoding (integer rounding) at a scale.
fn encode_var(n: f64, scale_bits: f64) -> f64 {
    (n / 12.0) / (2.0f64).powf(2.0 * scale_bits)
}

/// Decoded-domain variance of a freshly encrypted value at a scale.
fn fresh_var(n: f64, scale_bits: f64) -> f64 {
    (2.0 * n * SIGMA2) / (2.0f64).powf(2.0 * scale_bits) + encode_var(n, scale_bits)
}

/// Key-switch noise (relinearization / rotation) decoded at a scale.
fn ks_var(n: f64, scale_bits: f64) -> f64 {
    (n * n * SIGMA2 / 6.0) / (2.0f64).powf(2.0 * scale_bits)
}

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
    let n = degree as f64;
    let w = prog.func.vec_size;
    let encode_var = |scale_bits: f64| encode_var(n, scale_bits);
    let fresh_var = |scale_bits: f64| fresh_var(n, scale_bits);
    // Key-switch noise (relin / rotate), decoded at the operand scale:
    // digits of magnitude q/2 times RLWE noise, divided by the special
    // prime — roughly N·σ² in the coefficient domain.
    let ks_var = |scale_bits: f64| ks_var(n, scale_bits);

    let mut vals: Vec<SimVal> = Vec::with_capacity(prog.func.len());
    let scale_of = |v: &ValueId| prog.types[v.index()].scale().unwrap_or(0.0);

    for (i, op) in prog.func.ops().iter().enumerate() {
        let ty = prog.types[i];
        let get = |v: &ValueId| vals[v.index()].clone();
        let sv = match op {
            Op::Input { name } => {
                let mut data = inputs
                    .get(name)
                    .unwrap_or_else(|| panic!("no binding for input '{name}'"))
                    .clone();
                data.resize(w, 0.0);
                SimVal {
                    values: data,
                    var: fresh_var(ty.scale().expect("cipher input")),
                }
            }
            Op::Const { data } => SimVal {
                values: (0..w).map(|k| data.at(k)).collect(),
                var: 0.0,
            },
            Op::Encode {
                value, scale_bits, ..
            } => {
                let src = get(value);
                SimVal {
                    values: src.values,
                    var: encode_var(*scale_bits),
                }
            }
            Op::Add(a, b) | Op::Sub(a, b) => {
                let (sa, sb) = (get(a), get(b));
                let vals_out: Vec<f64> = sa
                    .values
                    .iter()
                    .zip(&sb.values)
                    .map(|(x, y)| {
                        if matches!(op, Op::Add(..)) {
                            x + y
                        } else {
                            x - y
                        }
                    })
                    .collect();
                SimVal {
                    values: vals_out,
                    var: sa.var + sb.var,
                }
            }
            Op::Mul(a, b) => {
                let (sa, sb) = (get(a), get(b));
                let vals_out: Vec<f64> = sa
                    .values
                    .iter()
                    .zip(&sb.values)
                    .map(|(x, y)| x * y)
                    .collect();
                let both_cipher =
                    prog.types[a.index()].is_cipher() && prog.types[b.index()].is_cipher();
                let mut var = mean_sq(&sa.values) * sb.var + mean_sq(&sb.values) * sa.var;
                if both_cipher {
                    var += ks_var(ty.scale().expect("cipher result"));
                }
                SimVal {
                    values: vals_out,
                    var,
                }
            }
            Op::Negate(v) => {
                let s = get(v);
                SimVal {
                    values: s.values.iter().map(|x| -x).collect(),
                    var: s.var,
                }
            }
            Op::Rotate { value, step } => {
                let s = get(value);
                let rotated: Vec<f64> = (0..w).map(|k| s.values[(k + step) % w]).collect();
                SimVal {
                    values: rotated,
                    var: s.var + ks_var(scale_of(value)),
                }
            }
            Op::Rescale(v) => {
                let s = get(v);
                SimVal {
                    values: s.values,
                    var: s.var + encode_var(ty.scale().expect("cipher")) * n / 3.0,
                }
            }
            Op::ModSwitch(v) => get(v),
            Op::Upscale { value, .. } => {
                // Multiplying by an exact power-of-two constant adds no
                // noise beyond the (integer-scale) encoding, which is exact.
                get(value)
            }
            Op::Downscale(v) => {
                let s = get(v);
                SimVal {
                    values: s.values,
                    var: s.var + encode_var(ty.scale().expect("cipher")) * n / 3.0,
                }
            }
        };
        debug_assert_eq!(vals.len(), i);
        vals.push(sv);
    }
    vals
}

/// The largest estimated RMS error across all outputs.
pub fn max_rms_error(run: &SimulatedRun) -> f64 {
    run.rms_error.values().fold(0.0, |m, v| m.max(*v))
}

/// Online noise-budget tracking for the encrypted executor.
///
/// The monitor advances the same first-order variance model as
/// [`simulate`], but online, one operation at a time, without seeing the
/// plaintext: where [`simulate`] multiplies by the actual message
/// mean-squares, the monitor bounds them by `msq_bound` (CKKS practice
/// normalizes inputs to roughly unit magnitude). The executor asks after
/// every operation whether the tracked RMS still fits the budget; if not,
/// it aborts with `BudgetExhausted` *before* a garbage decryption. Each
/// encrypted run owns exactly one, inside its [`NoiseLedger`].
#[derive(Debug, Clone)]
pub struct NoiseMonitor {
    n: f64,
    /// Assumed per-slot message mean-square bound.
    msq_bound: f64,
    /// Worst-block concentration multiplier applied to every injected
    /// noise term (fresh encryption, encoding, key-switch, rescale
    /// rounding). `1.0` models the whole-ring average; a slot-batched run
    /// sets it to the occupancy, because rounding noise is white in the
    /// coefficient domain but its slot-domain energy fluctuates block to
    /// block — and a batched verdict rests on the *worst* tenant's block,
    /// not the ring-wide mean.
    conc: f64,
    vars: HashMap<usize, f64>,
}

impl NoiseMonitor {
    /// A monitor for a run at ring degree `degree`.
    pub fn new(degree: usize) -> Self {
        NoiseMonitor {
            n: degree as f64,
            msq_bound: 1.0,
            conc: 1.0,
            vars: HashMap::new(),
        }
    }

    /// Overrides the message magnitude bound (mean-square per slot).
    pub fn with_message_bound(mut self, msq_bound: f64) -> Self {
        self.msq_bound = msq_bound;
        self
    }

    /// Overrides the worst-block noise concentration multiplier (variance
    /// domain, so predicted RMS grows by its square root).
    pub fn with_noise_concentration(mut self, conc: f64) -> Self {
        self.conc = conc;
        self
    }

    /// Advances the model across op `i` and returns the tracked variance
    /// of its result.
    pub fn record(&mut self, prog: &CompiledProgram, i: usize) -> f64 {
        let op = &prog.func.ops()[i];
        let ty = prog.types[i];
        let get = |v: &ValueId| self.vars.get(&v.index()).copied().unwrap_or(0.0);
        let var = match op {
            Op::Input { .. } => self.conc * fresh_var(self.n, ty.scale().unwrap_or(0.0)),
            Op::Const { .. } => 0.0,
            Op::Encode { scale_bits, .. } => self.conc * encode_var(self.n, *scale_bits),
            Op::Add(a, b) | Op::Sub(a, b) => get(a) + get(b),
            Op::Mul(a, b) => {
                let both_cipher =
                    prog.types[a.index()].is_cipher() && prog.types[b.index()].is_cipher();
                let mut v = self.msq_bound * (get(a) + get(b));
                if both_cipher {
                    v += self.conc * ks_var(self.n, ty.scale().unwrap_or(0.0));
                }
                v
            }
            Op::Negate(v) => get(v),
            Op::Rotate { value, .. } => {
                get(value)
                    + self.conc * ks_var(self.n, prog.types[value.index()].scale().unwrap_or(0.0))
            }
            Op::Rescale(v) | Op::Downscale(v) => {
                get(v) + self.conc * encode_var(self.n, ty.scale().unwrap_or(0.0)) * self.n / 3.0
            }
            Op::ModSwitch(v) | Op::Upscale { value: v, .. } => get(v),
        };
        self.vars.insert(i, var);
        var
    }

    /// Adds externally observed variance at value `i` (used by the fault
    /// injector to make physical corruption visible to the model).
    pub fn inject(&mut self, i: usize, extra_var: f64) {
        *self.vars.entry(i).or_insert(0.0) += extra_var;
    }

    /// The tracked RMS noise of value `i` (0 if untracked).
    pub fn rms(&self, i: usize) -> f64 {
        self.vars.get(&i).copied().unwrap_or(0.0).sqrt()
    }
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
    /// Predicted decoded-domain RMS noise of the result (the
    /// [`NoiseMonitor`] model: message magnitudes bounded by 1).
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
/// The ledger advances the same online model as [`NoiseMonitor`] (it owns
/// one) and additionally materializes one [`LedgerEntry`] per cipher op,
/// which the executor emits as `precision` trace marks, folds into the
/// global precision metric family, and the audit driver joins with
/// decrypt probes. Recording is pure bookkeeping over the compiled types
/// — it never touches ciphertext bits, which is what keeps audited and
/// unaudited runs bit-identical.
#[derive(Debug)]
pub struct NoiseLedger {
    monitor: NoiseMonitor,
    waterline: f64,
    q0_bits: f64,
    sf_bits: f64,
    chain_len: usize,
    entries: Vec<LedgerEntry>,
    min_margin_bits: f64,
}

impl NoiseLedger {
    /// A ledger for one run of `prog` at ring degree `degree`, serving
    /// `occupancy` tenants from each ciphertext. Packed slots still hold
    /// roughly unit-magnitude messages, but the model bounds the per-slot
    /// message mean-square by the occupancy so multiplicative noise
    /// growth stays conservative when guard bands carry smeared neighbour
    /// data, and injected noise terms carry a worst-block concentration
    /// multiplier (a batched verdict rests on the noisiest tenant's
    /// block, not the ring-wide mean). At occupancy 1 both factors are
    /// 1.0 — the plain solo model.
    pub fn new(prog: &CompiledProgram, degree: usize, occupancy: usize) -> Self {
        let occ = occupancy.max(1) as f64;
        NoiseLedger {
            monitor: NoiseMonitor::new(degree)
                .with_message_bound(occ)
                .with_noise_concentration(occ),
            waterline: prog.cfg.waterline,
            q0_bits: prog.params.q0_bits as f64,
            sf_bits: prog.params.sf_bits as f64,
            chain_len: prog.params.chain_len,
            entries: Vec::new(),
            min_margin_bits: f64::INFINITY,
        }
    }

    /// Nominal modulus bits active at `level`:
    /// `q0 + S_f·(chain_len−1−level)`.
    pub fn modulus_bits_at(&self, level: usize) -> f64 {
        self.q0_bits + self.sf_bits * (self.chain_len - 1).saturating_sub(level) as f64
    }

    /// Advances the noise model across op `i` (plus any fault-injected
    /// variance) and, when the result is a ciphertext, appends and
    /// returns its ledger entry. Plain and free values advance the model
    /// only, so downstream cipher entries still see their variance.
    pub fn record(
        &mut self,
        prog: &CompiledProgram,
        i: usize,
        injected_var: f64,
    ) -> Option<&LedgerEntry> {
        self.monitor.record(prog, i);
        if injected_var > 0.0 {
            self.monitor.inject(i, injected_var);
        }
        let ty = prog.types[i];
        if !ty.is_cipher() {
            return None;
        }
        let scale_bits = ty.scale().unwrap_or(0.0);
        let level = ty.level().unwrap_or(0);
        let margin_bits = scale_bits - self.waterline;
        self.min_margin_bits = self.min_margin_bits.min(margin_bits);
        self.entries.push(LedgerEntry {
            op: i,
            mnemonic: prog.func.ops()[i].mnemonic(),
            level,
            scale_bits,
            predicted_rms: self.monitor.rms(i),
            margin_bits,
            budget_bits: self.modulus_bits_at(level) - scale_bits,
        });
        self.entries.last()
    }

    /// The tracked RMS noise of value `i`, cipher or not (0 before it is
    /// recorded) — what the executor's `max_rms` guard compares.
    pub fn rms(&self, i: usize) -> f64 {
        self.monitor.rms(i)
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
