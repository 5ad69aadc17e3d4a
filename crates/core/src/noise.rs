//! The first-order CKKS noise rule: what one operation does to the
//! decoded-domain noise variance of its result.
//!
//! Every noise figure in the workspace is a parameterisation of
//! [`NoiseRule::step`]: the static estimator
//! ([`crate::estimator::estimate_noise_bits`]) folds it once per compiled
//! plan, over the winner only, with message mean-square 1; the backend
//! folds it once per engine, never per run, with the occupancy as both
//! mean-square bound and concentration; and the backend's simulator folds
//! it with the mean-squares of the plaintext values. The sources, in the
//! coefficient domain (divide by `scale²` to decode):
//!
//! - encoding rounds coefficients to integers: `N/12`;
//! - fresh encryption adds `2N·σ²` of RLWE noise (σ² = 10.5, CBD(21)) on
//!   top of the encoding;
//! - `ct×ct` and `rotate` key-switch: digits of magnitude `q/2` times RLWE
//!   noise, divided by the special prime — `N²σ²/6`;
//! - `rescale` / `downscale` round at the new scale: `N²/36`;
//! - a product carries `m_a²·σ_b² + m_b²·σ_a²`; `modswitch` is exact in
//!   RNS, and so is `upscale`: scales are whole bits (the type system's
//!   invariant), so the backend multiplies by exactly `2^δ`.

use hecate_ir::{Function, Op, Type, ValueId};

/// RLWE noise variance of CBD(21).
const SIGMA2: f64 = 10.5;

/// The noise transfer function of one run: ring degree plus the
/// worst-block concentration multiplier on every injected term. `1.0`
/// models the whole-ring average; a slot-batched run sets it to the
/// occupancy, because rounding noise is white in the coefficient domain
/// but its slot-domain energy fluctuates block to block, and a batched
/// verdict rests on the worst tenant's block.
#[derive(Debug, Clone, Copy)]
pub struct NoiseRule {
    n: f64,
    concentration: f64,
}

impl NoiseRule {
    /// The rule at ring degree `degree` (variance-domain `concentration`,
    /// so predicted RMS grows by its square root).
    pub fn new(degree: usize, concentration: f64) -> Self {
        NoiseRule {
            n: degree as f64,
            concentration,
        }
    }

    /// Decoded variance of a coefficient-domain term injected at a scale.
    fn injected(&self, coeff_var: f64, scale_bits: f64) -> f64 {
        self.concentration * coeff_var / 2f64.powf(2.0 * scale_bits)
    }

    /// The variance of op `i`'s result, given the variances of earlier
    /// values (`vars`, indexed by value) and the per-slot message
    /// mean-square of an operand (asked for multiplications only).
    pub fn step(
        &self,
        func: &Function,
        types: &[Type],
        i: usize,
        vars: &[f64],
        mean_sq: impl Fn(ValueId) -> f64,
    ) -> f64 {
        let n = self.n;
        let scale = types[i].scale().unwrap_or(0.0);
        let var = |v: &ValueId| vars[v.index()];
        let key_switch = || self.injected(n * n * SIGMA2 / 6.0, scale);
        match &func.ops()[i] {
            Op::Input { .. } => self.injected(2.0 * n * SIGMA2 + n / 12.0, scale),
            Op::Const { .. } => 0.0,
            Op::Encode { .. } => self.injected(n / 12.0, scale),
            Op::Add(a, b) | Op::Sub(a, b) => var(a) + var(b),
            Op::Mul(a, b) => {
                let cross = mean_sq(*a) * var(b) + mean_sq(*b) * var(a);
                if types[a.index()].is_cipher() && types[b.index()].is_cipher() {
                    cross + key_switch()
                } else {
                    cross
                }
            }
            Op::Rotate { value, .. } => var(value) + key_switch(),
            Op::Rescale(a) | Op::Downscale(a) => var(a) + self.injected(n * n / 36.0, scale),
            Op::Negate(a) | Op::ModSwitch(a) | Op::Upscale { value: a, .. } => var(a),
        }
    }

    /// [`NoiseRule::step`] over a whole function in SSA order: one
    /// variance per value.
    pub fn fold(
        &self,
        func: &Function,
        types: &[Type],
        mean_sq: impl Fn(ValueId) -> f64,
    ) -> Vec<f64> {
        let mut vars = Vec::with_capacity(func.len());
        for i in 0..func.len() {
            vars.push(self.step(func, types, i, &vars, &mean_sq));
        }
        vars
    }
}
