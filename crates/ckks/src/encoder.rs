//! CKKS encoding via the canonical embedding.
//!
//! A real vector `z ∈ R^{N/2}` is mapped to the unique real polynomial
//! `m(X) ∈ R[X]/(X^N+1)` with `m(ζ^{5^j}) = z_j` (and the conjugate
//! constraint at `ζ^{-5^j}`), where `ζ = e^{iπ/N}`. The slot ordering by
//! powers of 5 is what makes `X ↦ X^{5^r}` act as a cyclic rotation of the
//! slot vector.
//!
//! Implementation: evaluations at the odd powers `ζ^{2t+1}` are the plain
//! `N`-point DFT of the ζ-twisted coefficients, so encode = scatter slots to
//! their orbit positions → inverse FFT → untwist → scale and round; decode
//! is the reverse, from each coefficient's centered lift
//! ([`RnsPoly::lift_centered`]). A coefficient must stay below half the
//! level's modulus, or it would wrap and decode as a different value.

use crate::cipher::Plaintext;
use crate::params::CkksParams;
use hecate_math::fft::{Complex64, FftPlan};
use hecate_math::poly::RnsPoly;

/// Errors from encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    /// More values than slots.
    TooManyValues {
        /// Values provided.
        got: usize,
        /// Slots available.
        slots: usize,
    },
    /// An encoded coefficient does not fit: it reaches half the level's
    /// modulus `Q_level/2` (it would wrap) or overflows the 128-bit staging
    /// integer. The scale (plus message magnitude) is too large.
    ScaleOverflow {
        /// The offending scale in bits.
        scale_bits: f64,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TooManyValues { got, slots } => {
                write!(f, "{got} values exceed {slots} slots")
            }
            EncodeError::ScaleOverflow { scale_bits } => {
                write!(f, "coefficient overflow at scale 2^{scale_bits:.1}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encoder/decoder for a fixed parameter set.
#[derive(Debug)]
pub struct CkksEncoder {
    params: CkksParams,
    fft: FftPlan,
    /// ζ^j for the twist (forward), j = 0..N.
    twist: Vec<Complex64>,
    /// Position in the odd-power table for slot j: `t_j = (5^j mod 2N − 1)/2`.
    slot_pos: Vec<usize>,
    /// Position of the conjugate of slot j.
    conj_pos: Vec<usize>,
}

impl CkksEncoder {
    /// Builds an encoder for the given parameters.
    pub fn new(params: &CkksParams) -> Self {
        let n = params.degree();
        let two_n = 2 * n;
        let fft = FftPlan::new(n);
        let twist = (0..n)
            .map(|j| Complex64::from_angle(std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let mut slot_pos = Vec::with_capacity(n / 2);
        let mut conj_pos = Vec::with_capacity(n / 2);
        let mut power = 1usize; // 5^j mod 2N
        for _ in 0..n / 2 {
            slot_pos.push((power - 1) / 2);
            conj_pos.push((two_n - power - 1) / 2);
            power = power * 5 % two_n;
        }
        CkksEncoder {
            params: params.clone(),
            fft,
            twist,
            slot_pos,
            conj_pos,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.params.degree() / 2
    }

    /// Encodes real values into a plaintext at `scale_bits` and `level`.
    ///
    /// Fewer values than slots are zero-padded.
    ///
    /// # Errors
    /// Returns an error if too many values are given or a coefficient
    /// reaches half the level's modulus (see [`EncodeError::ScaleOverflow`]).
    pub fn encode(
        &self,
        values: &[f64],
        scale_bits: f64,
        level: usize,
    ) -> Result<Plaintext, EncodeError> {
        let complex: Vec<Complex64> = values.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        self.encode_complex(&complex, scale_bits, level)
    }

    /// Encodes complex slot values — CKKS's native message space.
    ///
    /// # Errors
    /// Same conditions as [`CkksEncoder::encode`].
    pub fn encode_complex(
        &self,
        values: &[Complex64],
        scale_bits: f64,
        level: usize,
    ) -> Result<Plaintext, EncodeError> {
        let slots = self.slots();
        if values.len() > slots {
            return Err(EncodeError::TooManyValues {
                got: values.len(),
                slots,
            });
        }
        let n = self.params.degree();
        // Scatter slots (and conjugates) into the odd-power evaluation table.
        let mut evals = vec![Complex64::default(); n];
        for (j, &z) in values.iter().enumerate() {
            evals[self.slot_pos[j]] = z;
            evals[self.conj_pos[j]] = z.conj();
        }
        // Evaluations at ζ^{2t+1} are Σ_j (a_j ζ^j)·ω^{+jt} (ω = e^{2πi/N}),
        // so the twisted coefficients are the forward DFT of the
        // evaluations divided by N.
        self.fft.forward(&mut evals);
        let scale = scale_bits.exp2() / n as f64;
        let mut coeffs = vec![0i128; n];
        let prefix = self.params.prefix_at_level(level);
        let primes = &self.params.basis().primes()[..prefix];
        let half_q = primes.iter().map(|&q| q as f64).product::<f64>() / 2.0;
        let limit = half_q.min(2f64.powi(124));
        for (j, e) in evals.iter().enumerate() {
            let c = (*e * self.twist[j].conj()).re * scale;
            if !c.is_finite() || c.abs() >= limit {
                return Err(EncodeError::ScaleOverflow { scale_bits });
            }
            coeffs[j] = c.round() as i128;
        }
        let poly = RnsPoly::from_i128_coeffs(self.params.basis(), prefix, &coeffs);
        Ok(Plaintext {
            poly,
            scale_bits,
            level,
        })
    }

    /// Decodes a plaintext back to real slot values (imaginary parts are
    /// discarded; use [`CkksEncoder::decode_complex`] to keep them).
    ///
    /// The plaintext may be in either domain; decoding does not mutate it.
    pub fn decode(&self, pt: &Plaintext) -> Vec<f64> {
        self.decode_complex(pt).into_iter().map(|z| z.re).collect()
    }

    /// Decodes a plaintext back to complex slot values.
    pub fn decode_complex(&self, pt: &Plaintext) -> Vec<Complex64> {
        let mut poly = pt.poly.clone();
        poly.to_coeff(self.params.basis());
        let n = self.params.degree();
        // Pre-scale by N to cancel the plan's 1/N normalization: the
        // evaluations are the ω^{+jt} transform *without* normalization.
        let mut evals: Vec<Complex64> = poly
            .lift_centered(self.params.basis(), pt.scale_bits)
            .into_iter()
            .zip(&self.twist)
            .map(|(v, &w)| (Complex64::new(v, 0.0) * w).scale(n as f64))
            .collect();
        self.fft.inverse(&mut evals);
        (0..self.slots()).map(|j| evals[self.slot_pos[j]]).collect()
    }
}

/// The integer a scale adjustment by `delta_bits` multiplies by:
/// round(2^δ), the constant polynomial the all-ones vector encodes to at
/// scale 2^δ, so multiplying by it is multiplying by that plaintext.
///
/// # Errors
/// Returns [`EncodeError::ScaleOverflow`] if the integer does not fit a
/// `u64` (δ ≥ 64) or δ is not a number. Compiled plans keep δ below the
/// rescale prime size, but plan files come from outside the program.
pub fn scale_multiplier(delta_bits: f64) -> Result<u64, EncodeError> {
    let m = delta_bits.exp2().round();
    if m < 2f64.powi(64) {
        Ok(m as u64)
    } else {
        Err(EncodeError::ScaleOverflow {
            scale_bits: delta_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CkksParams, CkksEncoder) {
        let params = CkksParams::new(64, 45, 30, 2, false).unwrap();
        let enc = CkksEncoder::new(&params);
        (params, enc)
    }

    #[test]
    fn roundtrip_small_vector() {
        let (_, enc) = setup();
        let vals = vec![1.0, -2.5, 3.25, 0.0, 0.125];
        let pt = enc.encode(&vals, 30.0, 0).unwrap();
        let out = enc.decode(&pt);
        for (i, &v) in vals.iter().enumerate() {
            assert!((out[i] - v).abs() < 1e-6, "slot {i}: {} vs {v}", out[i]);
        }
        for o in &out[vals.len()..] {
            assert!(o.abs() < 1e-6);
        }
    }

    #[test]
    fn roundtrip_full_slots_random() {
        let (_, enc) = setup();
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(1);
        let vals: Vec<f64> = (0..enc.slots())
            .map(|_| rng.next_range_f64(-10.0, 10.0))
            .collect();
        let pt = enc.encode(&vals, 35.0, 0).unwrap();
        let out = enc.decode(&pt);
        for (o, v) in out.iter().zip(&vals) {
            assert!((o - v).abs() < 1e-6);
        }
    }

    #[test]
    fn encode_at_lower_level_uses_shorter_prefix() {
        let (params, enc) = setup();
        let pt0 = enc.encode(&[1.0], 30.0, 0).unwrap();
        let pt2 = enc.encode(&[1.0], 30.0, 2).unwrap();
        assert_eq!(pt0.prefix(), params.prefix_at_level(0));
        assert_eq!(pt2.prefix(), params.prefix_at_level(2));
        assert!((enc.decode(&pt2)[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_scale_bits_supported() {
        // The compiler encodes constants at non-integral scales.
        let (_, enc) = setup();
        let pt = enc.encode(&[2.0, -4.0], 27.531, 0).unwrap();
        let out = enc.decode(&pt);
        assert!((out[0] - 2.0).abs() < 1e-5);
        assert!((out[1] + 4.0).abs() < 1e-5);
    }

    #[test]
    fn dropping_the_last_limb_equals_encoding_one_level_down() {
        // A plaintext `modswitch` drops a limb instead of re-encoding: the
        // integer coefficients are the same at every level, and the NTT
        // works limb by limb.
        let (params, enc) = setup();
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(3);
        let vals: Vec<f64> = (0..enc.slots())
            .map(|_| rng.next_range_f64(-4.0, 4.0))
            .collect();
        for (scale, level) in [(30.0, 0), (27.531, 1)] {
            let mut dropped = enc.encode(&vals, scale, level).unwrap();
            dropped.poly.drop_last();
            let mut lower = enc.encode(&vals, scale, level + 1).unwrap();
            assert_eq!(dropped.poly, lower.poly, "level {level}");
            let mut ntt = enc.encode(&vals, scale, level).unwrap().poly;
            ntt.to_ntt(params.basis());
            ntt.drop_last();
            lower.poly.to_ntt(params.basis());
            assert_eq!(ntt, lower.poly, "level {level}, NTT form");
        }
    }

    #[test]
    fn too_many_values_error() {
        let (_, enc) = setup();
        let vals = vec![0.0; enc.slots() + 1];
        assert!(matches!(
            enc.encode(&vals, 30.0, 0),
            Err(EncodeError::TooManyValues { .. })
        ));
    }

    #[test]
    fn scale_overflow_error() {
        let (_, enc) = setup();
        assert!(matches!(
            enc.encode(&[1.0], 130.0, 0),
            Err(EncodeError::ScaleOverflow { .. })
        ));
    }

    #[test]
    fn encode_rejects_a_coefficient_the_level_cannot_hold() {
        // At level 2 only q0 (45 bits) is left. 2^22 in every slot at scale
        // 2^24 is the constant coefficient 2^46, past q0/2: it would wrap.
        let (_, enc) = setup();
        let at = |v: f64| vec![v; enc.slots()];
        assert!(matches!(
            enc.encode(&at(2f64.powi(22)), 24.0, 2),
            Err(EncodeError::ScaleOverflow { .. })
        ));
        // The full chain holds it, and 2^19 (coefficient 2^43) fits q0.
        for (v, level) in [(2f64.powi(22), 0), (2f64.powi(19), 2)] {
            let out = enc.decode(&enc.encode(&at(v), 24.0, level).unwrap());
            assert!(
                out.iter().all(|o| (o / v - 1.0).abs() < 1e-6),
                "{v} at {level}"
            );
        }
    }

    #[test]
    fn encoding_is_additively_homomorphic() {
        let (params, enc) = setup();
        let a = enc.encode(&[1.5, 2.0], 30.0, 0).unwrap();
        let b = enc.encode(&[0.25, -1.0], 30.0, 0).unwrap();
        let mut sum = a.poly.clone();
        sum.add_assign(&b.poly, params.basis());
        let pt = Plaintext {
            poly: sum,
            scale_bits: 30.0,
            level: 0,
        };
        let out = enc.decode(&pt);
        assert!((out[0] - 1.75).abs() < 1e-6);
        assert!((out[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rotation_via_automorphism_rotates_slots() {
        // The 5^r automorphism on the encoded polynomial must rotate slots
        // left by r — this is the property the evaluator's rotate relies on.
        let (params, enc) = setup();
        let vals: Vec<f64> = (0..enc.slots()).map(|i| i as f64).collect();
        let pt = enc.encode(&vals, 30.0, 0).unwrap();
        let r = 3usize;
        let g = {
            let two_n = 2 * params.degree();
            let mut g = 1usize;
            for _ in 0..r {
                g = g * 5 % two_n;
            }
            g
        };
        let rotated = Plaintext {
            poly: pt.poly.automorphism(g, params.basis()),
            scale_bits: pt.scale_bits,
            level: 0,
        };
        let out = enc.decode(&rotated);
        for j in 0..enc.slots() {
            let expect = vals[(j + r) % enc.slots()];
            assert!((out[j] - expect).abs() < 1e-6, "slot {j}");
        }
    }
}
