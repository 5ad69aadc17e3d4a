//! The levelled homomorphic evaluator.
//!
//! Implements the RNS-CKKS operation set the HECATE compiler targets:
//! ciphertext/plaintext addition and multiplication, negation, slot
//! rotation, `rescale` (divide by the last active prime, level +1) and
//! `modswitch` (drop the last active prime, level +1). The evaluator
//! enforces the paper's operand constraints at runtime — matching levels
//! for binary operations (C3) and matching scales for addition — so a
//! miscompiled program fails loudly rather than decrypting garbage.
//!
//! Ciphertexts are kept in NTT form between operations. `rescale` and the
//! key-switch mod-down inverse-transform only the limb they drop, and the
//! digit decomposition behind rotation and relinearization reads the
//! coefficients of a copy of the one component it splits, reusing that
//! component's own NTT limbs.
//! This matches how SEAL executes CKKS and gives operations the latency
//! structure the paper's cost model describes: an operation at level `k`
//! touches `L+1−k` primes, so deeper levels are cheaper.

use crate::cipher::{Ciphertext, Plaintext};
use crate::keys::{
    galois_element, hoisted_decompose, key_switch_hoisted, HoistedDecomp, KeyGenerator,
    KeySwitchKey,
};
use crate::params::CkksParams;
use hecate_math::poly::RnsPoly;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Tolerance (in log2 bits) when requiring two scales to be equal.
pub const SCALE_EQ_TOLERANCE_BITS: f64 = 1e-6;

/// Errors from homomorphic evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Binary operation on operands at different levels (violates C3).
    LevelMismatch {
        /// Left operand level.
        lhs: usize,
        /// Right operand level.
        rhs: usize,
    },
    /// Addition of operands with different scales.
    ScaleMismatch {
        /// Left operand scale (log2 bits).
        lhs: f64,
        /// Right operand scale (log2 bits).
        rhs: f64,
    },
    /// No relinearization or Galois key serving this prefix
    /// was generated: none for the target, or one for a shorter prefix.
    MissingKey {
        /// Description of the missing key.
        what: String,
    },
    /// Rescale or modswitch at the bottom of the modulus chain.
    BottomOfChain,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::LevelMismatch { lhs, rhs } => {
                write!(f, "operand levels differ: {lhs} vs {rhs}")
            }
            EvalError::ScaleMismatch { lhs, rhs } => {
                write!(f, "operand scales differ: 2^{lhs:.3} vs 2^{rhs:.3}")
            }
            EvalError::MissingKey { what } => write!(f, "missing evaluation key: {what}"),
            EvalError::BottomOfChain => write!(f, "no rescale prime left to consume"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The evaluation keys a program needs, one per target: a
/// relinearization key and a Galois key per canonical rotation step.
/// Each is generated once, at the largest active prefix
/// any requirement names for it, and serves every shorter prefix (see
/// [`crate::keys`]); an operation above a key's prefix is
/// [`EvalError::MissingKey`].
#[derive(Debug, Default)]
pub struct EvalKeys {
    relin: Option<KeySwitchKey>,
    galois: HashMap<usize, KeySwitchKey>,
}

impl EvalKeys {
    /// Generates one key per requested target.
    ///
    /// * `relin_prefixes` — prefix lengths at which ct×ct multiplication
    ///   occurs: one relinearization key, at the largest;
    /// * `rotations` — `(step, prefix)` pairs at which rotation occurs:
    ///   one Galois key per step, at the largest prefix named for it.
    ///
    /// Rotation steps are canonicalized modulo the slot count before
    /// generation, so wrapped steps (`slots + k`) share one key with
    /// their canonical form `k` and full rotations (`step ≡ 0`) generate
    /// no key at all — they are the identity. Keys are generated in step
    /// order, so the key material depends only on the requirement set.
    pub fn generate(
        kg: &mut KeyGenerator,
        relin_prefixes: &[usize],
        rotations: &[(usize, usize)],
    ) -> Self {
        let mut steps: BTreeMap<usize, usize> = BTreeMap::new();
        for &(step, c) in rotations {
            let step = kg.params().canonical_step(step);
            if step != 0 {
                let top = steps.entry(step).or_default();
                *top = (*top).max(c);
            }
        }
        EvalKeys {
            relin: relin_prefixes.iter().max().map(|&c| kg.relin_key(c)),
            galois: steps
                .into_iter()
                .map(|(step, c)| (step, kg.galois_key(step, c)))
                .collect(),
        }
    }

    /// Number of Galois keys held: one per distinct nonzero canonical
    /// step, whatever the prefixes it rotates at.
    pub fn galois_key_count(&self) -> usize {
        self.galois.len()
    }
}

/// `key` if it serves active prefix `c`, else [`EvalError::MissingKey`]
/// naming `what` at `c`.
fn serving(
    key: Option<&KeySwitchKey>,
    c: usize,
    what: impl FnOnce() -> String,
) -> Result<&KeySwitchKey, EvalError> {
    key.filter(|k| k.prefix >= c)
        .ok_or_else(|| EvalError::MissingKey {
            what: format!("{} at prefix {c}", what()),
        })
}

/// The homomorphic evaluator.
#[derive(Debug)]
pub struct Evaluator {
    params: CkksParams,
    keys: EvalKeys,
    /// Scoped threads for the per-limb kernel inner loops (`1` = serial).
    kernel_jobs: usize,
    /// Galois slot permutations by Galois element; prime-independent, so
    /// one entry serves every limb of every ciphertext.
    perms: Mutex<HashMap<usize, Arc<Vec<usize>>>>,
}

impl Evaluator {
    /// Creates an evaluator over the given parameters and keys.
    pub fn new(params: &CkksParams, keys: EvalKeys) -> Self {
        Evaluator {
            params: params.clone(),
            keys,
            kernel_jobs: 1,
            perms: Mutex::new(HashMap::new()),
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Sets the per-limb kernel parallelism (`1` = serial). Results are
    /// bit-identical at every job count; this only trades wall-clock
    /// time for threads.
    pub fn set_kernel_jobs(&mut self, jobs: usize) {
        self.kernel_jobs = jobs.max(1);
    }

    /// The configured per-limb kernel parallelism.
    pub fn kernel_jobs(&self) -> usize {
        self.kernel_jobs
    }

    /// The cached Galois slot permutation for element `g`.
    fn galois_perm(&self, g: usize) -> Arc<Vec<usize>> {
        let mut cache = self.perms.lock().unwrap_or_else(|e| e.into_inner());
        cache
            .entry(g)
            .or_insert_with(|| Arc::new(self.params.basis().ntt(0).galois_permutation(g)))
            .clone()
    }

    fn check_levels(a: usize, b: usize) -> Result<(), EvalError> {
        if a != b {
            return Err(EvalError::LevelMismatch { lhs: a, rhs: b });
        }
        Ok(())
    }

    fn check_scales(a: f64, b: f64) -> Result<(), EvalError> {
        if (a - b).abs() > SCALE_EQ_TOLERANCE_BITS {
            return Err(EvalError::ScaleMismatch { lhs: a, rhs: b });
        }
        Ok(())
    }

    /// Homomorphic ciphertext addition. Requires equal levels and scales.
    ///
    /// # Errors
    /// Returns [`EvalError::LevelMismatch`] or [`EvalError::ScaleMismatch`].
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        Self::check_levels(a.level, b.level)?;
        Self::check_scales(a.scale_bits, b.scale_bits)?;
        let basis = self.params.basis();
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.add_assign(&b.c0, basis);
        c1.add_assign(&b.c1, basis);
        Ok(Ciphertext {
            c0,
            c1,
            scale_bits: a.scale_bits,
            level: a.level,
        })
    }

    /// Homomorphic ciphertext subtraction (same constraints as [`add`]).
    ///
    /// [`add`]: Evaluator::add
    ///
    /// # Errors
    /// Returns [`EvalError::LevelMismatch`] or [`EvalError::ScaleMismatch`].
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        let mut neg = b.clone();
        neg.c0.negate(self.params.basis());
        neg.c1.negate(self.params.basis());
        self.add(a, &neg)
    }

    /// Negates a ciphertext.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let basis = self.params.basis();
        let mut out = a.clone();
        out.c0.negate(basis);
        out.c1.negate(basis);
        out
    }

    /// Adds a plaintext to a ciphertext (equal level and scale required).
    ///
    /// # Errors
    /// Returns [`EvalError::LevelMismatch`] or [`EvalError::ScaleMismatch`].
    pub fn add_plain(&self, a: &Ciphertext, p: &Plaintext) -> Result<Ciphertext, EvalError> {
        Self::check_levels(a.level, p.level)?;
        Self::check_scales(a.scale_bits, p.scale_bits)?;
        let basis = self.params.basis();
        let mut m = p.poly.clone();
        m.to_ntt(basis);
        let mut c0 = a.c0.clone();
        c0.add_assign(&m, basis);
        Ok(Ciphertext {
            c0,
            c1: a.c1.clone(),
            scale_bits: a.scale_bits,
            level: a.level,
        })
    }

    /// Multiplies a ciphertext by a plaintext. Scales multiply (bits add);
    /// levels must match.
    ///
    /// # Errors
    /// Returns [`EvalError::LevelMismatch`].
    pub fn mul_plain(&self, a: &Ciphertext, p: &Plaintext) -> Result<Ciphertext, EvalError> {
        Self::check_levels(a.level, p.level)?;
        let basis = self.params.basis();
        let mut m = p.poly.clone();
        m.to_ntt(basis);
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.mul_assign_pointwise(&m, basis);
        c1.mul_assign_pointwise(&m, basis);
        Ok(Ciphertext {
            c0,
            c1,
            scale_bits: a.scale_bits + p.scale_bits,
            level: a.level,
        })
    }

    /// Multiplies a ciphertext by the integer `m`: the scale grows by
    /// `log2 m` bits and the level is unchanged. Bit-identical to
    /// [`mul_plain`] by the all-ones vector encoded at a scale 2^δ with
    /// [`scale_multiplier`]`(δ) = m`, whose polynomial is the constant
    /// `m`, without encoding it.
    ///
    /// [`mul_plain`]: Evaluator::mul_plain
    /// [`scale_multiplier`]: crate::encoder::scale_multiplier
    pub fn mul_integer(&self, a: &Ciphertext, m: u64) -> Ciphertext {
        let basis = self.params.basis();
        let mut out = a.clone();
        out.c0.mul_scalar(m, basis);
        out.c1.mul_scalar(m, basis);
        out.scale_bits += (m as f64).log2();
        out
    }

    /// Multiplies two ciphertexts and relinearizes. Scales multiply (bits
    /// add); levels must match; the result is *not* rescaled.
    ///
    /// # Errors
    /// Returns [`EvalError::LevelMismatch`] if levels differ or
    /// [`EvalError::MissingKey`] if no relinearization key serves this
    /// prefix.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, EvalError> {
        Self::check_levels(a.level, b.level)?;
        let rk = serving(self.keys.relin.as_ref(), a.prefix(), || "relin key".into())?;
        let basis = self.params.basis();
        // (c0, c1)·(d0, d1) = (c0d0, c0d1 + c1d0, c1d1)
        let mut t0 = a.c0.clone();
        t0.mul_assign_pointwise(&b.c0, basis);
        let mut t1a = a.c0.clone();
        t1a.mul_assign_pointwise(&b.c1, basis);
        let mut t1b = a.c1.clone();
        t1b.mul_assign_pointwise(&b.c0, basis);
        t1a.add_assign(&t1b, basis);
        let mut t2 = a.c1.clone();
        t2.mul_assign_pointwise(&b.c1, basis);
        // Relinearize the quadratic component.
        let hd = hoisted_decompose(&t2, &self.params, self.kernel_jobs);
        let (kb, ka) = self.switch(&hd, None, rk);
        t0.add_assign(&kb, basis);
        t1a.add_assign(&ka, basis);
        Ok(Ciphertext {
            c0: t0,
            c1: t1a,
            scale_bits: a.scale_bits + b.scale_bits,
            level: a.level,
        })
    }

    /// Squares a ciphertext (same as [`mul`] with itself).
    ///
    /// [`mul`]: Evaluator::mul
    ///
    /// # Errors
    /// Returns [`EvalError::MissingKey`] if no relinearization key serves
    /// this prefix.
    pub fn square(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        self.mul(a, a)
    }

    /// Rescales: divides by the last active prime and increases the level.
    /// The exact scale decreases by `log2(q_dropped)`.
    ///
    /// # Errors
    /// Returns [`EvalError::BottomOfChain`] at the end of the chain.
    pub fn rescale(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        if a.prefix() <= 1 {
            return Err(EvalError::BottomOfChain);
        }
        let basis = self.params.basis();
        let dropped_bits = (basis.prime(a.prefix() - 1) as f64).log2();
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.rescale_last_jobs(basis, self.kernel_jobs);
        c1.rescale_last_jobs(basis, self.kernel_jobs);
        Ok(Ciphertext {
            c0,
            c1,
            scale_bits: a.scale_bits - dropped_bits,
            level: a.level + 1,
        })
    }

    /// Switches modulus down: drops the last active prime, increasing the
    /// level without changing the scale.
    ///
    /// # Errors
    /// Returns [`EvalError::BottomOfChain`] at the end of the chain.
    pub fn mod_switch(&self, a: &Ciphertext) -> Result<Ciphertext, EvalError> {
        if a.prefix() <= 1 {
            return Err(EvalError::BottomOfChain);
        }
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.drop_last();
        c1.drop_last();
        Ok(Ciphertext {
            c0,
            c1,
            scale_bits: a.scale_bits,
            level: a.level + 1,
        })
    }

    /// Rotates slot vectors left by `step` (cyclic over `N/2` slots): a
    /// [`hoist`] of `a` consumed by one [`rotate_hoisted`], so a lone
    /// rotation runs the same kernel as a fan-out.
    ///
    /// [`hoist`]: Evaluator::hoist
    /// [`rotate_hoisted`]: Evaluator::rotate_hoisted
    ///
    /// # Errors
    /// Returns [`EvalError::MissingKey`] if no Galois key for `step`
    /// serves this prefix.
    pub fn rotate(&self, a: &Ciphertext, step: usize) -> Result<Ciphertext, EvalError> {
        let step = self.params.canonical_step(step);
        if step == 0 {
            return Ok(a.clone());
        }
        let gk = self.galois_key_for(step, a.prefix())?;
        Ok(self.apply_galois(a, &self.hoist(a), galois_element(&self.params, step), gk))
    }

    /// The Galois key for a canonical step, if it serves prefix `c`.
    fn galois_key_for(&self, step: usize, c: usize) -> Result<&KeySwitchKey, EvalError> {
        serving(self.keys.galois.get(&step), c, || {
            format!("galois key for step {step}")
        })
    }

    /// Precomputes the shared (Halevi–Shoup hoisted) part of rotating
    /// `a`: the RNS digit decomposition of `c1` over the extended basis.
    /// One decomposition serves every [`rotate_hoisted`] of the same
    /// ciphertext — its `c` inverse and `c²` forward NTTs (`c1`'s own NTT
    /// limbs are the other `c` rows), which dominate a rotation, are paid
    /// once instead of once per step.
    ///
    /// [`rotate_hoisted`]: Evaluator::rotate_hoisted
    pub fn hoist(&self, a: &Ciphertext) -> HoistedDecomp {
        hoisted_decompose(&a.c1, &self.params, self.kernel_jobs)
    }

    /// Rotates using a decomposition precomputed by [`Evaluator::hoist`]
    /// on the *same* ciphertext. Digit decomposition commutes with the
    /// Galois automorphism, which acts on the evaluation domain as a pure
    /// slot permutation, so the result is bit-identical to decomposing
    /// the rotated ciphertext.
    ///
    /// # Errors
    /// Returns [`EvalError::MissingKey`] if no Galois key for `step`
    /// serves this prefix.
    ///
    /// # Panics
    /// Panics if `hd` was hoisted at a different prefix than `a`.
    pub fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        hd: &HoistedDecomp,
        step: usize,
    ) -> Result<Ciphertext, EvalError> {
        let step = self.params.canonical_step(step);
        if step == 0 {
            return Ok(a.clone());
        }
        let c = a.prefix();
        assert_eq!(hd.prefix(), c, "hoisted decomposition prefix mismatch");
        let gk = self.galois_key_for(step, c)?;
        Ok(self.apply_galois(a, hd, galois_element(&self.params, step), gk))
    }

    /// The automorphism `X ↦ X^g` of `a`, given the decomposition `hd` of
    /// its `c1`: the key switch permutes `c1`'s digit rows, and `c0` is
    /// permuted in the evaluation domain directly — the same slot
    /// permutation, no coefficient-domain round trip.
    fn apply_galois(
        &self,
        a: &Ciphertext,
        hd: &HoistedDecomp,
        g: usize,
        key: &KeySwitchKey,
    ) -> Ciphertext {
        let perm = self.galois_perm(g);
        let (kb, ka) = self.switch(hd, Some(&perm), key);
        let mut c0 = a.c0.automorphism_ntt(&perm);
        c0.add_assign(&kb, self.params.basis());
        Ciphertext {
            c0,
            c1: ka,
            scale_bits: a.scale_bits,
            level: a.level,
        }
    }

    /// Key-switches a decomposition with `key` (through the slot
    /// permutation `perm`, if any) and returns `(b, a)` in NTT form. The
    /// mod-down stays in the evaluation domain, so a switch after its MAC
    /// runs `2c + 2` transforms (two inverse, on the special prime), not
    /// the `4c + 2` of a coefficient-domain mod-down and its way back.
    fn switch(
        &self,
        hd: &HoistedDecomp,
        perm: Option<&[usize]>,
        key: &KeySwitchKey,
    ) -> (RnsPoly, RnsPoly) {
        key_switch_hoisted(hd, perm, key, &self.params, self.kernel_jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{scale_multiplier, CkksEncoder, EncodeError};
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;

    struct Fixture {
        params: CkksParams,
        enc: CkksEncoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        eval: Evaluator,
    }

    /// Keys generated at the full chain serve every level below it.
    fn setup(levels: usize, rotations: &[usize]) -> Fixture {
        setup_keyed(levels, |kg, chain| {
            let rots: Vec<(usize, usize)> = rotations.iter().map(|&s| (s, chain)).collect();
            EvalKeys::generate(kg, &[chain], &rots)
        })
    }

    /// A fixture whose keys `make_keys` builds from the generator and the
    /// chain length.
    fn setup_keyed(
        levels: usize,
        make_keys: impl FnOnce(&mut KeyGenerator, usize) -> EvalKeys,
    ) -> Fixture {
        let params = CkksParams::new(128, 45, 30, levels, false).unwrap();
        let enc = CkksEncoder::new(&params);
        let mut kg = KeyGenerator::new(&params, 11);
        let pk = kg.public_key();
        let keys = make_keys(&mut kg, params.basis().chain_len());
        Fixture {
            enc,
            encryptor: Encryptor::new(&params, pk, 13),
            decryptor: Decryptor::new(&params, kg.secret_key().clone()),
            eval: Evaluator::new(&params, keys),
            params,
        }
    }

    fn roundtrip(f: &Fixture, ct: &Ciphertext) -> Vec<f64> {
        f.enc.decode(&f.decryptor.decrypt(ct))
    }

    #[test]
    fn add_and_sub() {
        let mut f = setup(2, &[]);
        let a = f
            .encryptor
            .encrypt(&f.enc.encode(&[1.0, 2.0], 30.0, 0).unwrap());
        let b = f
            .encryptor
            .encrypt(&f.enc.encode(&[0.5, -1.0], 30.0, 0).unwrap());
        let sum = f.eval.add(&a, &b).unwrap();
        let out = roundtrip(&f, &sum);
        assert!((out[0] - 1.5).abs() < 1e-3 && (out[1] - 1.0).abs() < 1e-3);
        let diff = f.eval.sub(&a, &b).unwrap();
        let out = roundtrip(&f, &diff);
        assert!((out[0] - 0.5).abs() < 1e-3 && (out[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn negate_flips_sign() {
        let mut f = setup(1, &[]);
        let a = f.encryptor.encrypt(&f.enc.encode(&[2.5], 30.0, 0).unwrap());
        let out = roundtrip(&f, &f.eval.negate(&a));
        assert!((out[0] + 2.5).abs() < 1e-3);
    }

    #[test]
    fn plain_ops() {
        let mut f = setup(2, &[]);
        let a = f.encryptor.encrypt(&f.enc.encode(&[3.0], 30.0, 0).unwrap());
        let p_add = f.enc.encode(&[1.5], 30.0, 0).unwrap();
        let out = roundtrip(&f, &f.eval.add_plain(&a, &p_add).unwrap());
        assert!((out[0] - 4.5).abs() < 1e-3);

        let p_mul = f.enc.encode(&[2.0], 30.0, 0).unwrap();
        let prod = f.eval.mul_plain(&a, &p_mul).unwrap();
        assert!((prod.scale_bits - 60.0).abs() < 1e-9);
        let out = roundtrip(&f, &prod);
        assert!((out[0] - 6.0).abs() < 1e-3);
    }

    #[test]
    fn mul_then_rescale() {
        let mut f = setup(2, &[]);
        let a = f
            .encryptor
            .encrypt(&f.enc.encode(&[3.0, -1.5], 30.0, 0).unwrap());
        let b = f
            .encryptor
            .encrypt(&f.enc.encode(&[2.0, 4.0], 30.0, 0).unwrap());
        let prod = f.eval.mul(&a, &b).unwrap();
        assert_eq!(prod.level, 0);
        assert!((prod.scale_bits - 60.0).abs() < 1e-9);
        let rs = f.eval.rescale(&prod).unwrap();
        assert_eq!(rs.level, 1);
        // Exact scale is 60 − log2(q_dropped) ≈ 30.
        assert!((rs.scale_bits - 30.0).abs() < 0.1);
        let out = roundtrip(&f, &rs);
        assert!((out[0] - 6.0).abs() < 1e-3, "{}", out[0]);
        assert!((out[1] + 6.0).abs() < 1e-3, "{}", out[1]);
    }

    #[test]
    fn deep_multiplication_chain() {
        // x^8 via three squarings with rescales: exercises every level.
        let mut f = setup(3, &[]);
        let x = f.encryptor.encrypt(&f.enc.encode(&[1.1], 30.0, 0).unwrap());
        let mut cur = x;
        for _ in 0..3 {
            cur = f.eval.rescale(&f.eval.square(&cur).unwrap()).unwrap();
        }
        assert_eq!(cur.level, 3);
        let out = roundtrip(&f, &cur);
        let expect = 1.1f64.powi(8);
        assert!((out[0] - expect).abs() < 2e-2, "{} vs {expect}", out[0]);
    }

    #[test]
    fn modswitch_preserves_value_and_scale() {
        let mut f = setup(2, &[]);
        let a = f
            .encryptor
            .encrypt(&f.enc.encode(&[7.25], 30.0, 0).unwrap());
        let ms = f.eval.mod_switch(&a).unwrap();
        assert_eq!(ms.level, 1);
        assert_eq!(ms.scale_bits, 30.0);
        let out = roundtrip(&f, &ms);
        assert!((out[0] - 7.25).abs() < 1e-3);
    }

    #[test]
    fn rotation_rotates_slots() {
        let mut f = setup(1, &[1, 5]);
        let slots = f.params.slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i % 7) as f64).collect();
        let ct = f.encryptor.encrypt(&f.enc.encode(&vals, 30.0, 0).unwrap());
        for step in [1usize, 5] {
            let rot = f.eval.rotate(&ct, step).unwrap();
            let out = roundtrip(&f, &rot);
            for j in 0..slots {
                let expect = vals[(j + step) % slots];
                assert!(
                    (out[j] - expect).abs() < 1e-2,
                    "step {step} slot {j}: {} vs {expect}",
                    out[j]
                );
            }
        }
    }

    #[test]
    fn rotate_by_full_slot_count_is_identity() {
        let mut f = setup(1, &[]);
        let slots = f.params.slots();
        let ct = f.encryptor.encrypt(&f.enc.encode(&[4.0], 30.0, 0).unwrap());
        // No Galois keys were generated at all: a full rotation must not
        // need one (its canonical step is 0).
        let rot = f.eval.rotate(&ct, slots).unwrap();
        assert_eq!(rot.c0, ct.c0);
        assert_eq!(rot.c1, ct.c1);
        let double = f.eval.rotate(&ct, 2 * slots).unwrap();
        assert_eq!(double.c0, ct.c0);
    }

    #[test]
    fn rotate_wrapped_step_equals_canonical_step() {
        // Keys requested under the *wrapped* step must be found when
        // rotating by either form, and the results must be bit-identical.
        let params = CkksParams::new(128, 45, 30, 1, false).unwrap();
        let slots = params.slots();
        let enc = CkksEncoder::new(&params);
        let mut kg = KeyGenerator::new(&params, 11);
        let pk = kg.public_key();
        let chain: Vec<usize> = (1..=params.basis().chain_len()).collect();
        // Request step 3 twice — once wrapped — plus a full rotation.
        let rots: Vec<(usize, usize)> = chain
            .iter()
            .flat_map(|&c| [(slots + 3, c), (3, c), (slots, c)])
            .collect();
        let keys = EvalKeys::generate(&mut kg, &[], &rots);
        // One key in total: wrapped and zero-equivalent steps add none,
        // and a key generated at the largest prefix serves the smaller
        // ones, so requesting step 3 at every prefix is still one key.
        assert_eq!(
            keys.galois_key_count(),
            1,
            "wrapped steps and lower prefixes must not generate redundant keys"
        );
        let eval = Evaluator::new(&params, keys);
        let mut encryptor = Encryptor::new(&params, pk, 13);
        let vals: Vec<f64> = (0..slots).map(|i| (i % 5) as f64).collect();
        let ct = encryptor.encrypt(&enc.encode(&vals, 30.0, 0).unwrap());
        let canonical = eval.rotate(&ct, 3).unwrap();
        let wrapped = eval.rotate(&ct, slots + 3).unwrap();
        assert_eq!(wrapped.c0, canonical.c0, "rotate(slots+3) == rotate(3)");
        assert_eq!(wrapped.c1, canonical.c1);
    }

    #[test]
    fn hoisted_rotation_is_bit_identical_to_plain_rotation() {
        for jobs in [1usize, 2, 4] {
            let mut f = setup(1, &[1, 5]);
            f.eval.set_kernel_jobs(jobs);
            let slots = f.params.slots();
            let vals: Vec<f64> = (0..slots).map(|i| (i % 7) as f64).collect();
            let ct = f.encryptor.encrypt(&f.enc.encode(&vals, 30.0, 0).unwrap());
            let hd = f.eval.hoist(&ct);
            for step in [1usize, 5, slots + 1] {
                let plain = f.eval.rotate(&ct, step).unwrap();
                let hoisted = f.eval.rotate_hoisted(&ct, &hd, step).unwrap();
                assert_eq!(hoisted.c0, plain.c0, "jobs {jobs} step {step}");
                assert_eq!(hoisted.c1, plain.c1, "jobs {jobs} step {step}");
                assert_eq!(hoisted.scale_bits, plain.scale_bits);
                assert_eq!(hoisted.level, plain.level);
            }
        }
    }

    #[test]
    fn kernel_jobs_do_not_change_mul_or_rotate() {
        let mut base = setup(2, &[1]);
        let vals = [1.5f64, -0.25, 3.0];
        let a = base
            .encryptor
            .encrypt(&base.enc.encode(&vals, 30.0, 0).unwrap());
        let seq_mul = base.eval.mul(&a, &a).unwrap();
        let seq_rot = base.eval.rotate(&a, 1).unwrap();
        for jobs in [2usize, 4] {
            base.eval.set_kernel_jobs(jobs);
            let par_mul = base.eval.mul(&a, &a).unwrap();
            let par_rot = base.eval.rotate(&a, 1).unwrap();
            assert_eq!(par_mul.c0, seq_mul.c0, "jobs = {jobs}");
            assert_eq!(par_mul.c1, seq_mul.c1, "jobs = {jobs}");
            assert_eq!(par_rot.c0, seq_rot.c0, "jobs = {jobs}");
            assert_eq!(par_rot.c1, seq_rot.c1, "jobs = {jobs}");
        }
        base.eval.set_kernel_jobs(1);
    }

    #[test]
    fn rotate_by_zero_is_identity() {
        let mut f = setup(1, &[]);
        let ct = f.encryptor.encrypt(&f.enc.encode(&[9.0], 30.0, 0).unwrap());
        let rot = f.eval.rotate(&ct, 0).unwrap();
        let out = roundtrip(&f, &rot);
        assert!((out[0] - 9.0).abs() < 1e-3);
    }

    #[test]
    fn constraint_violations_reported() {
        let mut f = setup(2, &[]);
        let a = f.encryptor.encrypt(&f.enc.encode(&[1.0], 30.0, 0).unwrap());
        let b = f.encryptor.encrypt(&f.enc.encode(&[1.0], 30.0, 1).unwrap());
        assert!(matches!(
            f.eval.add(&a, &b),
            Err(EvalError::LevelMismatch { .. })
        ));
        let c = f.encryptor.encrypt(&f.enc.encode(&[1.0], 31.0, 0).unwrap());
        assert!(matches!(
            f.eval.add(&a, &c),
            Err(EvalError::ScaleMismatch { .. })
        ));
        let rot_err = f.eval.rotate(&a, 3);
        assert!(matches!(rot_err, Err(EvalError::MissingKey { .. })));

        // Keys generated at prefix 2 of a 3-prime chain serve prefixes 1
        // and 2 only: a switch at prefix 3 is a typed error, not a panic.
        let mut g = setup_keyed(2, |kg, _| EvalKeys::generate(kg, &[2], &[(1, 2)]));
        let top = g.encryptor.encrypt(&g.enc.encode(&[1.0], 30.0, 0).unwrap());
        assert_eq!(top.prefix(), 3);
        for result in [g.eval.mul(&top, &top), g.eval.rotate(&top, 1)] {
            let err = result.err();
            assert!(matches!(err, Some(EvalError::MissingKey { .. })), "{err:?}");
        }
        // The same keys at prefix 1 switch to the right values.
        let slots = g.params.slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i % 5) as f64 * 0.25 - 0.5).collect();
        let low = g.encryptor.encrypt(&g.enc.encode(&vals, 20.0, 2).unwrap());
        assert_eq!(low.prefix(), 1);
        let squared: Vec<f64> = vals.iter().map(|v| v * v).collect();
        let rotated: Vec<f64> = (0..slots).map(|j| vals[(j + 1) % slots]).collect();
        for (what, ct, want) in [
            ("mul", g.eval.mul(&low, &low).unwrap(), &squared),
            ("rotate", g.eval.rotate(&low, 1).unwrap(), &rotated),
        ] {
            let out = roundtrip(&g, &ct);
            for (j, (o, w)) in out.iter().zip(want).enumerate() {
                assert!((o - w).abs() < 2f64.powi(-8), "{what} slot {j}: {o} vs {w}");
            }
        }
    }

    #[test]
    fn integer_multiply_equals_product_with_encoded_ones() {
        // `upscale` and `downscale` multiply by round(2^δ) instead of by
        // the all-ones vector encoded at scale 2^δ (the reference kept
        // here): the encoder maps that vector to the constant polynomial
        // round(2^δ), fractional δ included.
        for degree in [512, 4096] {
            let params = CkksParams::new(degree, 60, 40, 2, false).unwrap();
            let enc = CkksEncoder::new(&params);
            let mut kg = KeyGenerator::new(&params, 5);
            let mut encryptor = Encryptor::new(&params, kg.public_key(), 6);
            let eval = Evaluator::new(&params, EvalKeys::default());
            let ones = vec![1.0; params.slots()];
            for level in [0, 1] {
                let ct = encryptor.encrypt(&enc.encode(&[0.5, -1.25], 30.0, level).unwrap());
                for delta in (0..=40).map(|k| k as f64 * 1.55) {
                    let m = scale_multiplier(delta).unwrap();
                    let want = eval
                        .mul_plain(&ct, &enc.encode(&ones, delta, level).unwrap())
                        .unwrap();
                    let got = eval.mul_integer(&ct, m);
                    assert_eq!(got.c0, want.c0, "degree {degree} level {level} δ {delta}");
                    assert_eq!(got.c1, want.c1, "degree {degree} level {level} δ {delta}");
                    assert_eq!(got.level, want.level);
                }
            }
        }
        for delta in [64.0, 100.0, f64::INFINITY, f64::NAN] {
            let err = scale_multiplier(delta);
            assert!(
                matches!(err, Err(EncodeError::ScaleOverflow { .. })),
                "δ {delta}: {err:?}"
            );
        }
        assert_eq!(scale_multiplier(63.0), Ok(1 << 63));
    }

    #[test]
    fn bottom_of_chain_reported() {
        let mut f = setup(1, &[]);
        let a = f.encryptor.encrypt(&f.enc.encode(&[1.0], 30.0, 1).unwrap());
        assert!(matches!(f.eval.rescale(&a), Err(EvalError::BottomOfChain)));
        assert!(matches!(
            f.eval.mod_switch(&a),
            Err(EvalError::BottomOfChain)
        ));
    }

    #[test]
    fn relative_error_stays_below_error_bound() {
        // The paper's accepted error bound is 2^-8; a single mul+rescale at
        // waterline 30 must be far below it.
        let mut f = setup(1, &[]);
        let vals = [0.5f64, 1.0, -0.75];
        let a = f.encryptor.encrypt(&f.enc.encode(&vals, 30.0, 0).unwrap());
        let sq = f.eval.rescale(&f.eval.square(&a).unwrap()).unwrap();
        let out = roundtrip(&f, &sq);
        for (o, v) in out.iter().zip(&vals) {
            let err = (o - v * v).abs();
            assert!(err < 2f64.powi(-8), "error {err}");
        }
    }
}
