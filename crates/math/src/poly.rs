//! Polynomials in RNS representation over `Z_{Q_c}[X]/(X^N + 1)`.
//!
//! An [`RnsPoly`] stores one residue polynomial per active chain prime (a
//! *prefix* of the basis — rescaling shortens the prefix) and tracks whether
//! the residues are in coefficient or NTT (evaluation) form. All arithmetic
//! methods take the owning [`RnsBasis`] explicitly so polynomials stay
//! plain data.

use crate::modular::{add_mod, mul_mod, neg_mod, reduce_i128, reduce_i64, sub_mod};
use crate::rns::RnsBasis;

/// A polynomial in RNS form over a prefix of a modulus chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    residues: Vec<Vec<u64>>,
    is_ntt: bool,
}

impl RnsPoly {
    /// The zero polynomial over the first `c` primes.
    pub fn zero(basis: &RnsBasis, c: usize, is_ntt: bool) -> Self {
        assert!(c >= 1 && c <= basis.chain_len());
        RnsPoly {
            residues: vec![vec![0; basis.degree()]; c],
            is_ntt,
        }
    }

    /// Builds a polynomial from signed coefficients (coefficient domain).
    ///
    /// # Panics
    /// Panics if `coeffs.len()` differs from the ring degree.
    pub fn from_signed_coeffs(basis: &RnsBasis, c: usize, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), basis.degree());
        let residues = (0..c)
            .map(|i| {
                let q = basis.prime(i);
                coeffs.iter().map(|&v| reduce_i64(v, q)).collect()
            })
            .collect();
        RnsPoly {
            residues,
            is_ntt: false,
        }
    }

    /// Builds a polynomial from wide signed coefficients, as produced by the
    /// CKKS encoder at large scales (coefficient domain).
    pub fn from_i128_coeffs(basis: &RnsBasis, c: usize, coeffs: &[i128]) -> Self {
        assert_eq!(coeffs.len(), basis.degree());
        let residues = (0..c)
            .map(|i| {
                let q = basis.prime(i);
                coeffs.iter().map(|&v| reduce_i128(v, q)).collect()
            })
            .collect();
        RnsPoly {
            residues,
            is_ntt: false,
        }
    }

    /// Wraps residue rows (one per active prime, each of the ring degree)
    /// that are in NTT form iff `is_ntt`.
    ///
    /// # Panics
    /// Panics if `residues` is empty.
    pub fn from_residues(residues: Vec<Vec<u64>>, is_ntt: bool) -> Self {
        assert!(
            !residues.is_empty(),
            "a polynomial needs at least one prime"
        );
        RnsPoly { residues, is_ntt }
    }

    /// Number of active primes (prefix length).
    pub fn prefix(&self) -> usize {
        self.residues.len()
    }

    /// Whether the residues are in NTT (evaluation) form.
    pub fn is_ntt(&self) -> bool {
        self.is_ntt
    }

    /// Read access to the residues of prime `i`.
    pub fn residue(&self, i: usize) -> &[u64] {
        &self.residues[i]
    }

    /// Mutable access to the residues of prime `i`.
    pub fn residue_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.residues[i]
    }

    /// Converts to NTT form in place (no-op if already there).
    pub fn to_ntt(&mut self, basis: &RnsBasis) {
        self.to_ntt_jobs(basis, 1);
    }

    /// Converts to NTT form, striping the per-prime transforms over up
    /// to `jobs` scoped threads. Limbs are independent, so the result is
    /// bit-identical to the sequential conversion at every job count.
    pub fn to_ntt_jobs(&mut self, basis: &RnsBasis, jobs: usize) {
        if self.is_ntt {
            return;
        }
        crate::par::for_each_limb(&mut self.residues, jobs, |i, r| basis.ntt(i).forward(r));
        self.is_ntt = true;
    }

    /// Converts to coefficient form in place (no-op if already there).
    pub fn to_coeff(&mut self, basis: &RnsBasis) {
        self.to_coeff_jobs(basis, 1);
    }

    /// Converts to coefficient form, striping the per-prime transforms
    /// over up to `jobs` scoped threads (bit-identical at any count).
    pub fn to_coeff_jobs(&mut self, basis: &RnsBasis, jobs: usize) {
        if !self.is_ntt {
            return;
        }
        crate::par::for_each_limb(&mut self.residues, jobs, |i, r| basis.ntt(i).backward(r));
        self.is_ntt = false;
    }

    fn check_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.prefix(), other.prefix(), "prefix mismatch");
        assert_eq!(self.is_ntt, other.is_ntt, "domain mismatch");
    }

    /// `self += other` (same prefix and domain).
    pub fn add_assign(&mut self, other: &RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        for (i, (a, b)) in self.residues.iter_mut().zip(&other.residues).enumerate() {
            let q = basis.prime(i);
            for (x, y) in a.iter_mut().zip(b) {
                *x = add_mod(*x, *y, q);
            }
        }
    }

    /// `self -= other` (same prefix and domain).
    pub fn sub_assign(&mut self, other: &RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        for (i, (a, b)) in self.residues.iter_mut().zip(&other.residues).enumerate() {
            let q = basis.prime(i);
            for (x, y) in a.iter_mut().zip(b) {
                *x = sub_mod(*x, *y, q);
            }
        }
    }

    /// Negates in place.
    pub fn negate(&mut self, basis: &RnsBasis) {
        for (i, a) in self.residues.iter_mut().enumerate() {
            let q = basis.prime(i);
            for x in a.iter_mut() {
                *x = neg_mod(*x, q);
            }
        }
    }

    /// Pointwise product `self *= other`; both must be in NTT form.
    ///
    /// # Panics
    /// Panics if either operand is in coefficient form.
    pub fn mul_assign_pointwise(&mut self, other: &RnsPoly, basis: &RnsBasis) {
        self.check_compatible(other);
        assert!(self.is_ntt, "pointwise product requires NTT form");
        for (i, (a, b)) in self.residues.iter_mut().zip(&other.residues).enumerate() {
            let q = basis.prime(i);
            for (x, y) in a.iter_mut().zip(b) {
                *x = mul_mod(*x, *y, q);
            }
        }
    }

    /// Multiplies every residue by a small scalar.
    pub fn mul_scalar(&mut self, s: u64, basis: &RnsBasis) {
        for (i, a) in self.residues.iter_mut().enumerate() {
            let q = basis.prime(i);
            let sq = s % q;
            for x in a.iter_mut() {
                *x = mul_mod(*x, sq, q);
            }
        }
    }

    /// Drops the last active prime without dividing — the RNS realization of
    /// `modswitch`: the represented small value is unchanged modulo the
    /// shorter prefix. Valid in either domain.
    ///
    /// # Panics
    /// Panics if only one prime is active.
    pub fn drop_last(&mut self) {
        assert!(self.prefix() > 1, "cannot drop the base prime");
        self.residues.pop();
    }

    /// Divides by the last active prime and drops it — the RNS realization
    /// of `rescale`. The result is the rounded quotient (error ≤ 1 per
    /// coefficient), in the domain the polynomial was given in.
    ///
    /// # Panics
    /// Panics if only one prime is active.
    pub fn rescale_last(&mut self, basis: &RnsBasis) {
        self.rescale_last_jobs(basis, 1);
    }

    /// [`RnsPoly::rescale_last`], striping the remaining limbs over up to
    /// `jobs` scoped threads (bit-identical at any count). In NTT form
    /// only the dropped limb is inverse-transformed; its centered lift is
    /// transformed at each remaining prime by [`RnsPoly::divide_out`], so
    /// a rescale costs `c` transforms instead of `2c − 1`.
    ///
    /// # Panics
    /// Panics if only one prime is active.
    pub fn rescale_last_jobs(&mut self, basis: &RnsBasis, jobs: usize) {
        assert!(self.prefix() > 1, "cannot rescale away the base prime");
        let c = self.prefix();
        let mut last = self.residues.pop().expect("non-empty");
        if self.is_ntt {
            basis.ntt(c - 1).backward(&mut last);
        }
        let inv = |i| basis.inv_last_prime(c, i);
        self.divide_out(&last, basis.prime(c - 1), inv, basis, jobs);
    }

    /// Divides by a modulus `p` that is not among the active primes, given
    /// this polynomial's residues modulo `p` as `dropped` (coefficient
    /// form) and `inv(i) = p⁻¹ mod q_i`: every limb becomes
    /// `(x − [v]_{q_i})·p⁻¹`, where `v` is the centered lift of `dropped`.
    /// The step shared by rescale (`p` the last prime) and key-switch
    /// mod-down (`p` the special prime), striped over up to `jobs` threads.
    ///
    /// Works in either domain. In NTT form the lifted row is transformed
    /// at `q_i` first; the NTT is linear over `Z_{q_i}` and both forms hold
    /// canonical residues, so the result is the NTT of the
    /// coefficient-form result, bit for bit. The lifted rows come from
    /// the thread's [`crate::scratch`] pool.
    pub fn divide_out(
        &mut self,
        dropped: &[u64],
        p: u64,
        inv: impl Fn(usize) -> u64 + Sync,
        basis: &RnsBasis,
        jobs: usize,
    ) {
        let ntt = self.is_ntt;
        crate::par::for_each_limb(&mut self.residues, jobs, |i, row| {
            let (q, inv) = (basis.prime(i), inv(i));
            let mut lifted = crate::scratch::take_zeroed(row.len());
            for (l, &v) in lifted.iter_mut().zip(dropped) {
                *l = reduce_i64(RnsBasis::center(v, p), q);
            }
            if ntt {
                basis.ntt(i).forward(&mut lifted);
            }
            for (x, &l) in row.iter_mut().zip(&lifted) {
                *x = mul_mod(sub_mod(*x, l, q), inv, q);
            }
            crate::scratch::recycle(lifted);
        });
    }

    /// Lifts every coefficient to its centered value modulo `Q_c`, the
    /// product of the active primes, divided by `2^scale_bits`.
    ///
    /// Balanced mixed-radix (Garner) digits `d_i ∈ [−(q_i−1)/2, (q_i−1)/2]`
    /// are peeled off from the last prime down: `d_{c−1}` is the centered
    /// last residue, and [`RnsPoly::rescale_last`] leaves `(x − d_{c−1})/q_{c−1}`
    /// on the lower limbs. Then
    /// `x = (…(d_0·q_1 + d_1)·q_2 + …)·q_{c−1} + d_{c−1}` is the centered
    /// representative in `[−(Q_c−1)/2, (Q_c−1)/2]`, found with word
    /// arithmetic only. Below 2^127, `x` is exact in `i128` and converted
    /// from its top 64 bits (exactly rounded below 2^64); above, Horner runs
    /// in `f64`, accurate to a few ulps. Unreduced residues (`≥ q`) are
    /// reduced first.
    ///
    /// # Panics
    /// Panics if in NTT form.
    pub fn lift_centered(&self, basis: &RnsBasis, scale_bits: f64) -> Vec<f64> {
        assert!(!self.is_ntt, "lifting requires coefficient form");
        let mut rest = RnsPoly {
            residues: (self.residues.iter().enumerate())
                .map(|(i, r)| {
                    let q = basis.prime(i);
                    r.iter().map(|&x| x % q).collect()
                })
                .collect(),
            is_ntt: false,
        };
        // `digits[i]`: the residues of digit `d_i` modulo `q_i`.
        let mut digits = Vec::with_capacity(self.prefix());
        while rest.prefix() > 1 {
            digits.push(rest.residues[rest.prefix() - 1].clone());
            rest.rescale_last(basis);
        }
        digits.append(&mut rest.residues);
        digits.reverse();
        let digit = |i: usize, k: usize| RnsBasis::center(digits[i][k], basis.prime(i));
        let unit = (-scale_bits).exp2();
        (0..digits[0].len())
            .map(|k| {
                let exact = (1..digits.len()).try_fold(digit(0, k) as i128, |x, i| {
                    x.checked_mul(basis.prime(i) as i128)?
                        .checked_add(digit(i, k) as i128)
                });
                match exact {
                    Some(x) => scaled_f64(x, scale_bits),
                    None => (1..digits.len()).fold(digit(0, k) as f64 * unit, |x, i| {
                        x * basis.prime(i) as f64 + digit(i, k) as f64 * unit
                    }),
                }
            })
            .collect()
    }

    /// Truncates to the first `c` primes (valid in either domain, since
    /// residues are per-prime independent). Used when encrypting or encoding
    /// at a lower level with key material generated over the full chain.
    ///
    /// # Panics
    /// Panics if `c` is zero or larger than the current prefix.
    pub fn truncate(&mut self, c: usize) {
        assert!(c >= 1 && c <= self.prefix(), "bad truncation length {c}");
        self.residues.truncate(c);
    }

    /// Applies the Galois automorphism `X ↦ X^g` (g odd, coefficient
    /// domain). Used for slot rotations.
    ///
    /// # Panics
    /// Panics if in NTT form or if `g` is even.
    pub fn automorphism(&self, g: usize, basis: &RnsBasis) -> RnsPoly {
        assert!(!self.is_ntt, "automorphism requires coefficient form");
        assert_eq!(g % 2, 1, "Galois element must be odd");
        let n = basis.degree();
        let two_n = 2 * n;
        let mut out = RnsPoly::zero(basis, self.prefix(), false);
        for (i, r) in self.residues.iter().enumerate() {
            let q = basis.prime(i);
            for (j, &v) in r.iter().enumerate() {
                let idx = (j * g) % two_n;
                if idx < n {
                    out.residues[i][idx] = v;
                } else {
                    out.residues[i][idx - n] = neg_mod(v, q);
                }
            }
        }
        out
    }

    /// Applies a Galois automorphism in the evaluation domain, given its
    /// slot permutation from [`crate::ntt::NttTable::galois_permutation`].
    /// The permutation is prime-independent, so one `perm` serves every
    /// limb. Exactly equal (bit for bit) to converting to coefficient
    /// form, applying [`RnsPoly::automorphism`], and converting back.
    ///
    /// # Panics
    /// Panics if in coefficient form or if `perm.len()` differs from the
    /// ring degree.
    pub fn automorphism_ntt(&self, perm: &[usize]) -> RnsPoly {
        assert!(self.is_ntt, "automorphism_ntt requires NTT form");
        let residues = self
            .residues
            .iter()
            .map(|r| {
                assert_eq!(perm.len(), r.len(), "permutation/degree mismatch");
                perm.iter().map(|&p| r[p]).collect()
            })
            .collect();
        RnsPoly {
            residues,
            is_ntt: true,
        }
    }
}

/// `x / 2^scale_bits`, rounded from the top 64 bits of `|x|` (so exactly
/// rounded below 2^64).
fn scaled_f64(x: i128, scale_bits: f64) -> f64 {
    let m = x.unsigned_abs();
    let top = (128 - m.leading_zeros()).saturating_sub(64);
    let v = (m >> top) as u64 as f64 * (top as f64 - scale_bits).exp2();
    if x < 0 {
        -v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn basis() -> RnsBasis {
        RnsBasis::generate(64, 40, 30, 3, 40)
    }

    fn random_poly(basis: &RnsBasis, c: usize, seed: u64) -> RnsPoly {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let coeffs: Vec<i64> = (0..basis.degree())
            .map(|_| rng.next_below(2001) as i64 - 1000)
            .collect();
        RnsPoly::from_signed_coeffs(basis, c, &coeffs)
    }

    #[test]
    fn ntt_roundtrip_preserves_poly() {
        let b = basis();
        let p0 = random_poly(&b, 3, 1);
        let mut p = p0.clone();
        p.to_ntt(&b);
        assert!(p.is_ntt());
        p.to_coeff(&b);
        assert_eq!(p, p0);
    }

    #[test]
    fn add_sub_cancel() {
        let b = basis();
        let mut p = random_poly(&b, 3, 2);
        let q = random_poly(&b, 3, 3);
        let orig = p.clone();
        p.add_assign(&q, &b);
        p.sub_assign(&q, &b);
        assert_eq!(p, orig);
    }

    #[test]
    fn negate_twice_is_identity() {
        let b = basis();
        let mut p = random_poly(&b, 2, 4);
        let orig = p.clone();
        p.negate(&b);
        assert_ne!(p, orig);
        p.negate(&b);
        assert_eq!(p, orig);
    }

    #[test]
    fn pointwise_mul_matches_schoolbook_via_small_case() {
        let b = basis();
        let n = b.degree();
        // p = 3 + 2X, q = 5 + X  →  pq = 15 + 13X + 2X²
        let mut pc = vec![0i64; n];
        pc[0] = 3;
        pc[1] = 2;
        let mut qc = vec![0i64; n];
        qc[0] = 5;
        qc[1] = 1;
        let mut p = RnsPoly::from_signed_coeffs(&b, 2, &pc);
        let mut q = RnsPoly::from_signed_coeffs(&b, 2, &qc);
        p.to_ntt(&b);
        q.to_ntt(&b);
        p.mul_assign_pointwise(&q, &b);
        p.to_coeff(&b);
        assert_eq!(p.residue(0)[0], 15);
        assert_eq!(p.residue(0)[1], 13);
        assert_eq!(p.residue(0)[2], 2);
        assert_eq!(p.residue(0)[3], 0);
    }

    #[test]
    fn rescale_divides_value() {
        let b = basis();
        // Encode constant v ≈ q_2 · 1000 so that rescaling by q_2 gives ≈1000.
        let q2 = b.prime(2);
        let n = b.degree();
        let mut coeffs = vec![0i128; n];
        coeffs[0] = q2 as i128 * 1000;
        let mut p = RnsPoly::from_i128_coeffs(&b, 3, &coeffs);
        p.rescale_last(&b);
        assert_eq!(p.prefix(), 2);
        let v = p.lift_centered(&b, 0.0)[0];
        assert!((v - 1000.0).abs() <= 1.0, "got {v}");
    }

    /// A polynomial with uniform residues on each of `c` limbs.
    fn uniform_poly(basis: &RnsBasis, c: usize, seed: u64) -> RnsPoly {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut p = RnsPoly::zero(basis, c, false);
        for i in 0..c {
            rng.fill_uniform_mod(p.residue_mut(i), basis.prime(i));
        }
        p
    }

    #[test]
    fn ntt_rescale_equals_coefficient_rescale_at_every_prefix() {
        let b = RnsBasis::generate(64, 45, 30, 6, 45);
        for c in 2..=b.chain_len() {
            let mut p = uniform_poly(&b, c, c as u64);
            p.to_ntt(&b);
            let mut want = p.clone();
            want.to_coeff(&b);
            want.rescale_last(&b);
            want.to_ntt(&b);
            for jobs in [1usize, 2, 4] {
                let mut got = p.clone();
                got.rescale_last_jobs(&b, jobs);
                assert!(got.is_ntt());
                assert_eq!(got, want, "prefix {c}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn drop_last_keeps_small_value() {
        let b = basis();
        let mut p = random_poly(&b, 3, 5);
        let before = p.lift_centered(&b, 0.0)[7];
        p.drop_last();
        let after = p.lift_centered(&b, 0.0)[7];
        assert_eq!(before, after, "small values survive modswitch");
    }

    /// Coefficient 0 of a polynomial holding `x`, lifted at `scale_bits`.
    fn lift_one(b: &RnsBasis, c: usize, x: i128, scale_bits: f64) -> f64 {
        let mut coeffs = vec![0; b.degree()];
        coeffs[0] = x;
        RnsPoly::from_i128_coeffs(b, c, &coeffs).lift_centered(b, scale_bits)[0]
    }

    #[test]
    fn lift_exact_for_small_values() {
        let b = basis();
        for x in [123_456_789i128, -123_456_789] {
            assert_eq!(lift_one(&b, 3, x, 0.0), x as f64);
            assert_eq!(lift_one(&b, 3, x, 10.0), x as f64 / 1024.0);
        }
    }

    #[test]
    fn lift_top_bits_accuracy() {
        // Three 45-bit primes: Q ≈ 2^135 holds a 122-bit value whose top 53
        // bits determine the result.
        let b = RnsBasis::generate(16, 45, 45, 3, 45);
        let x = 0x0123_4567_89AB_CDEF_i128 * u64::MAX as i128 * 3;
        let expect = 0x0123_4567_89AB_CDEF_u64 as f64 * (u64::MAX as f64) * 3.0 / 2f64.powi(64);
        for sign in [1, -1] {
            let got = lift_one(&b, 3, sign * x, 64.0);
            assert!(
                (got / (sign as f64 * expect) - 1.0).abs() < 1e-12,
                "{got} vs {expect}"
            );
        }
    }

    #[test]
    fn lift_extremes_keep_sign_and_magnitude() {
        let b = basis();
        for c in [1, 2] {
            let q: i128 = b.primes()[..c].iter().map(|&q| q as i128).product();
            let half = (q - 1) / 2;
            for x in [half, -half, -1] {
                let got = lift_one(&b, c, x, 0.0);
                assert_eq!(got.signum(), x.signum() as f64, "prefix {c}: {x}");
                assert!(
                    (got / x as f64 - 1.0).abs() <= f64::EPSILON,
                    "prefix {c}: {x} -> {got}"
                );
            }
        }
    }

    #[test]
    fn lift_reduces_unreduced_residues() {
        let b = basis();
        let p = random_poly(&b, 3, 10);
        let mut unreduced = p.clone();
        for i in 0..3 {
            let q = b.prime(i);
            unreduced.residue_mut(i)[0] = q; // what a corrupted limb holds
            for r in &mut unreduced.residue_mut(i)[1..] {
                *r += q;
            }
        }
        let mut zeroed = p.clone();
        for i in 0..3 {
            zeroed.residue_mut(i)[0] = 0;
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(unreduced.lift_centered(&b, 20.0)),
            bits(zeroed.lift_centered(&b, 20.0))
        );
    }

    #[test]
    fn lift_above_2_127_falls_back_to_f64() {
        use crate::modular::{mul_mod, pow_mod};
        // Five 45-bit primes: Q ≈ 2^225.
        let b = RnsBasis::generate(16, 45, 45, 5, 45);
        let mut rng = Xoshiro256::seed_from_u64(11);
        for k in [100u64, 130, 170] {
            for s in [0.0, 30.29] {
                let a = rng.next_u64() >> 11 | 1 << 52;
                let mut p = RnsPoly::zero(&b, 5, false);
                for i in 0..5 {
                    let q = b.prime(i);
                    let r = mul_mod(a % q, pow_mod(2, k, q), q);
                    p.residue_mut(i)[0] = r;
                    p.residue_mut(i)[1] = (q - r) % q;
                }
                let want = a as f64 * (k as f64 - s).exp2();
                let got = p.lift_centered(&b, s);
                for (got, want) in [(got[0], want), (got[1], -want)] {
                    assert!(
                        (got / want - 1.0).abs() < 1e-14,
                        "a·2^{k}, s={s}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn automorphism_identity_and_composition() {
        let b = basis();
        let p = random_poly(&b, 2, 6);
        assert_eq!(p.automorphism(1, &b), p);
        // g=5 applied then g=77: X -> X^5 -> X^385; 385 mod 128 = 1, and
        // 5·77 = 385 ≡ X^{385 mod 2N} with sign handling — composition must
        // equal the single automorphism with g = 5·77 mod 2N.
        let g1 = 5usize;
        let g2 = 77usize;
        let composed = p.automorphism(g1, &b).automorphism(g2, &b);
        let direct = p.automorphism((g1 * g2) % (2 * b.degree()), &b);
        assert_eq!(composed, direct);
    }

    #[test]
    fn automorphism_negates_on_wrap() {
        let b = basis();
        let n = b.degree();
        // p = X^{N-1}; under X ↦ X^3: X^{3(N-1)} = X^{3N-3} = X^{N-3}·(X^N)^2...
        // compute: 3(N-1) mod 2N = 3N-3-2N = N-3 ≥ N? For N=64: 189 mod 128 = 61 < 64,
        // wraps once through X^{2N} (sign +) — verify against direct evaluation instead.
        let mut coeffs = vec![0i64; n];
        coeffs[n - 1] = 1;
        let p = RnsPoly::from_signed_coeffs(&b, 1, &coeffs);
        let out = p.automorphism(3, &b);
        let q = b.prime(0);
        // 3(N-1) = 3N-3; mod 2N = N-3 (for N≥3), which is ≥... for N=64: 189-128=61, 61<64 → index 61, sign +.
        let target = (3 * (n - 1)) % (2 * n);
        if target < n {
            assert_eq!(out.residue(0)[target], 1);
        } else {
            assert_eq!(out.residue(0)[target - n], q - 1);
        }
    }

    #[test]
    fn ntt_domain_automorphism_matches_coefficient_domain() {
        let b = basis();
        let p = random_poly(&b, 3, 8);
        for g in [3usize, 5, 2 * b.degree() - 1] {
            let perm = b.ntt(0).galois_permutation(g);
            let mut via_coeff = p.automorphism(g, &b);
            via_coeff.to_ntt(&b);
            let mut pn = p.clone();
            pn.to_ntt(&b);
            assert_eq!(pn.automorphism_ntt(&perm), via_coeff, "g = {g}");
        }
    }

    #[test]
    fn jobs_variants_are_bit_identical() {
        let b = basis();
        for jobs in [1usize, 2, 3, 8] {
            let mut p = random_poly(&b, 3, 9);
            let mut q = p.clone();
            p.to_ntt(&b);
            q.to_ntt_jobs(&b, jobs);
            assert_eq!(p, q, "forward, jobs = {jobs}");
            p.to_coeff(&b);
            q.to_coeff_jobs(&b, jobs);
            assert_eq!(p, q, "backward, jobs = {jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "base prime")]
    fn rescale_base_prime_panics() {
        let b = basis();
        let mut p = random_poly(&b, 1, 7);
        p.rescale_last(&b);
    }
}
