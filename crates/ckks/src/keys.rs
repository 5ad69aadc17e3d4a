//! Key generation: secret, public, relinearization, and Galois keys.
//!
//! Key switching uses the RNS digit decomposition with a single special
//! prime `P` (the SEAL approach): a ciphertext component `d` over the
//! active primes `q_0..q_{c-1}` is split into its per-prime residues
//! `d_j = [d]_{q_j}`, and digit `j` of the key encrypts
//! `P · Ẽ_j · s_target` over the extended modulus `Q_c · P`, where `Ẽ_j` is
//! the CRT idempotent of `q_j` in `Q_c`. Then
//! `Σ_j d_j · ksk_j ≈ P · d · s_target` and a final division by `P`
//! (mod-down) returns to `Q_c` while shrinking the noise by `P`.
//!
//! One key per target serves every level. On the row of a chain prime
//! `q_i`, `Ẽ_j ≡ δ_ij (mod q_i)` whatever the active prefix, so digit `j`,
//! row `i` of a key generated at prefix `m` *is* digit `j`, row `i` of the
//! key for any prefix `c ≤ m`: a switch at `c` reads `digits[..c]`, rows
//! `[..c]` and the special row. SEAL keeps its keys the same way — once,
//! at the top of the chain, sliced by level at use.
//!
//! Every key switch is one pipeline: [`hoisted_decompose`] (the digit
//! NTTs), then one multiply-accumulate and mod-down, with a Galois slot
//! permutation for rotations and none for relinearization. It ends in NTT
//! form for the evaluator ([`key_switch_hoisted`]) and in coefficient form
//! for [`key_switch`].

use crate::params::CkksParams;
use hecate_math::modular::{add_mod, mul_mod, neg_mod, reduce_i64};
use hecate_math::ntt::NttTable;
use hecate_math::poly::RnsPoly;
use hecate_math::rng::Xoshiro256;
use hecate_math::rns::RnsBasis;
use hecate_math::{par, scratch};

/// A polynomial over an extended basis: the first `c` chain primes plus the
/// special prime as the last row. Always stored in NTT form.
#[derive(Debug, Clone)]
pub struct ExtPoly {
    /// One residue vector per modulus; the last row is the special prime.
    pub rows: Vec<Vec<u64>>,
}

impl ExtPoly {
    /// Row `m` of the extended basis of active prefix `c` (chain primes
    /// `0..c`, then the special prime at `m == c`), read from a poly over
    /// any prefix `≥ c`.
    fn row_at(&self, m: usize, c: usize) -> &[u64] {
        if m < c {
            &self.rows[m]
        } else {
            self.rows.last().expect("extended basis")
        }
    }
}

/// One key-switching key: `prefix` digits of `(b, a)` pairs over the
/// extended basis. It serves every active prefix `c ≤ prefix` (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// Largest active prefix this key serves.
    pub prefix: usize,
    /// Per-digit key pairs `(b_j, a_j)` with
    /// `b_j = -(a_j·s) + e_j + P·Ẽ_j·s_target`.
    pub digits: Vec<(ExtPoly, ExtPoly)>,
}

/// The ternary CKKS secret key.
///
/// Holds the raw ternary coefficients so residues modulo any prime
/// (including the special prime) can be derived.
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
}

impl SecretKey {
    /// The secret as an NTT-form polynomial over the first `c` primes.
    pub fn poly(&self, params: &CkksParams, c: usize) -> RnsPoly {
        let mut p = RnsPoly::from_signed_coeffs(params.basis(), c, &self.coeffs);
        p.to_ntt(params.basis());
        p
    }

    /// The secret reduced modulo one modulus, in NTT form.
    fn residue_ntt(&self, q: u64, table: &NttTable) -> Vec<u64> {
        let mut r: Vec<u64> = self.coeffs.iter().map(|&v| reduce_i64(v, q)).collect();
        table.forward(&mut r);
        r
    }

    /// Raw ternary coefficients (test/diagnostic use).
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }
}

/// The public encryption key `(b, a)` with `b = -(a·s) + e` over the full
/// chain, in NTT form.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// The masked component.
    pub b: RnsPoly,
    /// The uniform component.
    pub a: RnsPoly,
}

/// Generates all key material from a seed.
#[derive(Debug)]
pub struct KeyGenerator {
    params: CkksParams,
    secret: SecretKey,
    rng: Xoshiro256,
}

impl KeyGenerator {
    /// Samples a fresh ternary secret from the seed.
    pub fn new(params: &CkksParams, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let coeffs = rng.sample_ternary(params.degree());
        KeyGenerator {
            params: params.clone(),
            secret: SecretKey { coeffs },
            rng,
        }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.secret
    }

    /// The parameter set this generator builds keys for.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Generates the public encryption key over the full chain.
    pub fn public_key(&mut self) -> PublicKey {
        let basis = self.params.basis();
        let chain = basis.chain_len();
        let n = self.params.degree();
        let s = self.secret.poly(&self.params, chain);
        // Uniform a in NTT form.
        let mut a = RnsPoly::zero(basis, chain, true);
        for i in 0..chain {
            self.rng.fill_uniform_mod(a.residue_mut(i), basis.prime(i));
        }
        let e = self.rng.sample_noise(n);
        let mut b = a.clone();
        b.mul_assign_pointwise(&s, basis);
        b.negate(basis);
        let mut e_poly = RnsPoly::from_signed_coeffs(basis, chain, &e);
        e_poly.to_ntt(basis);
        b.add_assign(&e_poly, basis);
        PublicKey { b, a }
    }

    /// Generates a relinearization key (target `s²`) serving every prefix
    /// up to `prefix`.
    pub fn relin_key(&mut self, prefix: usize) -> KeySwitchKey {
        let chain = self.params.basis().chain_len();
        let s = self.secret.poly(&self.params, chain);
        let mut s2 = s.clone();
        s2.mul_assign_pointwise(&s, self.params.basis());
        s2.to_coeff(self.params.basis());
        // Recover s² as centered signed coefficients (|s²| ≤ N, exact under
        // any 20+-bit prime).
        let q0 = self.params.basis().prime(0);
        let coeffs: Vec<i64> = s2
            .residue(0)
            .iter()
            .map(|&v| RnsBasis::center(v, q0))
            .collect();
        self.keyswitch_key(&coeffs, prefix)
    }

    /// Generates a Galois key for left-rotation by `step` slots serving
    /// every prefix up to `prefix` (target `s(X^g)` with
    /// `g = 5^step mod 2N`).
    pub fn galois_key(&mut self, step: usize, prefix: usize) -> KeySwitchKey {
        let g = self.galois_element(step);
        let rotated = apply_automorphism_signed(&self.secret.coeffs, g, self.params.degree());
        self.keyswitch_key(&rotated, prefix)
    }

    /// The Galois element `5^step mod 2N` for a left rotation by `step`.
    ///
    /// The step is canonicalized modulo the slot count first, and the
    /// power is taken by square-and-multiply, so this is `O(log step)`
    /// rather than the former `O(step)` repeated multiply.
    pub fn galois_element(&self, step: usize) -> usize {
        galois_element(&self.params, step)
    }

    /// Generates a key-switching key from `s_target` (given as signed
    /// coefficients) to the secret, serving every prefix up to `prefix`.
    fn keyswitch_key(&mut self, target: &[i64], prefix: usize) -> KeySwitchKey {
        let n = self.params.degree();
        let special = self.params.basis().special_prime();
        let (moduli, tables) = extended_basis(&self.params, prefix);
        let s_rows: Vec<Vec<u64>> = moduli
            .iter()
            .zip(&tables)
            .map(|(&q, t)| self.secret.residue_ntt(q, t))
            .collect();
        let target_rows: Vec<Vec<u64>> = moduli
            .iter()
            .zip(&tables)
            .map(|(&q, t)| {
                let mut r: Vec<u64> = target.iter().map(|&v| reduce_i64(v, q)).collect();
                t.forward(&mut r);
                r
            })
            .collect();

        let digits = (0..prefix)
            .map(|j| {
                // a uniform, e noise; b = -(a·s) + e + P·Ẽ_j·s_target per row.
                let e = self.rng.sample_noise(n);
                let mut a_rows = Vec::with_capacity(moduli.len());
                let mut b_rows = Vec::with_capacity(moduli.len());
                for (i, (&q, t)) in moduli.iter().zip(&tables).enumerate() {
                    let mut a_row = vec![0u64; n];
                    self.rng.fill_uniform_mod(&mut a_row, q);
                    let mut e_row: Vec<u64> = e.iter().map(|&v| reduce_i64(v, q)).collect();
                    t.forward(&mut e_row);
                    // P·Ẽ_j ≡ P·δ_ij (mod q_i) on chain rows, for every
                    // prefix; zero on the special row since P | P·Ẽ_j.
                    let factor = if i == j { special % q } else { 0 };
                    let s_row = &s_rows[i];
                    let t_row = &target_rows[i];
                    let b_row: Vec<u64> = (0..n)
                        .map(|idx| {
                            let neg_as = neg_mod(mul_mod(a_row[idx], s_row[idx], q), q);
                            let keyed = mul_mod(factor, t_row[idx], q);
                            add_mod(add_mod(neg_as, e_row[idx], q), keyed, q)
                        })
                        .collect();
                    a_rows.push(a_row);
                    b_rows.push(b_row);
                }
                (ExtPoly { rows: b_rows }, ExtPoly { rows: a_rows })
            })
            .collect();
        KeySwitchKey { prefix, digits }
    }
}

/// The Galois element `5^step mod 2N` for a left rotation by `step`
/// (canonicalized modulo the slot count). Free-function form shared by
/// key generation and the evaluator, so both sides derive the element —
/// and therefore the key identity — from the same reduction.
pub fn galois_element(params: &CkksParams, step: usize) -> usize {
    let two_n = 2 * params.degree();
    let s = params.canonical_step(step);
    hecate_math::modular::pow_mod(5, s as u64, two_n as u64) as usize
}

/// Applies `X ↦ X^g` to a signed coefficient vector over `X^N + 1`.
pub(crate) fn apply_automorphism_signed(coeffs: &[i64], g: usize, n: usize) -> Vec<i64> {
    let two_n = 2 * n;
    let mut out = vec![0i64; n];
    for (j, &v) in coeffs.iter().enumerate() {
        let idx = j * g % two_n;
        if idx < n {
            out[idx] = v;
        } else {
            out[idx - n] = -v;
        }
    }
    out
}

/// The extended-basis moduli (active chain primes then the special
/// prime) and their NTT tables for prefix length `c`.
fn extended_basis(params: &CkksParams, c: usize) -> (Vec<u64>, Vec<&NttTable>) {
    let basis = params.basis();
    let moduli = basis.primes()[..c]
        .iter()
        .copied()
        .chain(std::iter::once(basis.special_prime()))
        .collect();
    let tables = (0..c)
        .map(|i| basis.ntt(i))
        .chain(std::iter::once(basis.special_ntt()))
        .collect();
    (moduli, tables)
}

/// Divides an extended-basis accumulator (chain rows in NTT form, special
/// row last in coefficient form) by the special prime `P`, returning a
/// poly over the chain prefix in NTT form iff `ntt`. This is the
/// SEAL-style mod-down that ends every key switch. In NTT form the chain
/// rows never leave the evaluation domain: the special row's centered lift
/// is transformed at each `q_i` instead (see [`RnsPoly::divide_out`]), so
/// the mod-down costs `c` forward transforms and no inverse one.
fn mod_down(mut rows: Vec<Vec<u64>>, ntt: bool, params: &CkksParams, jobs: usize) -> RnsPoly {
    let basis = params.basis();
    let special = rows.pop().expect("extended basis");
    let mut out = RnsPoly::from_residues(rows, true);
    if !ntt {
        out.to_coeff_jobs(basis, jobs);
    }
    let inv = |i| basis.inv_special(i);
    out.divide_out(&special, basis.special_prime(), inv, basis, jobs);
    scratch::recycle(special);
    out
}

/// Switches the key of a single polynomial `d` (either domain, over `c`
/// primes) from `s_target` to `s`, returning `(b, a)` in coefficient
/// domain such that `b + a·s ≈ d·s_target`.
///
/// # Panics
/// Panics if the key serves only a prefix shorter than `c`.
pub fn key_switch(d: &RnsPoly, key: &KeySwitchKey, params: &CkksParams) -> (RnsPoly, RnsPoly) {
    key_switch_jobs(d, key, params, 1)
}

/// [`key_switch`] with the per-modulus work striped over up to `jobs`
/// scoped threads: [`hoisted_decompose`], then [`key_switch_hoisted`]
/// without a permutation. Each extended modulus is independent (its
/// digit rows and accumulator rows are written by exactly one worker),
/// so the result is bit-identical at every job count.
pub fn key_switch_jobs(
    d: &RnsPoly,
    key: &KeySwitchKey,
    params: &CkksParams,
    jobs: usize,
) -> (RnsPoly, RnsPoly) {
    let hd = hoisted_decompose(d, params, jobs);
    multiply_mod_down(&hd, None, key, params, jobs, false)
}

/// The input-only part of a key switch: the RNS digit decomposition of
/// one polynomial, lifted to the extended basis and in NTT form — the
/// `c·(c+1)` digit rows that dominate a key switch. Digit `j`'s row at its
/// own prime `q_j` is the operand's NTT limb `j`, so decomposing an
/// NTT-form operand copies those `c` rows and forward-transforms the other
/// `c²`.
///
/// Digit decomposition commutes with the Galois automorphism (centering
/// is odd-symmetric, and in the evaluation domain the automorphism is a
/// pure slot permutation), so one decomposition serves *every* rotation
/// of the same ciphertext (Halevi–Shoup hoisting): [`key_switch_hoisted`]
/// only permutes these precomputed rows before the multiply-accumulate.
///
/// The rows come from the thread's [`scratch`] pool and go back to it on
/// drop, so a key switch allocates no digit rows once the pool is warm.
#[derive(Debug, Clone)]
pub struct HoistedDecomp {
    /// NTT-form digit rows, digit-major: row `j·(c+1) + m` is digit `j`
    /// over extended modulus `m` (the special prime at `m = c`).
    rows: Vec<Vec<u64>>,
    /// Active prefix length the decomposition was taken at.
    prefix: usize,
}

impl HoistedDecomp {
    /// The prefix length (`c`) this decomposition is valid for.
    pub fn prefix(&self) -> usize {
        self.prefix
    }
}

impl Drop for HoistedDecomp {
    fn drop(&mut self) {
        for row in self.rows.drain(..) {
            scratch::recycle(row);
        }
    }
}

/// Decomposes `d` (either domain) into centered RNS digits over the
/// extended basis, NTT-transformed, striping the rows over up to `jobs`
/// threads. The expensive shared prefix of every key switch.
///
/// The digits are read from `d`'s coefficients: an NTT-form `d` is
/// inverse-transformed on a copy (`c` transforms), and its own NTT limbs
/// are the `c` rows of each digit at its own prime — reducing the centered
/// lift of `[d]_{q_j}` modulo `q_j` is the identity. Either way the rows
/// are the same, bit for bit.
pub fn hoisted_decompose(d: &RnsPoly, params: &CkksParams, jobs: usize) -> HoistedDecomp {
    let c = d.prefix();
    let n = params.degree();
    let (moduli, tables) = extended_basis(params, c);
    let width = moduli.len();
    let coeff = d.is_ntt().then(|| {
        let mut coeff = d.clone();
        coeff.to_coeff_jobs(params.basis(), jobs);
        coeff
    });
    let digits = coeff.as_ref().unwrap_or(d);
    let mut rows: Vec<Vec<u64>> = (0..c * width).map(|_| scratch::take_zeroed(n)).collect();
    par::for_each_limb(&mut rows, jobs, |k, row| {
        let (j, m) = (k / width, k % width);
        if d.is_ntt() && m == j {
            row.copy_from_slice(d.residue(j));
            return;
        }
        let (qj, q) = (params.basis().prime(j), moduli[m]);
        // The centered lift keeps the key-switch noise at ~q_max/2.
        for (dst, &v) in row.iter_mut().zip(digits.residue(j)) {
            *dst = reduce_i64(RnsBasis::center(v, qj), q);
        }
        tables[m].forward(row);
    });
    HoistedDecomp { rows, prefix: c }
}

/// The multiply-accumulate and mod-down of every key switch:
/// `Σ_j digit_j · ksk_j` over the extended basis of the decomposition's
/// prefix `c`, read from `key`'s digits `..c`, rows `..c` and special row.
/// With a Galois slot permutation `perm`, each digit row is permuted first
/// — exactly equivalent to decomposing the rotated polynomial, bit for bit
/// — so all rotations of one ciphertext share the forward digit NTTs.
///
/// Returns `(b, a)` in NTT form. The mod-down inverse-transforms only the
/// special prime's two accumulator rows and transforms their centered lift
/// at each `q_i` ([`RnsPoly::divide_out`]), so after the MAC a switch costs
/// `2c + 2` transforms, where a coefficient-domain mod-down and the way
/// back cost `4c + 2`.
///
/// # Panics
/// Panics if the key serves only a prefix shorter than the
/// decomposition's.
pub fn key_switch_hoisted(
    hd: &HoistedDecomp,
    perm: Option<&[usize]>,
    key: &KeySwitchKey,
    params: &CkksParams,
    jobs: usize,
) -> (RnsPoly, RnsPoly) {
    multiply_mod_down(hd, perm, key, params, jobs, true)
}

/// [`key_switch_hoisted`] with its result in NTT form iff `ntt`; the
/// coefficient form is [`key_switch`]'s.
fn multiply_mod_down(
    hd: &HoistedDecomp,
    perm: Option<&[usize]>,
    key: &KeySwitchKey,
    params: &CkksParams,
    jobs: usize,
    ntt: bool,
) -> (RnsPoly, RnsPoly) {
    let c = hd.prefix;
    assert!(c <= key.prefix, "key serves prefix {}, not {c}", key.prefix);
    let n = params.degree();
    let (moduli, tables) = extended_basis(params, c);
    let width = moduli.len();
    let mut acc: Vec<(Vec<u64>, Vec<u64>)> = (0..width)
        .map(|_| (scratch::take_zeroed(n), scratch::take_zeroed(n)))
        .collect();
    par::for_each_limb(&mut acc, jobs, |m, (acc_b, acc_a)| {
        let (q, t) = (moduli[m], tables[m]);
        let mut permuted = perm.map(|_| scratch::take_zeroed(n));
        for (j, (kb, ka)) in key.digits[..c].iter().enumerate() {
            let src = &hd.rows[j * width + m];
            let row: &[u64] = match (perm, permuted.as_mut()) {
                (Some(perm), Some(buf)) => {
                    for (dst, &p) in buf.iter_mut().zip(perm) {
                        *dst = src[p];
                    }
                    buf
                }
                _ => src,
            };
            let (bb, aa) = (kb.row_at(m, c), ka.row_at(m, c));
            for idx in 0..n {
                acc_b[idx] = add_mod(acc_b[idx], mul_mod(row[idx], bb[idx], q), q);
                acc_a[idx] = add_mod(acc_a[idx], mul_mod(row[idx], aa[idx], q), q);
            }
        }
        if let Some(buf) = permuted {
            scratch::recycle(buf);
        }
        // The mod-down lifts the special rows from their coefficients.
        if m == c {
            t.backward(acc_b);
            t.backward(acc_a);
        }
    });
    let (acc_b, acc_a): (Vec<_>, Vec<_>) = acc.into_iter().unzip();
    (
        mod_down(acc_b, ntt, params, jobs),
        mod_down(acc_a, ntt, params, jobs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn params() -> CkksParams {
        CkksParams::new(64, 45, 30, 2, false).unwrap()
    }

    #[test]
    fn secret_is_ternary_and_deterministic() {
        let p = params();
        let k1 = KeyGenerator::new(&p, 5);
        let k2 = KeyGenerator::new(&p, 5);
        assert_eq!(k1.secret_key().coeffs(), k2.secret_key().coeffs());
        assert!(k1
            .secret_key()
            .coeffs()
            .iter()
            .all(|v| (-1..=1).contains(v)));
        let k3 = KeyGenerator::new(&p, 6);
        assert_ne!(k1.secret_key().coeffs(), k3.secret_key().coeffs());
    }

    #[test]
    fn public_key_decrypts_to_small_noise() {
        // b + a·s = e must be small.
        let p = params();
        let mut kg = KeyGenerator::new(&p, 7);
        let pk = kg.public_key();
        let s = kg.secret_key().poly(&p, p.basis().chain_len());
        let mut check = pk.a.clone();
        check.mul_assign_pointwise(&s, p.basis());
        check.add_assign(&pk.b, p.basis());
        check.to_coeff(p.basis());
        for v in check.lift_centered(p.basis(), 0.0) {
            assert!(v.abs() < 64.0, "noise too large: {v}");
        }
    }

    #[test]
    fn galois_element_composes() {
        let p = params();
        let kg = KeyGenerator::new(&p, 8);
        assert_eq!(kg.galois_element(0), 1);
        let g1 = kg.galois_element(1);
        let g2 = kg.galois_element(2);
        assert_eq!(g2, g1 * g1 % (2 * p.degree()));
    }

    #[test]
    fn galois_element_canonicalizes_wrapped_steps() {
        let p = params();
        let kg = KeyGenerator::new(&p, 8);
        let slots = p.slots();
        // Repeated-multiply reference for the raw (unreduced) exponent.
        let reference = |step: usize| {
            let two_n = 2 * p.degree();
            let mut g = 1usize;
            for _ in 0..step % slots {
                g = g * 5 % two_n;
            }
            g
        };
        for step in [
            0usize,
            1,
            3,
            slots - 1,
            slots,
            slots + 1,
            slots + 3,
            5 * slots + 7,
        ] {
            assert_eq!(kg.galois_element(step), reference(step), "step = {step}");
            assert_eq!(
                kg.galois_element(step),
                kg.galois_element(step % slots),
                "step = {step}"
            );
        }
        assert_eq!(kg.galois_element(slots), 1, "full rotation is the identity");
    }

    fn random_coeff_poly(p: &CkksParams, prefix: usize, seed: u64) -> RnsPoly {
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(seed);
        let coeffs: Vec<i64> = (0..p.degree())
            .map(|_| rng.next_below(2001) as i64 - 1000)
            .collect();
        RnsPoly::from_signed_coeffs(p.basis(), prefix, &coeffs)
    }

    #[test]
    fn key_switch_jobs_is_bit_identical_at_every_job_count() {
        let p = params();
        let mut kg = KeyGenerator::new(&p, 13);
        let prefix = p.basis().chain_len();
        let rk = kg.relin_key(prefix);
        let d = random_coeff_poly(&p, prefix, 99);
        let baseline = key_switch(&d, &rk, &p);
        for jobs in [2usize, 3, 8] {
            assert_eq!(
                key_switch_jobs(&d, &rk, &p, jobs),
                baseline,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn hoisted_key_switch_is_bit_identical_to_baseline() {
        let p = params();
        let mut kg = KeyGenerator::new(&p, 15);
        let prefix = p.basis().chain_len();
        let d = random_coeff_poly(&p, prefix, 101);
        for step in [1usize, 3, 7] {
            let gk = kg.galois_key(step, prefix);
            let g = kg.galois_element(step);
            let baseline = key_switch(&d.automorphism(g, p.basis()), &gk, &p);
            let perm = p.basis().ntt(0).galois_permutation(g);
            for jobs in [1usize, 2, 4] {
                let hd = hoisted_decompose(&d, &p, jobs);
                let (mut b, mut a) = key_switch_hoisted(&hd, Some(&perm), &gk, &p, jobs);
                b.to_coeff(p.basis());
                a.to_coeff(p.basis());
                assert_eq!((b, a), baseline, "step = {step}, jobs = {jobs}");
            }
        }
    }

    /// Parameters over six chain primes.
    fn wide_params() -> CkksParams {
        let p = CkksParams::new(64, 45, 30, 5, false).unwrap();
        assert!(p.basis().chain_len() >= 5);
        p
    }

    /// A polynomial with uniform residues on each of `c` limbs.
    fn uniform_poly(p: &CkksParams, c: usize, seed: u64) -> RnsPoly {
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(seed);
        let mut d = RnsPoly::zero(p.basis(), c, false);
        for i in 0..c {
            rng.fill_uniform_mod(d.residue_mut(i), p.basis().prime(i));
        }
        d
    }

    #[test]
    fn ntt_mod_down_equals_coefficient_mod_down_at_every_prefix() {
        let p = wide_params();
        let basis = p.basis();
        for c in 2..=basis.chain_len() {
            // The accumulator's chain rows in NTT form, its special row in
            // coefficient form, as the MAC leaves them.
            let chain = uniform_poly(&p, c, c as u64);
            let mut rows: Vec<Vec<u64>> = (0..c).map(|i| chain.residue(i).to_vec()).collect();
            let mut special = vec![0u64; p.degree()];
            let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(100 + c as u64);
            rng.fill_uniform_mod(&mut special, basis.special_prime());
            rows.push(special);
            for jobs in [1usize, 2, 4] {
                let mut want = mod_down(rows.clone(), false, &p, jobs);
                want.to_ntt(basis);
                let got = mod_down(rows.clone(), true, &p, jobs);
                assert!(got.is_ntt());
                assert_eq!(got, want, "prefix {c}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn decomposing_an_ntt_operand_equals_decomposing_its_coefficients() {
        let p = wide_params();
        for c in 2..=p.basis().chain_len() {
            let d = uniform_poly(&p, c, c as u64);
            let mut d_ntt = d.clone();
            d_ntt.to_ntt(p.basis());
            for jobs in [1usize, 2, 4] {
                let want = hoisted_decompose(&d, &p, jobs);
                let got = hoisted_decompose(&d_ntt, &p, jobs);
                assert_eq!(got.prefix(), c);
                assert_eq!(got.rows, want.rows, "prefix {c}, jobs {jobs}");
            }
        }
    }

    /// Checks `b + a·s ≈ d·target` coefficient-wise over `d`'s prefix.
    fn assert_switched(
        p: &CkksParams,
        kg: &KeyGenerator,
        d: &RnsPoly,
        key: &KeySwitchKey,
        target: &RnsPoly,
        what: &str,
    ) {
        let c = d.prefix();
        let (b, a) = key_switch(d, key, p);
        let s = kg.secret_key().poly(p, c);
        let mut lhs = a.clone();
        lhs.to_ntt(p.basis());
        lhs.mul_assign_pointwise(&s, p.basis());
        let mut b_ntt = b.clone();
        b_ntt.to_ntt(p.basis());
        lhs.add_assign(&b_ntt, p.basis());
        lhs.to_coeff(p.basis());

        let mut rhs = d.clone();
        rhs.to_ntt(p.basis());
        rhs.mul_assign_pointwise(target, p.basis());
        rhs.to_coeff(p.basis());

        let (l, r) = (
            lhs.lift_centered(p.basis(), 0.0),
            rhs.lift_centered(p.basis(), 0.0),
        );
        for (idx, (l, r)) in l.iter().zip(&r).enumerate() {
            let diff = l - r;
            // Key-switch noise ≈ c·N·q_max/(2P) plus mod-down rounding — tiny
            // relative to any working scale; bound loosely.
            assert!(
                diff.abs() < 1e6,
                "{what} at prefix {c}: keyswitch error {diff} at coeff {idx}"
            );
        }
    }

    #[test]
    fn key_switch_reproduces_target_product() {
        // One relin key (s_target = s²) and one Galois key (s_target =
        // s(X^g)), both generated at the full chain, sliced to every
        // prefix: d·s_target ≈ b + a·s at each.
        let p = params();
        let mut kg = KeyGenerator::new(&p, 9);
        let chain = p.basis().chain_len();
        let rk = kg.relin_key(chain);
        assert_eq!(rk.digits.len(), chain);
        let gk = kg.galois_key(3, chain);
        let rotated_secret =
            apply_automorphism_signed(kg.secret_key().coeffs(), kg.galois_element(3), p.degree());

        // Small test polynomial d.
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(77);
        let d_coeffs: Vec<i64> = (0..p.degree())
            .map(|_| rng.next_below(1000) as i64 - 500)
            .collect();
        for c in 1..=chain {
            let d = RnsPoly::from_signed_coeffs(p.basis(), c, &d_coeffs);
            let s = kg.secret_key().poly(&p, c);
            let mut s2 = s.clone();
            s2.mul_assign_pointwise(&s, p.basis());
            assert_switched(&p, &kg, &d, &rk, &s2, "relin");
            let mut s_g = RnsPoly::from_signed_coeffs(p.basis(), c, &rotated_secret);
            s_g.to_ntt(p.basis());
            assert_switched(&p, &kg, &d, &gk, &s_g, "galois");
        }
    }

    #[test]
    fn automorphism_signed_matches_poly_version() {
        let p = params();
        let coeffs: Vec<i64> = (0..p.degree() as i64).collect();
        let g = 5;
        let signed = apply_automorphism_signed(&coeffs, g, p.degree());
        let poly = RnsPoly::from_signed_coeffs(p.basis(), 1, &coeffs).automorphism(g, p.basis());
        let q = p.basis().prime(0);
        for idx in 0..p.degree() {
            assert_eq!(reduce_i64(signed[idx], q), poly.residue(0)[idx]);
        }
    }
}
