//! Residue number system (RNS) bases and their precomputations.
//!
//! An RNS-CKKS modulus chain is a list of NTT-friendly primes
//! `q_0, q_1, …, q_L` plus one *special* prime `P` used only during key
//! switching. A ciphertext at rescaling level `k` lives modulo the prefix
//! product `Q_k = q_0·…·q_{L−k}`; `rescale` drops (and divides by) the last
//! active prime, `modswitch` merely drops it.
//!
//! [`RnsBasis`] owns the primes, their NTT tables, and the inverse tables
//! needed for rescaling and key-switch mod-down. Decoding needs no table of
//! its own: [`RnsPoly::lift_centered`](crate::poly::RnsPoly::lift_centered)
//! peels off balanced mixed-radix digits with the rescaling inverses, in
//! word arithmetic.

use crate::modular::inv_mod;
use crate::ntt::NttTable;
use crate::prime::generate_ntt_primes;

/// The primes, NTT tables, and inverse tables of one RNS modulus chain.
#[derive(Debug)]
pub struct RnsBasis {
    degree: usize,
    primes: Vec<u64>,
    special: u64,
    ntt: Vec<NttTable>,
    special_ntt: NttTable,
    /// `inv_last[c-1][i]` = `q_{c-1}^{-1} mod q_i` for `i < c-1`; used by
    /// rescaling from prefix length `c` to `c-1`.
    inv_last: Vec<Vec<u64>>,
    /// `P^{-1} mod q_i`, used by key-switch mod-down.
    inv_special: Vec<u64>,
}

impl RnsBasis {
    /// Builds a basis from an explicit prime chain and special prime.
    ///
    /// # Panics
    /// Panics if primes are not distinct or not ≡ 1 mod 2·degree.
    pub fn from_primes(degree: usize, primes: Vec<u64>, special: u64) -> Self {
        assert!(!primes.is_empty(), "modulus chain must be non-empty");
        let mut all = primes.clone();
        all.push(special);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "primes must be distinct");
        let ntt: Vec<NttTable> = primes.iter().map(|&q| NttTable::new(q, degree)).collect();
        let special_ntt = NttTable::new(special, degree);
        let inv_last = (0..primes.len())
            .map(|last| {
                (0..last)
                    .map(|i| inv_mod(primes[last] % primes[i], primes[i]))
                    .collect()
            })
            .collect();
        let inv_special = primes.iter().map(|&q| inv_mod(special % q, q)).collect();
        RnsBasis {
            degree,
            primes,
            special,
            ntt,
            special_ntt,
            inv_last,
            inv_special,
        }
    }

    /// Generates a basis with `chain_len` primes of `prime_bits` bits each
    /// for ring degree `degree`, with the first prime of `first_prime_bits`
    /// bits and the special prime of `special_bits` bits.
    ///
    /// The first prime carries the final message (it needs headroom above
    /// the output scale); the rest are rescale primes sized to the rescale
    /// factor `S_f`.
    pub fn generate(
        degree: usize,
        first_prime_bits: u32,
        prime_bits: u32,
        chain_len: usize,
        special_bits: u32,
    ) -> Self {
        assert!(chain_len >= 1);
        let mut primes = generate_ntt_primes(first_prime_bits, degree, 1, &[]);
        if chain_len > 1 {
            let rest = generate_ntt_primes(prime_bits, degree, chain_len - 1, &primes);
            primes.extend(rest);
        }
        let special = generate_ntt_primes(special_bits, degree, 1, &primes)[0];
        Self::from_primes(degree, primes, special)
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of primes in the chain (`L + 1`).
    pub fn chain_len(&self) -> usize {
        self.primes.len()
    }

    /// The `i`-th chain prime.
    pub fn prime(&self, i: usize) -> u64 {
        self.primes[i]
    }

    /// All chain primes.
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// The special (key-switching) prime `P`.
    pub fn special_prime(&self) -> u64 {
        self.special
    }

    /// NTT table for the `i`-th chain prime.
    pub fn ntt(&self, i: usize) -> &NttTable {
        &self.ntt[i]
    }

    /// NTT table for the special prime.
    pub fn special_ntt(&self) -> &NttTable {
        &self.special_ntt
    }

    /// `q_{c-1}^{-1} mod q_i` for rescaling away the last prime of a
    /// `c`-prime prefix (and for each digit step of the centered lift).
    pub fn inv_last_prime(&self, c: usize, i: usize) -> u64 {
        self.inv_last[c - 1][i]
    }

    /// `P^{-1} mod q_i` for key-switch mod-down.
    pub fn inv_special(&self, i: usize) -> u64 {
        self.inv_special[i]
    }

    /// log2 of the prefix product `Q_c` (sum of prime bit sizes).
    pub fn prefix_log2(&self, c: usize) -> f64 {
        self.primes[..c].iter().map(|&q| (q as f64).log2()).sum()
    }

    /// Centers a residue `x mod q` into `(-q/2, q/2]` as a signed integer.
    #[inline]
    pub fn center(x: u64, q: u64) -> i64 {
        if x > q / 2 {
            -((q - x) as i64)
        } else {
            x as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mul_mod;

    fn basis() -> RnsBasis {
        RnsBasis::generate(64, 40, 30, 4, 40)
    }

    #[test]
    fn generate_produces_valid_chain() {
        let b = basis();
        assert_eq!(b.chain_len(), 4);
        assert_eq!(b.degree(), 64);
        for i in 0..4 {
            assert_eq!(b.prime(i) % 128, 1);
        }
        assert_eq!(b.special_prime() % 128, 1);
        // First prime ≈ 40 bits, rescale primes ≈ 30 bits.
        assert!((b.prime(0) as f64).log2().round() as i32 == 40);
        assert!((b.prime(1) as f64).log2().round() as i32 == 30);
    }

    #[test]
    fn prefix_log2_sums_bits() {
        let b = basis();
        let expect: f64 = (0..3).map(|i| (b.prime(i) as f64).log2()).sum();
        assert!((b.prefix_log2(3) - expect).abs() < 1e-9);
    }

    #[test]
    fn inverse_tables_are_inverses() {
        let b = basis();
        for c in 2..=4 {
            for i in 0..c - 1 {
                let got = b.inv_last_prime(c, i);
                assert_eq!(mul_mod(got, b.prime(c - 1) % b.prime(i), b.prime(i)), 1);
            }
        }
        for i in 0..4 {
            assert_eq!(
                mul_mod(b.inv_special(i), b.special_prime() % b.prime(i), b.prime(i)),
                1
            );
        }
    }

    /// The CRT idempotent `Ẽ_j = (Q_c/q_j)·[(Q_c/q_j)^{-1}]_{q_j}` of the
    /// `c`-prime prefix, reduced modulo `m`.
    fn idempotent_mod(b: &RnsBasis, c: usize, j: usize, m: u64) -> u64 {
        let qj = b.prime(j);
        let (mut mod_qj, mut mod_m) = (1u64, 1u64);
        for (l, &ql) in b.primes()[..c].iter().enumerate() {
            if l != j {
                mod_qj = mul_mod(mod_qj, ql % qj, qj);
                mod_m = mul_mod(mod_m, ql % m, m);
            }
        }
        mul_mod(mod_m, inv_mod(mod_qj, qj) % m, m)
    }

    /// `Ẽ_j ≡ δ_ij (mod q_i)` at every prefix length: the reason one
    /// key-switching key generated at the top of the chain serves every
    /// level (see `hecate_ckks::keys`).
    #[test]
    fn crt_idempotents_behave() {
        let b = basis();
        for c in 1..=b.chain_len() {
            for j in 0..c {
                for i in 0..c {
                    let v = idempotent_mod(&b, c, j, b.prime(i));
                    assert_eq!(v, u64::from(i == j), "E_{j} mod q_{i} at prefix {c}");
                }
            }
        }
    }

    /// The centered value of coefficient 0 of `v` lifted from the prefix
    /// of length `c`, divided by `2^scale_bits`.
    fn lift(b: &RnsBasis, c: usize, v: i64, scale_bits: f64) -> f64 {
        let mut coeffs = vec![0; b.degree()];
        coeffs[0] = v;
        crate::poly::RnsPoly::from_signed_coeffs(b, c, &coeffs).lift_centered(b, scale_bits)[0]
    }

    #[test]
    fn crt_reconstruction_roundtrip() {
        let b = basis();
        for v in [0i64, 1, -1, 123_456_789, -987_654_321] {
            let got = lift(&b, 3, v, 0.0);
            assert!((got - v as f64).abs() < 1e-6, "v={v} got={got}");
        }
    }

    #[test]
    fn crt_reconstruction_scaled() {
        let b = basis();
        // Encode 3.25 at scale 2^20.
        let v = (3.25f64 * (1u64 << 20) as f64).round() as i64;
        let got = lift(&b, 4, v, 20.0);
        assert!((got - 3.25).abs() < 1e-6);
    }

    #[test]
    fn center_splits_at_half() {
        let q = 101u64;
        assert_eq!(RnsBasis::center(0, q), 0);
        assert_eq!(RnsBasis::center(50, q), 50);
        assert_eq!(RnsBasis::center(51, q), -50);
        assert_eq!(RnsBasis::center(100, q), -1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_primes_rejected() {
        let p = generate_ntt_primes(30, 64, 1, &[])[0];
        RnsBasis::from_primes(64, vec![p, p], generate_ntt_primes(31, 64, 1, &[p])[0]);
    }
}
