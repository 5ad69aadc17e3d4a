//! Property-based tests for the number-theoretic substrate.

use hecate_math::modular::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod, ShoupMul};
use hecate_math::ntt::NttTable;
use hecate_math::poly::RnsPoly;
use hecate_math::prime::{generate_ntt_primes, is_prime};
use hecate_math::rns::RnsBasis;
use proptest::prelude::*;

const Q: u64 = 1_099_510_054_913; // 40-bit NTT-friendly prime (2N = 2^15)

fn residue() -> impl Strategy<Value = u64> {
    0..Q
}

proptest! {
    #[test]
    fn modular_field_laws(a in residue(), b in residue(), c in residue()) {
        // Commutativity and associativity.
        prop_assert_eq!(add_mod(a, b, Q), add_mod(b, a, Q));
        prop_assert_eq!(mul_mod(a, b, Q), mul_mod(b, a, Q));
        prop_assert_eq!(
            add_mod(add_mod(a, b, Q), c, Q),
            add_mod(a, add_mod(b, c, Q), Q)
        );
        prop_assert_eq!(
            mul_mod(mul_mod(a, b, Q), c, Q),
            mul_mod(a, mul_mod(b, c, Q), Q)
        );
        // Distributivity.
        prop_assert_eq!(
            mul_mod(a, add_mod(b, c, Q), Q),
            add_mod(mul_mod(a, b, Q), mul_mod(a, c, Q), Q)
        );
        // Subtraction inverts addition.
        prop_assert_eq!(sub_mod(add_mod(a, b, Q), b, Q), a);
    }

    #[test]
    fn inverses_and_powers(a in 1..Q) {
        prop_assert_eq!(mul_mod(a, inv_mod(a, Q), Q), 1);
        // Fermat: a^(Q-1) = 1.
        prop_assert_eq!(pow_mod(a, Q - 1, Q), 1);
    }

    #[test]
    fn shoup_multiplication_agrees(a in residue(), w in residue()) {
        let s = ShoupMul::new(w, Q);
        prop_assert_eq!(s.mul(a, Q), mul_mod(a, w, Q));
    }

    #[test]
    fn generated_primes_are_prime_and_friendly(bits in 24u32..50, count in 1usize..4) {
        let ps = generate_ntt_primes(bits, 256, count, &[]);
        for p in ps {
            prop_assert!(is_prime(p));
            prop_assert_eq!(p % 512, 1);
        }
    }

    #[test]
    fn ntt_roundtrip_random(coeffs in proptest::collection::vec(0..Q, 64)) {
        let t = NttTable::new(Q, 64);
        let mut a = coeffs.clone();
        t.forward(&mut a);
        t.backward(&mut a);
        prop_assert_eq!(a, coeffs);
    }

    #[test]
    fn ntt_multiplication_commutes(
        a in proptest::collection::vec(0u64..1000, 32),
        b in proptest::collection::vec(0u64..1000, 32),
    ) {
        let t = NttTable::new(Q, 32);
        let mul = |x: &[u64], y: &[u64]| {
            let (mut fx, mut fy) = (x.to_vec(), y.to_vec());
            t.forward(&mut fx);
            t.forward(&mut fy);
            let mut fz: Vec<u64> = fx.iter().zip(&fy).map(|(p, q)| mul_mod(*p, *q, Q)).collect();
            t.backward(&mut fz);
            fz
        };
        prop_assert_eq!(mul(&a, &b), mul(&b, &a));
    }

    #[test]
    fn crt_reconstruction_roundtrip(v in -(1i64 << 40)..(1i64 << 40)) {
        let basis = RnsBasis::generate(16, 45, 30, 3, 45);
        let mut coeffs = vec![0; 16];
        coeffs[0] = v;
        let got = RnsPoly::from_signed_coeffs(&basis, 3, &coeffs).lift_centered(&basis, 0.0)[0];
        prop_assert!((got - v as f64).abs() < 1e-3, "{got} vs {v}");
    }

    /// The centered lift against `i128 → f64`: draws in bit-length bands
    /// 1–126 of both signs, on every prefix of chains whose `q0` and `S_f`
    /// are 30, 45 and 60 bits. Below 2^64 it is bit-equal. Up to 2^127 it
    /// rounds from the top 64 bits, one ulp off at most when `2^−s` is a
    /// power of two; a fractional `s` adds one rounding of `exp2`.
    #[test]
    fn lift_matches_i128_conversion(
        draws in proptest::collection::vec((1u32..127, any::<u64>(), any::<u64>(), any::<bool>()), 16),
    ) {
        let xs: Vec<i128> = draws
            .iter()
            .map(|&(bits, hi, lo, neg)| {
                let m = (hi as u128) << 64 | lo as u128;
                let x = ((m >> (128 - bits)) | (1u128 << (bits - 1))) as i128;
                if neg { -x } else { x }
            })
            .collect();
        for (bits, len) in [(30, 5), (45, 3), (60, 3)] {
            let basis = RnsBasis::generate(16, bits, bits, len, bits);
            for c in 1..=len {
                // `None`: Q_c ≥ 2^128 holds every draw.
                let q = basis.primes()[..c].iter().try_fold(1u128, |p, &q| p.checked_mul(q as u128));
                let fits = |x: i128| q.is_none_or(|q| 2 * x.unsigned_abs() < q);
                let held: Vec<i128> = xs.iter().map(|&x| if fits(x) { x } else { 0 }).collect();
                let poly = RnsPoly::from_i128_coeffs(&basis, c, &held);
                for s in [0.0, 24.0, 30.29, 59.7] {
                    for (&x, got) in held.iter().zip(poly.lift_centered(&basis, s)) {
                        let want = x as f64 * (-s).exp2();
                        let ulps = (got.to_bits() as i64 - want.to_bits() as i64).abs();
                        let bound = if x.unsigned_abs() < 1 << 64 {
                            0
                        } else if s == s.round() {
                            1
                        } else {
                            2
                        };
                        prop_assert!(ulps <= bound, "x={x} s={s} prefix {c}: {got} vs {want}");
                    }
                }
            }
        }
    }

    #[test]
    fn poly_ring_laws(seed in any::<u64>()) {
        let basis = RnsBasis::generate(32, 40, 30, 2, 40);
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(seed);
        let rand_poly = |rng: &mut hecate_math::rng::Xoshiro256| {
            let coeffs: Vec<i64> = (0..32).map(|_| rng.next_below(2001) as i64 - 1000).collect();
            let mut p = RnsPoly::from_signed_coeffs(&basis, 2, &coeffs);
            p.to_ntt(&basis);
            p
        };
        let a = rand_poly(&mut rng);
        let b = rand_poly(&mut rng);
        let c = rand_poly(&mut rng);
        // (a+b)·c == a·c + b·c
        let mut lhs = a.clone();
        lhs.add_assign(&b, &basis);
        lhs.mul_assign_pointwise(&c, &basis);
        let mut ac = a.clone();
        ac.mul_assign_pointwise(&c, &basis);
        let mut bc = b.clone();
        bc.mul_assign_pointwise(&c, &basis);
        ac.add_assign(&bc, &basis);
        prop_assert_eq!(lhs, ac);
    }

    #[test]
    fn automorphism_is_additive(seed in any::<u64>(), g_pow in 0usize..5) {
        let basis = RnsBasis::generate(32, 40, 30, 1, 40);
        let g = {
            let mut g = 1usize;
            for _ in 0..g_pow {
                g = g * 5 % 64;
            }
            g
        };
        let mut rng = hecate_math::rng::Xoshiro256::seed_from_u64(seed);
        let mk = |rng: &mut hecate_math::rng::Xoshiro256| {
            let coeffs: Vec<i64> = (0..32).map(|_| rng.next_below(100) as i64).collect();
            RnsPoly::from_signed_coeffs(&basis, 1, &coeffs)
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let mut sum = a.clone();
        sum.add_assign(&b, &basis);
        let lhs = sum.automorphism(g, &basis);
        let mut rhs = a.automorphism(g, &basis);
        rhs.add_assign(&b.automorphism(g, &basis), &basis);
        prop_assert_eq!(lhs, rhs);
    }
}
