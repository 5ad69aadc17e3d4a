//! CKKS's native complex message space: encoding and homomorphic
//! arithmetic.

use hecate_ckks::{
    CkksEncoder, CkksParams, Decryptor, Encryptor, EvalKeys, Evaluator, KeyGenerator,
};
use hecate_math::fft::Complex64;

struct Fixture {
    enc: CkksEncoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    eval: Evaluator,
}

fn setup() -> Fixture {
    let params = CkksParams::new(128, 45, 30, 1, false).unwrap();
    let enc = CkksEncoder::new(&params);
    let mut kg = KeyGenerator::new(&params, 21);
    let pk = kg.public_key();
    let keys = EvalKeys::generate(&mut kg, &[1, 2], &[]);
    Fixture {
        encryptor: Encryptor::new(&params, pk, 22),
        decryptor: Decryptor::new(&params, kg.secret_key().clone()),
        eval: Evaluator::new(&params, keys),
        enc,
    }
}

fn msg() -> Vec<Complex64> {
    vec![
        Complex64::new(1.0, 2.0),
        Complex64::new(-0.5, 0.25),
        Complex64::new(0.0, -3.0),
        Complex64::new(2.0, 0.0),
    ]
}

#[test]
fn complex_roundtrip() {
    let f = setup();
    let vals = msg();
    let pt = f.enc.encode_complex(&vals, 30.0, 0).unwrap();
    let out = f.enc.decode_complex(&pt);
    for (o, v) in out.iter().zip(&vals) {
        assert!((*o - *v).abs() < 1e-6, "{o:?} vs {v:?}");
    }
}

#[test]
fn complex_multiplication_is_homomorphic() {
    let mut f = setup();
    let a = msg();
    let b: Vec<Complex64> = a.iter().map(|z| z.conj().scale(0.5)).collect();
    let ca = f
        .encryptor
        .encrypt(&f.enc.encode_complex(&a, 30.0, 0).unwrap());
    let cb = f
        .encryptor
        .encrypt(&f.enc.encode_complex(&b, 30.0, 0).unwrap());
    let prod = f.eval.rescale(&f.eval.mul(&ca, &cb).unwrap()).unwrap();
    let out = f.enc.decode_complex(&f.decryptor.decrypt(&prod));
    for i in 0..a.len() {
        let expect = a[i] * b[i];
        assert!(
            (out[i] - expect).abs() < 1e-2,
            "slot {i}: {:?} vs {expect:?}",
            out[i]
        );
    }
}
