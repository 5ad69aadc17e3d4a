//! Packed linear algebra on encrypted vectors.
//!
//! The vision and network benchmarks reduce to linear maps over packed
//! slot vectors. [`linear_layer`] applies a dense (or structurally sparse)
//! matrix with the standard *diagonal method*:
//!
//! `y = Σ_d diag_d(W) ⊙ rot(x, d)`  with  `diag_d[j] = W[j][(j+d) mod V]`,
//!
//! skipping all-zero diagonals — for convolution matrices most diagonals
//! vanish, so the rotation count tracks the kernel's true footprint.
//! [`stencil`] applies a 2-D stencil (image filter) with one rotation per
//! tap, the layout the image benchmarks use.

use hecate_ir::{FunctionBuilder, ValueId};

/// Applies `y = W·x + bias` over vector width `vec`.
///
/// `weights` is `out_dim` rows by `in_dim` columns with
/// `max(out_dim, in_dim) ≤ vec`; slots ≥ `out_dim` of the result hold
/// zeros (up to noise). A `bias` of `None` skips the addition.
///
/// # Panics
/// Panics if the matrix is empty, ragged, larger than `vec`, or entirely
/// zero.
pub fn linear_layer(
    b: &mut FunctionBuilder,
    x: ValueId,
    weights: &[Vec<f64>],
    bias: Option<&[f64]>,
    vec: usize,
) -> ValueId {
    let out_dim = weights.len();
    assert!(out_dim > 0, "empty weight matrix");
    let in_dim = weights[0].len();
    assert!(weights.iter().all(|r| r.len() == in_dim), "ragged matrix");
    assert!(
        out_dim <= vec && in_dim <= vec,
        "matrix exceeds vector width"
    );

    let mut acc: Option<ValueId> = None;
    for d in 0..vec {
        let diag: Vec<f64> = (0..vec)
            .map(|j| {
                let col = (j + d) % vec;
                if j < out_dim && col < in_dim {
                    weights[j][col]
                } else {
                    0.0
                }
            })
            .collect();
        if diag.iter().all(|v| *v == 0.0) {
            continue;
        }
        let rx = if d == 0 { x } else { b.rotate(x, d) };
        let c = b.vector(diag);
        let term = b.mul(rx, c);
        acc = Some(match acc {
            None => term,
            Some(a) => b.add(a, term),
        });
    }
    let mut y = acc.expect("weight matrix must have a nonzero entry");
    if let Some(bias) = bias {
        let mut padded = bias.to_vec();
        padded.resize(vec, 0.0);
        let c = b.vector(padded);
        y = b.add(y, c);
    }
    y
}

/// One tap of a 2-D stencil: `(dr, dc, coefficient)`.
pub type Tap = (i64, i64, f64);

/// Applies a stencil over an `h×w` image packed row-major in a width-`vec`
/// vector (`h·w ≤ vec`), with cyclic boundary handling (the packed-FHE
/// convention the paper's image benchmarks use).
///
/// # Panics
/// Panics if the image does not fit or every coefficient is zero.
pub fn stencil(
    b: &mut FunctionBuilder,
    x: ValueId,
    taps: &[Tap],
    h: usize,
    w: usize,
    vec: usize,
) -> ValueId {
    assert!(h * w <= vec, "image exceeds vector width");
    let mut acc: Option<ValueId> = None;
    for &(dr, dc, coef) in taps {
        if coef == 0.0 {
            continue;
        }
        let offset = dr * w as i64 + dc;
        let step = offset.rem_euclid(vec as i64) as usize;
        let rx = if step == 0 { x } else { b.rotate(x, step) };
        let term = if (coef - 1.0).abs() < 1e-15 {
            rx
        } else {
            let c = b.splat(coef);
            b.mul(rx, c)
        };
        acc = Some(match acc {
            None => term,
            Some(a) => b.add(a, term),
        });
    }
    acc.expect("stencil must have a nonzero tap")
}

/// Dense matrix–vector product on plain data (reference semantics for
/// tests and weight preparation).
pub fn matvec(weights: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    weights
        .iter()
        .map(|row| row.iter().zip(x).map(|(w, v)| w * v).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::interp::interpret;
    use std::collections::HashMap;

    fn run(func: &hecate_ir::Function, x: Vec<f64>) -> Vec<f64> {
        let mut ins = HashMap::new();
        ins.insert("x".to_string(), x);
        interpret(func, &ins).unwrap()["out0"].clone()
    }

    #[test]
    fn linear_layer_matches_matvec() {
        let vec = 16;
        let weights = crate::workloads::xavier_weights(5, 12, 3);
        let mut b = FunctionBuilder::new("lin", vec);
        let x = b.input_cipher("x");
        let y = linear_layer(&mut b, x, &weights, None, vec);
        b.output(y);
        let f = b.finish();
        let input: Vec<f64> = (0..12).map(|i| 0.1 * i as f64 - 0.5).collect();
        let mut padded = input.clone();
        padded.resize(vec, 0.0);
        let got = run(&f, padded);
        let expect = matvec(&weights, &input);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9, "{g} vs {e}");
        }
        for g in &got[5..] {
            assert!(g.abs() < 1e-9, "slots beyond out_dim must be zero");
        }
    }

    #[test]
    fn bias_is_added() {
        let vec = 8;
        let weights = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let bias = [0.5, -0.25];
        let mut b = FunctionBuilder::new("bias", vec);
        let x = b.input_cipher("x");
        let y = linear_layer(&mut b, x, &weights, Some(&bias), vec);
        b.output(y);
        let f = b.finish();
        let got = run(&f, vec![1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((got[0] - 1.5).abs() < 1e-12);
        assert!((got[1] - 1.75).abs() < 1e-12);
    }

    #[test]
    fn zero_diagonals_are_skipped() {
        // Identity matrix: only diagonal 0 is nonzero — no rotations.
        let vec = 8;
        let weights: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| if i == j { 2.0 } else { 0.0 }).collect())
            .collect();
        let mut b = FunctionBuilder::new("id", vec);
        let x = b.input_cipher("x");
        let y = linear_layer(&mut b, x, &weights, None, vec);
        b.output(y);
        let f = b.finish();
        let rotations = f
            .ops()
            .iter()
            .filter(|o| matches!(o, hecate_ir::Op::Rotate { .. }))
            .count();
        assert_eq!(rotations, 0);
    }

    #[test]
    fn stencil_shifts_and_scales() {
        // 4×4 image; tap (0,1,1.0) shifts left by one column (cyclically).
        let (h, w, vec) = (4, 4, 16);
        let mut b = FunctionBuilder::new("st", vec);
        let x = b.input_cipher("x");
        let y = stencil(&mut b, x, &[(0, 1, 1.0)], h, w, vec);
        b.output(y);
        let f = b.finish();
        let img: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let got = run(&f, img);
        assert_eq!(got[0], 1.0);
        assert_eq!(got[3], 4.0, "cyclic wrap crosses row boundary");
    }

    #[test]
    fn stencil_combines_taps() {
        let (h, w, vec) = (4, 4, 16);
        let mut b = FunctionBuilder::new("st2", vec);
        let x = b.input_cipher("x");
        let y = stencil(&mut b, x, &[(0, 0, 2.0), (1, 0, -1.0)], h, w, vec);
        b.output(y);
        let f = b.finish();
        let img: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let got = run(&f, img);
        // got[i] = 2·img[i] − img[i+4 (mod 16)]
        assert_eq!(got[0], 2.0 * 0.0 - 4.0);
        assert_eq!(got[5], 2.0 * 5.0 - 9.0);
    }
}
