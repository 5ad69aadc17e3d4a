//! The input programs, all made from `--seed`: the seed picks app data
//! (images, weights, regression samples) and the synthetic polynomial's
//! coefficients and inputs. It never changes a program's shape, so timing
//! is sized the same under every seed.

use hecate_apps::workloads::uniform_samples;
use hecate_apps::{harris, lenet, mlp, regression, sobel};
use hecate_ir::interp::interpret;
use hecate_ir::{Function, FunctionBuilder, ValueId};
use std::collections::HashMap;

pub type Bindings = HashMap<String, Vec<f64>>;

/// A source program, its inputs, and the plaintext reference every
/// encrypted output is checked against. The reference comes from
/// `hecate_ir::interp` on the *source* function, so it is independent of
/// the compiler under test.
pub struct Program {
    pub name: &'static str,
    pub func: Function,
    pub inputs: Bindings,
    pub reference: Bindings,
}

impl Program {
    fn new(name: &'static str, (func, inputs): (Function, Bindings)) -> Program {
        let reference = interpret(&func, &inputs).expect("generated inputs bind every input");
        Program {
            name,
            func,
            inputs,
            reference,
        }
    }
}

/// The eight paper benchmarks a workload can ask for by name.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Paper,
}

pub const PAPER8: [&str; 8] = [
    "SF", "HCD", "MLP", "LeNet", "LR E2", "LR E3", "PR E2", "PR E3",
];

/// Builds one of the paper's benchmarks with `seed` as its data seed.
pub fn app(name: &'static str, size: Size, seed: u64) -> Program {
    let paper = size == Size::Paper;
    let img = if paper { 64 } else { 16 };
    let reg = |epochs| {
        if paper {
            regression::RegressionConfig::paper(epochs, seed)
        } else {
            regression::RegressionConfig::small(epochs, seed)
        }
    };
    let built = match name {
        "SF" => sobel::build(&sobel::SobelConfig {
            h: img,
            w: img,
            seed,
        }),
        "HCD" => harris::build(&harris::HarrisConfig {
            h: img,
            w: img,
            seed,
        }),
        "MLP" if paper => mlp::build(&mlp::MlpConfig::paper(seed)),
        "MLP" => mlp::build(&mlp::MlpConfig::small(seed)),
        "LeNet" if paper => lenet::build(&lenet::LenetConfig::paper(seed)),
        "LeNet" => lenet::build(&lenet::LenetConfig::small(seed)),
        "LR E2" => regression::build_linear(&reg(2)),
        "LR E3" => regression::build_linear(&reg(3)),
        "PR E2" => regression::build_poly(&reg(2)),
        "PR E3" => regression::build_poly(&reg(3)),
        other => panic!("unknown paper benchmark '{other}'"),
    };
    Program::new(name, built)
}

const POLY_VEC: usize = 64;
const POLY_INPUTS: usize = 4;
const POLY_DEGREE: usize = 7;

/// The rotation-free program of `exec-mul-deep`: four degree-7
/// polynomials in the power basis, one per encrypted input, multiplied
/// together. Coefficients are drawn in ±0.5 and inputs in ±0.8.
pub fn poly_deep(seed: u64) -> Program {
    let mut b = FunctionBuilder::new("poly4x7", POLY_VEC);
    let mut inputs = Bindings::new();
    let mut polys = Vec::new();
    for k in 0..POLY_INPUTS {
        let name = format!("x{k}");
        let sub = seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64);
        let coeffs: Vec<f64> = uniform_samples(POLY_DEGREE + 1, sub)
            .iter()
            .map(|c| 0.5 * c)
            .collect();
        let data: Vec<f64> = uniform_samples(POLY_VEC, sub ^ 0x5bd1_e995)
            .iter()
            .map(|v| 0.8 * v)
            .collect();
        inputs.insert(name.clone(), data);
        let x = b.input_cipher(name);
        polys.push(power_basis_poly(&mut b, x, &coeffs));
    }
    let left = b.mul(polys[0], polys[1]);
    let right = b.mul(polys[2], polys[3]);
    let out = b.mul(left, right);
    b.output_named("prod", out);
    Program::new("poly4x7", (b.finish(), inputs))
}

/// `c0 + c1·x + … + c7·x⁷` with x², x³, x⁴ = x²·x², x⁵, x⁶, x⁷ each built
/// from the two largest available powers.
fn power_basis_poly(b: &mut FunctionBuilder, x: ValueId, coeffs: &[f64]) -> ValueId {
    let x2 = b.square(x);
    let x3 = b.mul(x2, x);
    let x4 = b.square(x2);
    let x5 = b.mul(x4, x);
    let x6 = b.mul(x4, x2);
    let x7 = b.mul(x4, x3);
    let mut acc = b.splat(coeffs[0]);
    for (power, &c) in [x, x2, x3, x4, x5, x6, x7].into_iter().zip(&coeffs[1..]) {
        let k = b.splat(c);
        let term = b.mul(power, k);
        acc = b.add(acc, term);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_data_but_not_shape() {
        let (a, b, c) = (poly_deep(1), poly_deep(1), poly_deep(2));
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.reference, b.reference);
        assert_ne!(a.inputs, c.inputs);
        assert_eq!(a.func.len(), c.func.len());
        let (m1, m2) = (app("MLP", Size::Small, 1), app("MLP", Size::Small, 2));
        assert_eq!(m1.func.len(), m2.func.len());
        assert_ne!(m1.reference, m2.reference);
    }

    #[test]
    fn poly_deep_has_no_rotation() {
        let p = poly_deep(3);
        assert!(p.func.ops().iter().all(|op| op.mnemonic() != "rotate"));
        assert_eq!(p.reference["prod"].len(), POLY_VEC);
    }
}
