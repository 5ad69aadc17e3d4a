//! Reference interpretation of IR on unencrypted vectors.
//!
//! By the homomorphism property (paper §IV-A), a correct FHE program must
//! compute the same function as its plaintext counterpart, with opaque
//! scale-management operations acting as the identity on values. This
//! interpreter is the ground truth the backends are validated against and
//! the source of the "expected" outputs for RMS-error measurements.

use crate::ir::{Function, Op, ValueId};
use std::collections::HashMap;

/// Evaluation error: an input binding is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingInput {
    /// The unbound input name.
    pub name: String,
}

impl std::fmt::Display for MissingInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no binding for input '{}'", self.name)
    }
}

impl std::error::Error for MissingInput {}

/// Evaluates every operation on plaintext vectors: one slot vector of
/// length `vec_size` per value, in operation order.
///
/// Each input name must be bound to a vector of length `vec_size` (shorter
/// vectors are zero-padded).
///
/// # Errors
/// Returns [`MissingInput`] if an input has no binding.
pub fn interpret_ops(
    func: &Function,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<Vec<Vec<f64>>, MissingInput> {
    let n = func.vec_size;
    let mut vals: Vec<Vec<f64>> = Vec::with_capacity(func.len());
    for op in func.ops() {
        let at = |v: &ValueId| vals[v.index()].as_slice();
        let v = match op {
            Op::Input { name } => {
                let raw = inputs
                    .get(name)
                    .ok_or_else(|| MissingInput { name: name.clone() })?;
                let mut padded = raw.clone();
                padded.resize(n, 0.0);
                padded
            }
            Op::Const { data } => (0..n).map(|i| data.at(i)).collect(),
            // Opaque operations are value-identities.
            Op::Encode { value, .. }
            | Op::Rescale(value)
            | Op::ModSwitch(value)
            | Op::Upscale { value, .. }
            | Op::Downscale(value) => at(value).to_vec(),
            Op::Add(a, b) => binop(at(a), at(b), |x, y| x + y),
            Op::Sub(a, b) => binop(at(a), at(b), |x, y| x - y),
            Op::Mul(a, b) => binop(at(a), at(b), |x, y| x * y),
            Op::Negate(a) => at(a).iter().map(|x| -x).collect(),
            Op::Rotate { value, step } => (0..n).map(|i| at(value)[(i + step) % n]).collect(),
        };
        vals.push(v);
    }
    Ok(vals)
}

/// Evaluates the function on plaintext vectors: [`interpret_ops`]
/// projected onto the named outputs.
///
/// # Errors
/// Returns [`MissingInput`] if an input has no binding.
pub fn interpret(
    func: &Function,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<HashMap<String, Vec<f64>>, MissingInput> {
    let vals = interpret_ops(func, inputs)?;
    Ok(func
        .outputs()
        .iter()
        .map(|(name, v)| (name.clone(), vals[v.index()].clone()))
        .collect())
}

fn binop(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| f(*x, *y)).collect()
}

/// Root-mean-square error between two slot vectors.
pub fn rms_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn evaluates_motivating_example() {
        let mut b = FunctionBuilder::new("m", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let z = b.add(x2, y2);
        let z2 = b.mul(z, z);
        let z3 = b.mul(z2, z);
        b.output(z3);
        let f = b.finish();
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![1.0, 2.0]);
        inputs.insert("y".to_string(), vec![2.0, 0.0]);
        let out = interpret(&f, &inputs).unwrap();
        let o = &out["out0"];
        assert_eq!(o[0], 125.0); // (1+4)^3
        assert_eq!(o[1], 64.0); // (4+0)^3
        assert_eq!(o[2], 0.0); // zero-padded
    }

    #[test]
    fn rotation_and_negate() {
        let mut b = FunctionBuilder::new("r", 4);
        let x = b.input_cipher("x");
        let r = b.rotate(x, 1);
        let nr = b.neg(r);
        b.output(nr);
        let f = b.finish();
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![1.0, 2.0, 3.0, 4.0]);
        let out = interpret(&f, &inputs).unwrap();
        assert_eq!(out["out0"], vec![-2.0, -3.0, -4.0, -1.0]);
    }

    #[test]
    fn opaque_ops_are_identity() {
        use crate::ir::Op;
        let mut b = FunctionBuilder::new("i", 2);
        let x = b.input_cipher("x");
        b.output(x);
        let mut f = b.finish();
        // Manually splice in scale management and redirect the output.
        let r = f.push(Op::Rescale(ValueId(0)));
        let d = f.push(Op::Downscale(r));
        f.mark_output("managed", d);
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), vec![5.0, -1.0]);
        let out = interpret(&f, &inputs).unwrap();
        assert_eq!(out["managed"], vec![5.0, -1.0]);
    }

    #[test]
    fn missing_input_reported() {
        let mut b = FunctionBuilder::new("m", 2);
        let x = b.input_cipher("x");
        b.output(x);
        let f = b.finish();
        let err = interpret(&f, &HashMap::new()).unwrap_err();
        assert_eq!(err.name, "x");
    }

    #[test]
    fn rms_error_basics() {
        assert_eq!(rms_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rms_error(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
