//! Semantics-preserving IR cleanups: common subexpression elimination and
//! constant folding.
//!
//! Input programs built from reusable components (stencils, diagonal
//! matrix–vector products) repeat structurally identical operations —
//! most importantly rotations, the second most expensive FHE operation.
//! CSE merges them before scale management, shrinking both the compiled
//! program and the SMU graph. Folding collapses arithmetic between
//! constants so the scale manager only ever sees one `free` operand per
//! operation, and reduces rotation steps modulo the width so CSE merges
//! congruent rotations.

use crate::analysis::eliminate_dead_code;
use crate::ir::{ConstData, Function, Op, ValueId};
use std::collections::HashMap;

/// A hashable structural key for an operation (constants are keyed by
/// bit-exact payload).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpKey {
    Input(String),
    Const(Vec<u64>),
    Encode(ValueId, u64, usize),
    Add(ValueId, ValueId),
    Sub(ValueId, ValueId),
    Mul(ValueId, ValueId),
    Negate(ValueId),
    Rotate(ValueId, usize),
    Rescale(ValueId),
    ModSwitch(ValueId),
    Upscale(ValueId, u64),
    Downscale(ValueId),
}

fn key_of(op: &Op) -> OpKey {
    let bits = |v: &f64| v.to_bits();
    match op {
        Op::Input { name } => OpKey::Input(name.clone()),
        Op::Const { data } => OpKey::Const(data.values.iter().map(bits).collect()),
        Op::Encode {
            value,
            scale_bits,
            level,
        } => OpKey::Encode(*value, bits(scale_bits), *level),
        Op::Add(a, b) => {
            // Addition and multiplication are commutative: canonicalize.
            let (x, y) = if a <= b { (*a, *b) } else { (*b, *a) };
            OpKey::Add(x, y)
        }
        Op::Mul(a, b) => {
            let (x, y) = if a <= b { (*a, *b) } else { (*b, *a) };
            OpKey::Mul(x, y)
        }
        Op::Sub(a, b) => OpKey::Sub(*a, *b),
        Op::Negate(a) => OpKey::Negate(*a),
        Op::Rotate { value, step } => OpKey::Rotate(*value, *step),
        Op::Rescale(a) => OpKey::Rescale(*a),
        Op::ModSwitch(a) => OpKey::ModSwitch(*a),
        Op::Upscale { value, target_bits } => OpKey::Upscale(*value, bits(target_bits)),
        Op::Downscale(a) => OpKey::Downscale(*a),
    }
}

/// Eliminates structurally identical operations, keeping the first
/// occurrence. Returns the cleaned function.
///
/// Inputs with the same name are merged (they denote the same ciphertext);
/// constants are merged by exact payload.
pub fn eliminate_common_subexpressions(func: &Function) -> Function {
    let mut out = Function::new(func.name.clone(), func.vec_size);
    let mut remap: Vec<Option<ValueId>> = vec![None; func.len()];
    let mut seen: HashMap<OpKey, ValueId> = HashMap::new();
    for (i, op) in func.ops().iter().enumerate() {
        let remapped = crate::analysis::remap_op(op, &remap);
        let key = key_of(&remapped);
        let id = match seen.get(&key) {
            Some(&v) => v,
            None => {
                let v = out.push(remapped);
                seen.insert(key, v);
                v
            }
        };
        remap[i] = Some(id);
    }
    for (name, v) in func.outputs() {
        out.mark_output(name.clone(), remap[v.index()].expect("output mapped"));
    }
    let (clean, _) = eliminate_dead_code(&out);
    clean
}

/// Folds operations whose operands are all constants into constants, and
/// applies the algebraic identities `x·1 → x`, `x+0 → x`, `x−0 → x`
/// when the constant side is an exact splat. Rotation steps reduce modulo
/// the width, and a full-width rotation is the identity, so congruent
/// rotations reach CSE with one step. Returns the cleaned function.
pub fn fold_constants(func: &Function) -> Function {
    let n = func.vec_size;
    let mut out = Function::new(func.name.clone(), n);
    let mut remap: Vec<Option<ValueId>> = vec![None; func.len()];
    // Track constant payloads of values in the *new* function.
    let mut consts: HashMap<ValueId, ConstData> = HashMap::new();
    let splat_of = |c: &ConstData| -> Option<f64> {
        let v0 = c.at(0);
        (0..n).all(|i| c.at(i) == v0).then_some(v0)
    };
    for (i, op) in func.ops().iter().enumerate() {
        let mut remapped = crate::analysis::remap_op(op, &remap);
        if let Op::Rotate { step, .. } = &mut remapped {
            *step %= n;
        }
        let const_of = |v: &ValueId| consts.get(v).cloned();
        let materialize =
            |f: Box<dyn Fn(usize) -> f64>| ConstData::vector((0..n).map(&f).collect());
        let folded: Option<ConstData> = match &remapped {
            Op::Add(a, b) => match (const_of(a), const_of(b)) {
                (Some(ca), Some(cb)) => Some(materialize(Box::new(move |k| ca.at(k) + cb.at(k)))),
                _ => None,
            },
            Op::Sub(a, b) => match (const_of(a), const_of(b)) {
                (Some(ca), Some(cb)) => Some(materialize(Box::new(move |k| ca.at(k) - cb.at(k)))),
                _ => None,
            },
            Op::Mul(a, b) => match (const_of(a), const_of(b)) {
                (Some(ca), Some(cb)) => Some(materialize(Box::new(move |k| ca.at(k) * cb.at(k)))),
                _ => None,
            },
            Op::Negate(a) => const_of(a).map(|ca| materialize(Box::new(move |k| -ca.at(k)))),
            Op::Rotate { value, step } => const_of(value).map(|ca| {
                let step = *step;
                materialize(Box::new(move |k| ca.at((k + step) % n)))
            }),
            _ => None,
        };
        // Identity simplifications on mixed const/cipher operations.
        let identity: Option<ValueId> = match &remapped {
            Op::Add(a, b) | Op::Sub(a, b) => {
                let zb = consts.get(b).and_then(&splat_of) == Some(0.0);
                let za = consts.get(a).and_then(&splat_of) == Some(0.0);
                if zb {
                    Some(*a)
                } else if za && matches!(remapped, Op::Add(..)) {
                    Some(*b)
                } else {
                    None
                }
            }
            Op::Mul(a, b) => {
                if consts.get(b).and_then(&splat_of) == Some(1.0) {
                    Some(*a)
                } else if consts.get(a).and_then(&splat_of) == Some(1.0) {
                    Some(*b)
                } else {
                    None
                }
            }
            Op::Rotate { value, step: 0 } => Some(*value),
            _ => None,
        };
        let id = if let Some(data) = folded {
            let v = out.push(Op::Const { data: data.clone() });
            consts.insert(v, data);
            v
        } else if let Some(v) = identity {
            v
        } else {
            let v = out.push(remapped.clone());
            if let Op::Const { data } = &remapped {
                consts.insert(v, data.clone());
            }
            v
        };
        remap[i] = Some(id);
    }
    for (name, v) in func.outputs() {
        out.mark_output(name.clone(), remap[v.index()].expect("output mapped"));
    }
    let (clean, _) = eliminate_dead_code(&out);
    clean
}

/// The standard cleanup pipeline applied before scale management: fold,
/// then CSE (folding can expose identical subtrees).
pub fn canonicalize(func: &Function) -> Function {
    eliminate_common_subexpressions(&fold_constants(func))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::interpret;
    use std::collections::HashMap as Map;

    fn run(f: &Function, x: Vec<f64>) -> Vec<f64> {
        let mut ins = Map::new();
        ins.insert("x".to_string(), x);
        interpret(f, &ins).unwrap()["out0"].clone()
    }

    #[test]
    fn cse_merges_identical_rotations() {
        let mut b = FunctionBuilder::new("cse", 8);
        let x = b.input_cipher("x");
        let r1 = b.rotate(x, 2);
        let r2 = b.rotate(x, 2); // identical
        let s = b.add(r1, r2);
        b.output(s);
        let f = b.finish();
        let g = eliminate_common_subexpressions(&f);
        let rotations = g
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::Rotate { .. }))
            .count();
        assert_eq!(rotations, 1);
        let input: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(run(&f, input.clone()), run(&g, input));
    }

    #[test]
    fn cse_respects_commutativity() {
        let mut b = FunctionBuilder::new("comm", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let m1 = b.mul(x, y);
        let m2 = b.mul(y, x); // same product
        let s = b.add(m1, m2);
        b.output(s);
        let g = eliminate_common_subexpressions(&b.finish());
        let muls = g.ops().iter().filter(|o| matches!(o, Op::Mul(..))).count();
        assert_eq!(muls, 1);
    }

    #[test]
    fn cse_does_not_merge_sub_operand_orders() {
        let mut b = FunctionBuilder::new("sub", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let d1 = b.sub(x, y);
        let d2 = b.sub(y, x);
        let s = b.add(d1, d2);
        b.output(s);
        let g = eliminate_common_subexpressions(&b.finish());
        let subs = g.ops().iter().filter(|o| matches!(o, Op::Sub(..))).count();
        assert_eq!(subs, 2, "x−y and y−x are different");
    }

    #[test]
    fn folding_collapses_constant_trees() {
        let mut b = FunctionBuilder::new("fold", 4);
        let x = b.input_cipher("x");
        let c1 = b.splat(2.0);
        let c2 = b.splat(3.0);
        let c3 = b.mul(c1, c2); // 6
        let c4 = b.neg(c3); // -6
        let y = b.mul(x, c4);
        b.output(y);
        let f = b.finish();
        let g = fold_constants(&f);
        // One constant op (the folded −6) plus input plus mul.
        assert_eq!(g.len(), 3, "{g:?}");
        assert_eq!(
            run(&f, vec![1.0, 2.0, 0.0, 0.0]),
            run(&g, vec![1.0, 2.0, 0.0, 0.0])
        );
    }

    #[test]
    fn identities_simplify() {
        let mut b = FunctionBuilder::new("id", 4);
        let x = b.input_cipher("x");
        let one = b.splat(1.0);
        let zero = b.splat(0.0);
        let m = b.mul(x, one); // → x
        let s = b.add(m, zero); // → x
        b.output(s);
        let g = fold_constants(&b.finish());
        assert_eq!(g.len(), 1, "only the input remains: {g:?}");
        assert_eq!(run(&g, vec![5.0; 4]), vec![5.0; 4]);
    }

    #[test]
    fn canonicalize_preserves_semantics_on_stencil_like_code() {
        let mut b = FunctionBuilder::new("mix", 8);
        let x = b.input_cipher("x");
        let k1 = b.splat(0.5);
        let k2 = b.splat(0.5);
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 1);
        let t1 = b.mul(r1, k1);
        let t2 = b.mul(r2, k2);
        let s = b.add(t1, t2);
        b.output(s);
        let f = b.finish();
        let g = canonicalize(&f);
        assert!(g.len() < f.len());
        let input: Vec<f64> = (0..8).map(|i| 0.25 * i as f64).collect();
        let (a, c) = (run(&f, input.clone()), run(&g, input));
        for (x, y) in a.iter().zip(&c) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
