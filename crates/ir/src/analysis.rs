//! Structural analyses over IR functions: use–def information, liveness
//! from outputs, dead-code elimination, and the statistics the paper's
//! Table III reports (use counts).

use crate::ir::{Function, Op, ValueId};

/// For every value, the list of instructions that use it (in order).
pub fn users(func: &Function) -> Vec<Vec<ValueId>> {
    let mut out = vec![Vec::new(); func.len()];
    for (i, op) in func.ops().iter().enumerate() {
        for v in op.operands() {
            out[v.index()].push(ValueId(i as u32));
        }
    }
    out
}

/// Total number of use–def edges (the "uses" column of Table III).
pub fn use_edge_count(func: &Function) -> usize {
    func.ops().iter().map(|op| op.operands().len()).sum()
}

/// Values reachable from the outputs (live values).
pub fn live_values(func: &Function) -> Vec<bool> {
    let mut live = vec![false; func.len()];
    let mut stack: Vec<ValueId> = func.outputs().iter().map(|(_, v)| *v).collect();
    while let Some(v) = stack.pop() {
        if live[v.index()] {
            continue;
        }
        live[v.index()] = true;
        stack.extend(func.op(v).operands());
    }
    live
}

/// Removes dead operations, preserving order. Returns the new function and
/// the value remapping (`old → Some(new)` for surviving values).
pub fn eliminate_dead_code(func: &Function) -> (Function, Vec<Option<ValueId>>) {
    let live = live_values(func);
    let mut remap: Vec<Option<ValueId>> = vec![None; func.len()];
    let mut out = Function::new(func.name.clone(), func.vec_size);
    for (i, op) in func.ops().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let new_op = remap_op(op, &remap);
        remap[i] = Some(out.push(new_op));
    }
    for (name, v) in func.outputs() {
        out.mark_output(name.clone(), remap[v.index()].expect("output is live"));
    }
    (out, remap)
}

/// Rewrites an operation's operands through a remapping table.
///
/// # Panics
/// Panics if an operand has no mapping (caller must process in order).
pub fn remap_op(op: &Op, remap: &[Option<ValueId>]) -> Op {
    let m = |v: ValueId| remap[v.index()].expect("operand mapped");
    match op {
        Op::Input { name } => Op::Input { name: name.clone() },
        Op::Const { data } => Op::Const { data: data.clone() },
        Op::Encode {
            value,
            scale_bits,
            level,
        } => Op::Encode {
            value: m(*value),
            scale_bits: *scale_bits,
            level: *level,
        },
        Op::Add(a, b) => Op::Add(m(*a), m(*b)),
        Op::Sub(a, b) => Op::Sub(m(*a), m(*b)),
        Op::Mul(a, b) => Op::Mul(m(*a), m(*b)),
        Op::Negate(a) => Op::Negate(m(*a)),
        Op::Rotate { value, step } => Op::Rotate {
            value: m(*value),
            step: *step,
        },
        Op::Rescale(a) => Op::Rescale(m(*a)),
        Op::ModSwitch(a) => Op::ModSwitch(m(*a)),
        Op::Upscale { value, target_bits } => Op::Upscale {
            value: m(*value),
            target_bits: *target_bits,
        },
        Op::Downscale(a) => Op::Downscale(m(*a)),
    }
}

/// Counts operations by mnemonic (diagnostics and reports).
pub fn op_histogram(func: &Function) -> std::collections::BTreeMap<&'static str, usize> {
    let mut h = std::collections::BTreeMap::new();
    for op in func.ops() {
        *h.entry(op.mnemonic()).or_insert(0) += 1;
    }
    h
}

/// How a logical rotation by `step` moves data inside a packed block of
/// logical width `width`. Returns `(fwd_add, back_add)`: the extra forward
/// and backward contamination this rotation adds.
///
/// The packed executor realizes a logical rotate-left by `step` as either a
/// physical rotate-left by `step % width` (cheap direction) or a physical
/// rotate-right by `width - step % width`, whichever moves data less. This
/// function is the single source of truth for that direction choice — the
/// backend's physical step mapping must agree with it.
pub fn packed_shift(step: usize, width: usize) -> (usize, usize) {
    if width == 0 {
        return (0, 0);
    }
    let s = step % width;
    if s == 0 {
        (0, 0)
    } else if s <= width - s {
        (s, 0) // rotate left: data smears forward past the window end
    } else {
        (0, width - s) // rotate right: data smears backward before the start
    }
}

/// Per-value contamination reach `(back, fwd)` under packed execution.
///
/// Leaves (inputs, constants, encodes of fresh constants) start clean at
/// `(0, 0)`; a rotation adds [`packed_shift`] to its operand's reach; every
/// other op takes the element-wise max over its operands (slot-wise ops
/// cannot clean a contaminated slot).
pub fn slot_reaches(func: &Function) -> Vec<(usize, usize)> {
    let w = func.vec_size;
    let mut reach: Vec<(usize, usize)> = Vec::with_capacity(func.len());
    for op in func.ops() {
        let mut r = (0usize, 0usize);
        for v in op.operands() {
            let (b, f) = reach[v.index()];
            r.0 = r.0.max(b);
            r.1 = r.1.max(f);
        }
        if let Op::Rotate { step, .. } = op {
            let (fwd_add, back_add) = packed_shift(*step, w);
            r.0 += back_add;
            r.1 += fwd_add;
        }
        reach.push(r);
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn with_dead_code() -> Function {
        let mut b = FunctionBuilder::new("d", 4);
        let x = b.input_cipher("x");
        let live = b.mul(x, x);
        let _dead = b.add(x, x); // never used
        b.output(live);
        b.finish()
    }

    #[test]
    fn users_and_edge_count() {
        let f = with_dead_code();
        let u = users(&f);
        assert_eq!(u[0].len(), 4); // x used twice by mul, twice by add
        assert_eq!(use_edge_count(&f), 4);
    }

    #[test]
    fn liveness_from_outputs() {
        let f = with_dead_code();
        let live = live_values(&f);
        assert_eq!(live, vec![true, true, false]);
    }

    #[test]
    fn dce_removes_dead_and_remaps() {
        let f = with_dead_code();
        let (g, remap) = eliminate_dead_code(&f);
        assert_eq!(g.len(), 2);
        assert_eq!(remap[2], None);
        assert!(g.verify_structure().is_ok());
        assert_eq!(g.outputs()[0].1, remap[1].unwrap());
    }

    #[test]
    fn histogram_counts() {
        let f = with_dead_code();
        let h = op_histogram(&f);
        assert_eq!(h["input"], 1);
        assert_eq!(h["mul"], 1);
        assert_eq!(h["add"], 1);
    }

    #[test]
    fn packed_shift_picks_the_short_direction() {
        // Rotate-left by 1 in a width-8 block: smears 1 slot forward.
        assert_eq!(packed_shift(1, 8), (1, 0));
        // Rotate-left by 7 == rotate-right by 1: smears 1 slot backward.
        assert_eq!(packed_shift(7, 8), (0, 1));
        // Half-width ties go forward; full rotations are free.
        assert_eq!(packed_shift(4, 8), (4, 0));
        assert_eq!(packed_shift(8, 8), (0, 0));
        assert_eq!(packed_shift(17, 8), (1, 0));
    }

    #[test]
    fn footprint_tracks_rotation_reach() {
        let mut b = FunctionBuilder::new("rot", 8);
        let x = b.input_cipher("x");
        let left = b.rotate(x, 1); // fwd 1
        let right = b.rotate(x, 7); // back 1
        let sum = b.add(left, right); // (back 1, fwd 1)
        let deeper = b.rotate(sum, 2); // fwd grows to 3
        b.output(deeper);
        let f = b.finish();

        let reach = slot_reaches(&f);
        assert_eq!(reach[x.index()], (0, 0));
        assert_eq!(reach[left.index()], (0, 1));
        assert_eq!(reach[right.index()], (1, 0));
        assert_eq!(reach[sum.index()], (1, 1));
        assert_eq!(reach[deeper.index()], (1, 3));
    }

    #[test]
    fn rotation_free_plan_has_tight_footprint() {
        let f = with_dead_code();
        assert!(slot_reaches(&f).iter().all(|&r| r == (0, 0)));
    }
}
