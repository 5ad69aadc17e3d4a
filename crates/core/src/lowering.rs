//! The one per-op lowering of a typed program onto the RNS-CKKS backend:
//! for every IR op, its cost categories, the level and active primes its
//! work runs at, and for a rotation its physical slot step and its
//! Halevi–Shoup hoist role. The estimator prices it (paper §VI-C); the
//! executor generates keys, hoists and labels its trace spans from it, so
//! [`crate::CostTable::from_trace`] folds time into the cells priced.

use crate::estimator::CostOp;
use hecate_ir::types::Type;
use hecate_ir::{Function, Op};

/// The physical slot rotation realizing a logical rotate-left by `step`
/// on a `vec_size`-wide program.
///
/// Solo (`occupancy == 1`): replication makes every `step % slots`
/// rotation correct. Packed (`occupancy >= 2`): the executor must keep
/// each tenant's data inside its block's guard bands, so it takes the
/// *short* direction chosen by [`hecate_ir::packed_shift`] — a small
/// rotate-left (`fwd` slots) or its rotate-right complement
/// (`slots - back`).
pub fn physical_step(step: usize, vec_size: usize, slots: usize, occupancy: usize) -> usize {
    if occupancy <= 1 {
        return step % slots;
    }
    match hecate_ir::packed_shift(step, vec_size) {
        (0, 0) => 0,
        (0, back) => slots - back,
        (fwd, _) => fwd,
    }
}

/// How a rotation shares its operand's digit decomposition. A value with
/// two or more rotations of non-zero physical step forms one hoist group:
/// its first such rotation in op order (the leader) decomposes the operand
/// once, and every later one (a follower) reuses that decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoistRole {
    /// The only rotation of its operand: it decomposes for itself.
    Lone,
    /// The first rotation of a group: it pays the shared decomposition.
    Leader,
    /// A later rotation of a group, reusing the decomposition of the
    /// rotation at op index `leader`.
    Follower {
        /// The group leader's op index.
        leader: usize,
    },
}

/// One IR op as the backend runs it.
#[derive(Debug, Clone)]
pub struct LoweredOp {
    /// Backend cost categories the op lowers to (empty for free ops:
    /// inputs, constants, encodes and identity rotations).
    pub cost_ops: &'static [CostOp],
    /// The operand level the work executes at.
    pub operand_level: usize,
    /// Active RNS primes during the work (`chain_len − operand_level`).
    pub active_primes: usize,
    /// For a rotation: its physical slot step and its hoist role.
    pub rotation: Option<(usize, HoistRole)>,
}

impl LoweredOp {
    /// The `cost_op` span label: category names joined with `+` (e.g.
    /// `"mul_cp+rescale"` for a downscale), empty for free ops.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.cost_ops.iter().map(|c| c.name()).collect();
        names.join("+")
    }
}

/// A typed program lowered at one slot count and batching occupancy.
#[derive(Debug, Clone)]
pub struct Lowering {
    ops: Vec<LoweredOp>,
}

impl Lowering {
    /// Lowers `func` (typed by `types`) onto a chain of `chain_len`
    /// primes with `slots` slots shared by `occupancy` tenants. Each op
    /// runs at its *operand* level (the work happens before the level
    /// changes); a rotation of physical step 0 runs as a copy, with no
    /// cost op and no key.
    pub fn new(
        func: &Function,
        types: &[Type],
        chain_len: usize,
        slots: usize,
        occupancy: usize,
    ) -> Lowering {
        let step_of = |step: usize| physical_step(step, func.vec_size, slots, occupancy);
        let mut rotations = vec![0u32; func.len()];
        for op in func.ops() {
            match op {
                Op::Rotate { value, step } if step_of(*step) != 0 => rotations[value.index()] += 1,
                _ => {}
            }
        }
        let mut leaders: Vec<Option<usize>> = vec![None; func.len()];
        let ops = func
            .ops()
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let operands = op.operands();
                let operand_level = operands
                    .iter()
                    .filter_map(|v| types[v.index()].level())
                    .max()
                    .or_else(|| types[i].level())
                    .unwrap_or(0);
                let rotation = match op {
                    Op::Rotate { value, step } => {
                        let (s, v) = (step_of(*step), value.index());
                        Some(if s == 0 || rotations[v] < 2 {
                            (s, HoistRole::Lone)
                        } else if let Some(leader) = leaders[v] {
                            (s, HoistRole::Follower { leader })
                        } else {
                            leaders[v] = Some(i);
                            (s, HoistRole::Leader)
                        })
                    }
                    _ => None,
                };
                let any_plain = operands.iter().any(|v| types[v.index()].is_plain());
                LoweredOp {
                    cost_ops: categorize(op, any_plain, rotation),
                    operand_level,
                    active_primes: chain_len.saturating_sub(operand_level).max(1),
                    rotation,
                }
            })
            .collect();
        Lowering { ops }
    }

    /// One entry per IR op, in op order.
    pub fn ops(&self) -> &[LoweredOp] {
        &self.ops
    }

    /// What the evaluation keys must serve, sorted and deduplicated: the
    /// active primes of each ct×ct multiplication, and the `(physical
    /// step, active primes)` of each rotation that is not a copy.
    pub fn key_requirements(&self) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut relin = Vec::new();
        let mut rot = Vec::new();
        for op in &self.ops {
            if op.cost_ops.contains(&CostOp::MulCC) {
                relin.push(op.active_primes);
            }
            if let Some((s, _)) = op.rotation.filter(|&(s, _)| s != 0) {
                rot.push((s, op.active_primes));
            }
        }
        relin.sort_unstable();
        relin.dedup();
        rot.sort_unstable();
        rot.dedup();
        (relin, rot)
    }
}

/// Maps an IR operation to its cost categories, given whether any
/// operand is a plaintext and, for a rotation, its physical step and role.
///
/// `encode` and `const` are priced at zero, but they are not free: the
/// executor encodes every plaintext on every run (its `Op::Encode` arm),
/// untimed, so that time is in no op's measured time and no estimate.
/// `upscale` lowers to a plaintext multiplication; `downscale` lowers to a
/// plaintext multiplication plus a rescale.
fn categorize(op: &Op, any_plain: bool, rotation: Option<(usize, HoistRole)>) -> &'static [CostOp] {
    match op {
        Op::Input { .. } | Op::Const { .. } | Op::Encode { .. } => &[],
        Op::Add(..) | Op::Sub(..) if any_plain => &[CostOp::AddCP],
        Op::Add(..) | Op::Sub(..) => &[CostOp::AddCC],
        Op::Mul(..) if any_plain => &[CostOp::MulCP],
        Op::Mul(..) => &[CostOp::MulCC],
        Op::Negate(..) => &[CostOp::Negate],
        Op::Rotate { .. } => match rotation {
            Some((0, _)) => &[],
            Some((_, HoistRole::Follower { .. })) => &[CostOp::RotateHoisted],
            _ => &[CostOp::Rotate],
        },
        Op::Rescale(..) => &[CostOp::Rescale],
        Op::ModSwitch(..) => &[CostOp::ModSwitch],
        Op::Upscale { .. } => &[CostOp::MulCP],
        Op::Downscale(..) => &[CostOp::MulCP, CostOp::Rescale],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{analytic_cost_us, estimate_latency_us, CostModel};
    use hecate_ir::types::{infer_types, TypeConfig};
    use hecate_ir::FunctionBuilder;

    fn lower(f: &Function, slots: usize) -> Lowering {
        let tys = infer_types(f, &TypeConfig::new(20.0, 60.0)).unwrap();
        Lowering::new(f, &tys, 3, slots, 1)
    }

    #[test]
    fn rotation_fanout_labels_leader_and_followers() {
        // Three distinct rotations of one value: leader Rotate, two hoisted.
        let mut b = FunctionBuilder::new("fan", 8);
        let x = b.input_cipher("x");
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 2);
        let r3 = b.rotate(x, 3);
        let a = b.add(r1, r2);
        let a2 = b.add(a, r3);
        b.output(a2);
        let f = b.finish();
        let low = lower(&f, 512);
        let rotates: Vec<&LoweredOp> = low.ops().iter().filter(|o| o.rotation.is_some()).collect();
        assert_eq!(rotates.len(), 3);
        assert_eq!(rotates[0].cost_ops, [CostOp::Rotate]);
        assert_eq!(rotates[1].cost_ops, [CostOp::RotateHoisted]);
        assert_eq!(rotates[2].cost_ops, [CostOp::RotateHoisted]);
        let follower = HoistRole::Follower { leader: r1.index() };
        assert_eq!(low.ops()[r1.index()].rotation, Some((1, HoistRole::Leader)));
        assert_eq!(low.ops()[r2.index()].rotation, Some((2, follower)));
        assert_eq!(low.ops()[r3.index()].rotation, Some((3, follower)));

        // A lone rotation stays a plain Rotate.
        let mut b = FunctionBuilder::new("lone", 8);
        let x = b.input_cipher("x");
        let r = b.rotate(x, 1);
        b.output(r);
        let f = b.finish();
        let low = lower(&f, 512);
        let rot = &low.ops()[r.index()];
        assert_eq!(rot.cost_ops, [CostOp::Rotate]);
        assert_eq!(rot.rotation, Some((1, HoistRole::Lone)));
    }

    #[test]
    fn lowering_matches_breakdown() {
        let mut b = FunctionBuilder::new("oi", 4);
        let x = b.input_cipher("x");
        let m = b.mul(x, x);
        let r = b.rotate(m, 1);
        b.output(r);
        let f = b.finish();
        let low = lower(&f, 512);
        assert_eq!(low.ops().len(), f.len());
        let manual: f64 = low
            .ops()
            .iter()
            .flat_map(|o| o.cost_ops.iter().map(|&c| (c, o.active_primes)))
            .map(|(c, a)| analytic_cost_us(c, a, 1024))
            .sum();
        let tys = infer_types(&f, &TypeConfig::new(20.0, 60.0)).unwrap();
        let est = estimate_latency_us(&f, &tys, &CostModel::Analytic, 3, 1024);
        assert!((manual - est).abs() < 1e-9);
        // Inputs are free; the mul span label is the category name.
        assert!(low.ops()[x.index()].cost_ops.is_empty());
        assert_eq!(low.ops()[x.index()].label(), "");
        assert_eq!(low.ops()[m.index()].label(), "mul_cc");
    }
}
