//! Scale-management code generation.
//!
//! One generator serves the paper's two code-generation policies:
//!
//! - **Waterline rescaling** (EVA, §II-B): *reactive* — after each
//!   multiplication, rescale the result while the rescaled scale stays
//!   above the waterline; match levels with `modswitch` and add-scales with
//!   `upscale`.
//! - **Proactive rescaling** (PARS, §VI-B, Algorithm 2): operate on the
//!   *operands* of each operation — (a) encode free operands, (b) rescale
//!   while possible, (c) match levels with `modswitch`/`downscale`,
//!   (d) match add-scales with `upscale`, (e) downscale both operands of an
//!   oversized multiplication.
//!
//! On top of either policy, a scale-management *plan* (from SMSE, §VI-A)
//! assigns each edge of a unit analysis an optimization degree: that many
//! extra scale-management operations are applied to values crossing it,
//! each chosen by the scale rule (rescale if the waterline allows,
//! otherwise downscale if there is scale to shed, otherwise modswitch).
//!
//! All emissions are type-checked incrementally (the early-modswitch
//! rebuild is typed once, by the caller's verifier); every helper is
//! memoized per value so parallel uses share the inserted operations.

use crate::options::CompileError;
use crate::smu::SmuAnalysis;
use hecate_ir::types::{infer_op, Type, TypeConfig};
use hecate_ir::{Function, Op, ValueId};
use std::collections::HashMap;

/// A plan reference: an optimization degree per edge of a unit analysis.
/// An edge-less analysis is the pure policy.
#[derive(Clone, Copy)]
pub struct PlanRef<'a> {
    /// The unit analysis.
    pub smu: &'a SmuAnalysis,
    /// Degree per edge (indexed like `smu.edges`).
    pub degrees: &'a [u32],
}

impl PlanRef<'_> {
    fn degree(&self, def: ValueId, smu_result_unit: Option<u32>) -> u32 {
        match (self.smu.unit_of.get(def.index()), smu_result_unit) {
            (Some(&Some(from)), Some(to)) if from != to => {
                self.smu.edge_index(from, to).map_or(0, |e| self.degrees[e])
            }
            _ => 0,
        }
    }
}

/// Generation settings for one codegen run.
pub struct GenOptions<'a> {
    /// Waterline / rescale-factor environment.
    pub cfg: TypeConfig,
    /// `true` for PARS, `false` for EVA's waterline rescaling.
    pub proactive: bool,
    /// The scale-management plan to apply.
    pub plan: PlanRef<'a>,
    /// Apply the early-modswitch motion after generation.
    pub early_modswitch: bool,
}

/// Memo key: the operand, plus the whole-bit scale of an upscale/encode.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MemoKey {
    Rescale(ValueId),
    ModSwitch(ValueId),
    Downscale(ValueId),
    Upscale(ValueId, u32),
    Encode(ValueId, u32, usize),
}

/// Incremental, type-checked function emission.
struct Emitter {
    out: Function,
    types: Vec<Type>,
    cfg: TypeConfig,
    memo: HashMap<MemoKey, ValueId>,
}

impl Emitter {
    fn new(name: &str, vec_size: usize, cfg: TypeConfig) -> Self {
        Emitter {
            out: Function::new(name, vec_size),
            types: Vec::new(),
            cfg,
            memo: HashMap::new(),
        }
    }

    fn emit(&mut self, op: Op) -> Result<ValueId, CompileError> {
        let at = ValueId(self.out.len() as u32);
        let ty = infer_op(&op, &self.types, &self.cfg, at)?;
        self.types.push(ty);
        Ok(self.out.push(op))
    }

    fn ty(&self, v: ValueId) -> Type {
        self.types[v.index()]
    }

    // INVARIANT: `scale`/`level` are only called on values the caller has
    // already established as non-free (`is_free` is checked first, or the
    // value came out of `encode`/a scale-management op, which always yield
    // scaled types). A panic here is an emitter bug, not bad user input —
    // malformed input is rejected by `verify_structure`/`infer_op` instead.
    fn scale(&self, v: ValueId) -> f64 {
        self.ty(v).scale().expect("scaled value")
    }

    fn level(&self, v: ValueId) -> usize {
        self.ty(v).level().expect("scaled value")
    }

    fn is_free(&self, v: ValueId) -> bool {
        matches!(self.ty(v), Type::Free)
    }

    /// Canonical input has no operation of constants only: those fold
    /// before scale management.
    fn check_canonical(&self, op: &Op, operands: &[ValueId]) -> Result<(), CompileError> {
        if operands.iter().all(|&v| self.is_free(v)) {
            return Err(CompileError::UnsupportedInput {
                reason: format!("{} of constants only: canonicalize first", op.mnemonic()),
            });
        }
        Ok(())
    }

    fn memoized(&mut self, key: MemoKey, op: Op) -> Result<ValueId, CompileError> {
        if let Some(&v) = self.memo.get(&key) {
            return Ok(v);
        }
        let v = self.emit(op)?;
        self.memo.insert(key, v);
        Ok(v)
    }

    fn rescale(&mut self, v: ValueId) -> Result<ValueId, CompileError> {
        self.memoized(MemoKey::Rescale(v), Op::Rescale(v))
    }

    fn modswitch(&mut self, v: ValueId) -> Result<ValueId, CompileError> {
        self.memoized(MemoKey::ModSwitch(v), Op::ModSwitch(v))
    }

    fn downscale(&mut self, v: ValueId) -> Result<ValueId, CompileError> {
        self.memoized(MemoKey::Downscale(v), Op::Downscale(v))
    }

    fn upscale(&mut self, v: ValueId, target_bits: f64) -> Result<ValueId, CompileError> {
        let key = MemoKey::Upscale(v, target_bits as u32);
        self.memoized(
            key,
            Op::Upscale {
                value: v,
                target_bits,
            },
        )
    }

    fn encode(
        &mut self,
        free: ValueId,
        scale_bits: f64,
        level: usize,
    ) -> Result<ValueId, CompileError> {
        let key = MemoKey::Encode(free, scale_bits as u32, level);
        self.memoized(
            key,
            Op::Encode {
                value: free,
                scale_bits,
                level,
            },
        )
    }

    /// `rescale` is applicable: the result would stay at or above the
    /// waterline.
    fn can_rescale(&self, v: ValueId) -> bool {
        self.scale(v) - self.cfg.sf_bits >= self.cfg.waterline
    }

    /// Exhaustively rescale (the "while possible" loops of both policies).
    fn rescale_fully(&mut self, mut v: ValueId) -> Result<ValueId, CompileError> {
        while self.can_rescale(v) {
            v = self.rescale(v)?;
        }
        Ok(v)
    }

    /// One scale-management step on a cipher, chosen by the scale rule: a
    /// plan step, and PARS level matching (modswitch at the waterline,
    /// downscale above it).
    fn plan_step(&mut self, v: ValueId) -> Result<ValueId, CompileError> {
        if self.can_rescale(v) {
            self.rescale(v)
        } else if self.scale(v) > self.cfg.waterline {
            self.downscale(v)
        } else {
            self.modswitch(v)
        }
    }
}

/// Runs scale-management code generation over a canonical input program
/// ([`hecate_ir::transform::canonicalize`]: no operation of constants
/// only) and returns the lowered function, dead code removed. Its types
/// come from the caller's verifier.
///
/// # Errors
/// Returns a [`CompileError`] if the input is malformed or not canonical,
/// or a transformation would violate the type system (a planner bug, or an
/// infeasible plan that the explorer must discard).
pub fn generate(func: &Function, g: &GenOptions) -> Result<Function, CompileError> {
    func.verify_structure()?;
    let mut em = Emitter::new(&func.name, func.vec_size, g.cfg);
    let mut map: Vec<Option<ValueId>> = vec![None; func.len()];

    for (i, op) in func.ops().iter().enumerate() {
        // The unit of this op's result, for SMU plan lookups.
        let result_unit = g.plan.smu.unit_of.get(i).copied().flatten();
        // Resolve an operand: map to the new function, then apply the
        // plan's optimization degree for this edge.
        let resolve = |em: &mut Emitter, v: ValueId| -> Result<ValueId, CompileError> {
            // UNREACHABLE expect: `verify_structure` (top of `generate`)
            // rejects forward/dangling references, so by the time op `i`
            // is visited every operand slot below `i` has been filled.
            let mut cur = map[v.index()].expect("operand defined earlier");
            if !em.is_free(cur) && em.ty(cur).is_cipher() {
                let d = g.plan.degree(v, result_unit);
                for _ in 0..d {
                    cur = em.plan_step(cur)?;
                }
            }
            Ok(cur)
        };

        let new_id = match op {
            Op::Input { name } => em.emit(Op::Input { name: name.clone() })?,
            Op::Const { data } => em.emit(Op::Const { data: data.clone() })?,
            Op::Encode { .. }
            | Op::Rescale(_)
            | Op::ModSwitch(_)
            | Op::Upscale { .. }
            | Op::Downscale(_) => {
                return Err(CompileError::UnsupportedInput {
                    reason: format!(
                        "input programs must not contain scale management ({})",
                        op.mnemonic()
                    ),
                })
            }
            Op::Negate(a) => {
                let a = resolve(&mut em, *a)?;
                em.check_canonical(op, &[a])?;
                em.emit(Op::Negate(a))?
            }
            Op::Rotate { value, step } => {
                let value = resolve(&mut em, *value)?;
                em.check_canonical(op, &[value])?;
                em.emit(Op::Rotate { value, step: *step })?
            }
            Op::Add(a0, b0) | Op::Sub(a0, b0) | Op::Mul(a0, b0) => {
                let a = resolve(&mut em, *a0)?;
                let b = resolve(&mut em, *b0)?;
                em.check_canonical(op, &[a, b])?;
                let is_mul = matches!(op, Op::Mul(..));
                let (a, b) = prepare_binary(&mut em, a, b, is_mul, g.proactive)?;
                let result = match op {
                    Op::Add(..) => em.emit(Op::Add(a, b))?,
                    Op::Sub(..) => em.emit(Op::Sub(a, b))?,
                    Op::Mul(..) => em.emit(Op::Mul(a, b))?,
                    // UNREACHABLE: the enclosing arm matched Add|Sub|Mul.
                    _ => unreachable!(),
                };
                // EVA's reactive waterline rescaling on mul results.
                if !g.proactive && is_mul {
                    em.rescale_fully(result)?
                } else {
                    result
                }
            }
        };
        map[i] = Some(new_id);
    }

    // Reduce the cumulative scale of outputs (both policies): every dropped
    // prime shortens the modulus chain for free.
    for (name, v) in func.outputs() {
        // UNREACHABLE expect: `verify_structure` rejects dangling outputs,
        // and the loop above filled every `map` slot.
        let mut out_v = map[v.index()].expect("output defined");
        if em.ty(out_v).is_cipher() {
            out_v = em.rescale_fully(out_v)?;
        }
        em.out.mark_output(name.clone(), out_v);
    }

    let out = if g.early_modswitch {
        early_modswitch(em.out)
    } else {
        em.out
    };
    // Neither emission nor the motion leaves dead code on canonical input,
    // so the function is copied again only if some value is dead.
    if hecate_ir::analysis::live_values(&out).contains(&false) {
        return Ok(hecate_ir::analysis::eliminate_dead_code(&out).0);
    }
    Ok(out)
}

/// Applies the policy's operand preparation for a binary operation and
/// returns the final operands.
fn prepare_binary(
    em: &mut Emitter,
    mut a: ValueId,
    mut b: ValueId,
    is_mul: bool,
    proactive: bool,
) -> Result<(ValueId, ValueId), CompileError> {
    let cfg = em.cfg;
    // (b) rescale analysis (PARS only — EVA rescales reactively).
    if proactive {
        if !em.is_free(a) && em.ty(a).is_cipher() {
            a = em.rescale_fully(a)?;
        }
        if !em.is_free(b) && em.ty(b).is_cipher() {
            b = em.rescale_fully(b)?;
        }
    }
    // (a) encode: free operands become plaintexts at the cipher operand's
    // level; for add/sub at the cipher's scale, for mul at the waterline.
    if em.is_free(a) || em.is_free(b) {
        let (free, cipher) = if em.is_free(a) { (a, b) } else { (b, a) };
        let scale = if is_mul {
            cfg.waterline
        } else {
            em.scale(cipher)
        };
        let encoded = em.encode(free, scale, em.level(cipher))?;
        let (na, nb) = if em.is_free(a) {
            (encoded, b)
        } else {
            (a, encoded)
        };
        return Ok((na, nb));
    }
    // Plain operands (from earlier encodes) match levels and scales like
    // ciphers, via modswitch/upscale, which the type system permits on
    // scaled types; the backend drops a limb or multiplies by an integer.
    // (c) level match.
    while em.level(a) != em.level(b) {
        let (lo_is_a, lo) = if em.level(a) < em.level(b) {
            (true, a)
        } else {
            (false, b)
        };
        // A plaintext's level is free at encode time; modswitch models it.
        let raised = if proactive && em.ty(lo).is_cipher() {
            em.plan_step(lo)?
        } else {
            em.modswitch(lo)?
        };
        if lo_is_a {
            a = raised;
        } else {
            b = raised;
        }
    }
    // (d) scale match for add/sub.
    if !is_mul {
        let (sa, sb) = (em.scale(a), em.scale(b));
        if sa != sb {
            if sa < sb {
                a = em.upscale(a, sb)?;
            } else {
                b = em.upscale(b, sa)?;
            }
        }
    }
    // (e) downscale analysis for multiplications (PARS only).
    if proactive && is_mul && em.ty(a).is_cipher() && em.ty(b).is_cipher() {
        let (sa, sb) = (em.scale(a), em.scale(b));
        let both_reducible = sa > cfg.waterline && sb > cfg.waterline;
        if both_reducible && sa + sb > 2.0 * cfg.sf_bits {
            a = em.downscale(a)?;
            b = em.downscale(b)?;
        }
    }
    Ok((a, b))
}

/// EVA's early-modswitch motion: `modswitch(op(x, y))`, with `op` an add,
/// sub, mul, negate or rotate that is no output and has no other user,
/// becomes `op(modswitch(x), modswitch(y))`, so `op` runs at the higher
/// (cheaper) level. One rebuild reaches the fixpoint: a reverse pass counts
/// the modswitches pushed onto each op by its one user (`up`), then each
/// absorbed modswitch maps to its operand and each moving op is re-emitted
/// in place, after `up` fresh modswitches on each operand that stays.
fn early_modswitch(func: Function) -> Function {
    let ops = func.ops();
    if !ops.iter().any(|op| matches!(op, Op::ModSwitch(_))) {
        return func;
    }
    // `takes[v]`: v has one user (repeated slots count once), is no output,
    // and is a movable op or a modswitch chain ending on one.
    let users = hecate_ir::analysis::users(&func);
    let mut takes: Vec<bool> = (users.iter())
        .map(|u| u.first().is_some_and(|f| u.iter().all(|x| x == f)))
        .collect();
    for (_, v) in func.outputs() {
        takes[v.index()] = false;
    }
    for (i, op) in ops.iter().enumerate() {
        takes[i] &= match op {
            Op::ModSwitch(v) => takes[v.index()],
            Op::Add(..) | Op::Sub(..) | Op::Mul(..) | Op::Negate(_) | Op::Rotate { .. } => true,
            _ => false,
        };
    }
    // A modswitch pushes `1 + up` onto its operand, a moving op its `up`.
    let mut up = vec![0u32; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        let push = up[i] + u32::from(matches!(op, Op::ModSwitch(_)));
        if push > 0 {
            for v in op.operands() {
                if takes[v.index()] {
                    up[v.index()] = push;
                }
            }
        }
    }
    if up.iter().all(|&u| u == 0) {
        return func;
    }
    let mut out = Function::new(func.name.clone(), func.vec_size);
    let mut map: Vec<Option<ValueId>> = vec![None; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        map[i] = match op {
            Op::ModSwitch(v) if takes[v.index()] => map[v.index()],
            _ => {
                // A moving op lifts the operands that stay behind, through
                // `map` for this op only.
                let mut stay = if up[i] > 0 { op.operands() } else { Vec::new() };
                stay.retain(|v| !takes[v.index()]);
                stay.dedup();
                let saved: Vec<_> = stay.iter().map(|v| map[v.index()]).collect();
                for v in &stay {
                    for _ in 0..up[i] {
                        let lifted = out.push(Op::ModSwitch(map[v.index()].expect("mapped")));
                        map[v.index()] = Some(lifted);
                    }
                }
                let id = out.push(hecate_ir::analysis::remap_op(op, &map));
                for (v, s) in stay.iter().zip(saved) {
                    map[v.index()] = s;
                }
                Some(id)
            }
        };
    }
    for (name, v) in func.outputs() {
        out.mark_output(name.clone(), map[v.index()].expect("output mapped"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::transform::canonicalize;
    use hecate_ir::types::infer_types;
    use hecate_ir::FunctionBuilder;

    fn motivating() -> Function {
        let mut b = FunctionBuilder::new("motivating", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let z = b.add(x2, y2);
        let z2 = b.mul(z, z);
        let z3 = b.mul(z2, z);
        b.output(z3);
        b.finish()
    }

    /// Canonicalizes like the pipeline, lowers, and types the result.
    fn gen(func: &Function, proactive: bool, w: f64) -> (Function, Vec<Type>) {
        let cfg = TypeConfig::new(w, 60.0);
        let g = GenOptions {
            cfg,
            proactive,
            plan: PlanRef {
                smu: &SmuAnalysis::default(),
                degrees: &[],
            },
            early_modswitch: true,
        };
        let out = generate(&canonicalize(func), &g).unwrap();
        let types = infer_types(&out, &cfg).unwrap();
        (out, types)
    }

    fn count(f: &Function, name: &str) -> usize {
        f.ops().iter().filter(|o| o.mnemonic() == name).count()
    }

    fn max_scale(types: &[Type]) -> f64 {
        types.iter().filter_map(|t| t.scale()).fold(0.0, f64::max)
    }

    #[test]
    fn eva_reproduces_fig2a_structure() {
        // Waterline 20, Sf 60: z² (2^80) rescales to 2^20 level 1; z (2^40)
        // is modswitched to level 1 for z³ = 2^60 at level 1.
        let (out, types) = gen(&motivating(), false, 20.0);
        assert!(count(&out, "rescale") >= 1);
        assert!(count(&out, "modswitch") >= 1);
        assert_eq!(count(&out, "downscale"), 0, "EVA never downscales");
        // z³ before output rescaling reaches 2^80 (z²·z = 20+40 = 60, then
        // output rescale requires ≥ 80): the peak scale is 80.
        assert!(
            (max_scale(&types) - 80.0).abs() < 1.0,
            "peak {}",
            max_scale(&types)
        );
    }

    #[test]
    fn pars_reproduces_fig2b_structure() {
        // PARS downscales z to 2^20 before the level-matched multiply,
        // giving z³ = 2^40 instead of EVA's 2^60.
        let (out, types) = gen(&motivating(), true, 20.0);
        assert!(count(&out, "downscale") >= 1, "PARS should downscale");
        let (_, eva_types) = gen(&motivating(), false, 20.0);
        assert!(
            max_scale(&types) <= max_scale(&eva_types),
            "PARS cumulative scale {} must not exceed EVA's {}",
            max_scale(&types),
            max_scale(&eva_types)
        );
    }

    #[test]
    fn wrapped_and_duplicate_rotations_are_cse_d() {
        let mut b = FunctionBuilder::new("rot", 8);
        let x = b.input_cipher("x");
        let r1 = b.rotate(x, 3);
        let r2 = b.rotate(x, 3 + 8); // ≡ 3 (mod 8): same value as r1
        let r3 = b.rotate(x, 3); // literal duplicate
        let r4 = b.rotate(x, 8); // full width: identity
        let s1 = b.add(r1, r2);
        let s2 = b.add(r3, r4);
        let s = b.mul(s1, s2);
        b.output(s);
        let (out, _) = gen(&b.finish(), false, 20.0);
        assert_eq!(count(&out, "rotate"), 1, "{out:?}");
        // The surviving rotation carries the canonical step.
        let step = out
            .ops()
            .iter()
            .find_map(|o| match o {
                Op::Rotate { step, .. } => Some(*step),
                _ => None,
            })
            .unwrap();
        assert_eq!(step, 3);
    }

    #[test]
    fn rotation_cse_preserves_semantics() {
        // Interpreter check: the CSE'd program computes the same function.
        let mut b = FunctionBuilder::new("sem", 4);
        let x = b.input_cipher("x");
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(x, 5); // ≡ 1 (mod 4)
        let m = b.mul(r1, r2);
        b.output(m);
        let func = b.finish();
        let (out, _) = gen(&func, false, 20.0);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert("x".to_string(), vec![1.0, 2.0, 3.0, 4.0]);
        let want = hecate_ir::interp::interpret(&func, &inputs).unwrap();
        let got = hecate_ir::interp::interpret(&out, &inputs).unwrap();
        for (name, w) in &want {
            for (a, b) in w.iter().zip(&got[name]) {
                assert!((a - b).abs() < 1e-12, "{name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn generated_code_always_type_checks() {
        for proactive in [false, true] {
            for w in [20.0, 25.0, 30.0, 40.0] {
                let (out, _) = gen(&motivating(), proactive, w);
                let cfg = TypeConfig::new(w, 60.0);
                infer_types(&out, &cfg).expect("compiled code type-checks");
            }
        }
    }

    #[test]
    fn plan_degrees_insert_extra_ops() {
        let func = motivating();
        let smu = crate::smu::analyze(&func, 20.0);
        let zero = vec![0u32; smu.edges.len()];
        let cfg = TypeConfig::new(20.0, 60.0);
        let base = generate(
            &func,
            &GenOptions {
                cfg,
                proactive: true,
                plan: PlanRef {
                    smu: &smu,
                    degrees: &zero,
                },
                early_modswitch: false,
            },
        )
        .unwrap();
        // Bump one edge and require the op mix to change.
        let mut changed_any = false;
        for e in 0..smu.edges.len() {
            let mut degrees = zero.clone();
            degrees[e] = 1;
            if let Ok(out) = generate(
                &func,
                &GenOptions {
                    cfg,
                    proactive: true,
                    plan: PlanRef {
                        smu: &smu,
                        degrees: &degrees,
                    },
                    early_modswitch: false,
                },
            ) {
                infer_types(&out, &cfg).expect("plan output type-checks");
                if out != base {
                    changed_any = true;
                }
            }
        }
        assert!(changed_any, "some edge degree must change the program");
    }

    #[test]
    fn constants_fold_and_encode() {
        let mut b = FunctionBuilder::new("c", 4);
        let x = b.input_cipher("x");
        let c1 = b.splat(2.0);
        let c2 = b.splat(3.0);
        let c3 = b.add(c1, c2); // folds to 5
        let m = b.mul(x, c3);
        b.output(m);
        let f = b.finish();
        let (out, types) = gen(&f, true, 20.0);
        // One encode, no free values reaching the multiply.
        assert_eq!(count(&out, "encode"), 1);
        let ok = out
            .ops()
            .iter()
            .any(|o| matches!(o, Op::Const { data } if (data.at(0) - 5.0).abs() < 1e-12));
        assert!(ok, "folded constant present");
        infer_types(&out, &TypeConfig::new(20.0, 60.0)).unwrap();
        assert!(types.iter().any(|t| t.is_plain()));
    }

    #[test]
    fn sub_and_negate_and_rotate_pass_through() {
        let mut b = FunctionBuilder::new("misc", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let d = b.sub(x, y);
        let n = b.neg(d);
        let r = b.rotate(n, 3);
        b.output(r);
        let f = b.finish();
        let (out, _) = gen(&f, true, 30.0);
        assert_eq!(count(&out, "sub"), 1);
        assert_eq!(count(&out, "negate"), 1);
        assert_eq!(count(&out, "rotate"), 1);
    }

    #[test]
    fn scale_management_in_input_rejected() {
        let g = GenOptions {
            cfg: TypeConfig::new(20.0, 60.0),
            proactive: true,
            plan: PlanRef {
                smu: &SmuAnalysis::default(),
                degrees: &[],
            },
            early_modswitch: false,
        };
        let mut f = Function::new("bad", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let r = f.push(Op::Rescale(x));
        f.mark_output("o", r);
        assert!(matches!(
            generate(&f, &g),
            Err(CompileError::UnsupportedInput { .. })
        ));
        // So is an op of constants only: canonical input has folded it.
        let mut b = FunctionBuilder::new("fold", 4);
        let x = b.input_cipher("x");
        let c = b.splat(2.0);
        let c = b.neg(c);
        let m = b.mul(x, c);
        b.output(m);
        assert!(matches!(
            generate(&b.finish(), &g),
            Err(CompileError::UnsupportedInput { reason }) if reason.contains("canonicalize first")
        ));
    }

    #[test]
    fn early_modswitch_hoists_through_single_use_ops() {
        // Build (x·y) then force a modswitch via level matching against a
        // deeper value; the modswitch should migrate above the multiply.
        let mut b = FunctionBuilder::new("em", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let xy = b.mul(x, y); // scale 40 — not rescalable at w=20/sf=60
        let x2 = b.square(x);
        let x4 = b.mul(x2, x2); // scale 80 → rescaled to 20, level 1
        let z = b.mul(xy, x4); // xy needs level 1
        b.output(z);
        let f = b.finish();
        let with = gen(&f, false, 20.0);
        // With hoisting the mul(x,y) happens at level 1 (after modswitch).
        let mul_levels: Vec<usize> = with
            .0
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Op::Mul(..)))
            .map(|(i, o)| {
                let v = o.operands()[0];
                let _ = i;
                with.1[v.index()].level().unwrap()
            })
            .collect();
        assert!(
            mul_levels.iter().any(|&l| l >= 1),
            "some multiply should run at a raised level: {mul_levels:?}"
        );
    }

    #[test]
    fn early_modswitch_reaches_its_fixpoint_past_sixteen_moves() {
        // Twenty chained negates of x meet y⁴ one level down: the level
        // matching modswitch climbs every negate onto x.
        let mut b = FunctionBuilder::new("negates", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let mut n = x;
        for _ in 0..20 {
            n = b.neg(n);
        }
        let y2 = b.square(y);
        let y4 = b.square(y2);
        let z = b.mul(n, y4);
        b.output(z);
        let mut opts = crate::CompileOptions::with_waterline(20.0);
        opts.degree = Some(4096);
        let prog = crate::compile(&b.finish(), crate::Scheme::Eva, &opts).unwrap();
        let levels: Vec<usize> = (prog.func.ops().iter().zip(&prog.types))
            .filter(|(op, _)| matches!(op, Op::Negate(_)))
            .map(|(_, t)| t.level().unwrap())
            .collect();
        assert_eq!(levels, [1; 20]);
    }

    #[test]
    fn outputs_are_rescaled_to_shrink_modulus() {
        let (out, types) = gen(&motivating(), false, 20.0);
        let (_, ov) = &out.outputs()[0];
        let t = types[ov.index()];
        // 80-bit z³ gets one output rescale down to 20.
        assert!(t.scale().unwrap() < 80.0 - 1.0);
    }
}
