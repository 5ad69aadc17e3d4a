//! The plan verifier: per-pass checking of the paper's type-system
//! invariants.
//!
//! [`types::infer_types`](crate::types::infer_types) rejects ill-typed IR,
//! but a panic-free compiler needs more: after *every* transformation the
//! pipeline re-checks the full invariant set and reports a structured
//! [`VerifyError`] naming the offending operation, the pass that produced
//! it, and the violated [`Invariant`] — so a buggy pass (or an injected
//! fault) surfaces as a diagnosable error instead of a panic or a garbled
//! decryption.
//!
//! The invariants, from the paper's scaled type system (§IV-B):
//!
//! - **Structure** — SSA well-formedness (operands defined before use,
//!   outputs in range, ≥ 1 output);
//! - **Typing** — the inference rules Eq. 1–6 hold at every operation,
//!   and the config and every scale are whole numbers of bits;
//! - **Waterline** — every ciphertext scale stays at or above `S_w` (C2);
//! - **ModulusBudget** — scale plus `level·S_f` fits the modulus budget at
//!   every program point, and no level exceeds the chain's last (C1);
//! - **LevelMonotonicity** — levels never decrease along def-use edges
//!   (RNS prefixes only shrink);
//! - **RescaleLegality** — each `rescale` sheds exactly `S_f` bits and
//!   lands at or above the waterline; each `downscale` is used only where
//!   `rescale` is inapplicable (Eq. 6);
//! - **OutputKind** — at least one program output is a scaled (non-free)
//!   value; a program whose every output is free computes nothing under
//!   encryption (individual free outputs are folded constants, which the
//!   backend passes through).
//!
//! Two entry points: [`verify_input`] for source programs (structural
//! checks only — source programs carry no scale management and therefore
//! no scale types), and [`verify_plan`] for scale-managed programs.

use crate::ir::{Function, Op, StructureError, ValueId};
use crate::types::{infer_types, Type, TypeConfig, TypeError};

/// The invariant classes the verifier enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// SSA well-formedness.
    Structure,
    /// The typing rules Eq. 1–6, and whole-bit scales.
    Typing,
    /// C2: ciphertext scales never fall below the waterline.
    Waterline,
    /// C1: scales fit the modulus available at their level.
    ModulusBudget,
    /// Levels never decrease along def-use edges.
    LevelMonotonicity,
    /// Rescale/downscale side conditions (Eq. 3, Eq. 6).
    RescaleLegality,
    /// At least one output must be a scaled value.
    OutputKind,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Invariant::Structure => "structure",
            Invariant::Typing => "typing",
            Invariant::Waterline => "waterline (C2)",
            Invariant::ModulusBudget => "modulus budget (C1)",
            Invariant::LevelMonotonicity => "level monotonicity",
            Invariant::RescaleLegality => "rescale legality",
            Invariant::OutputKind => "output kind",
        };
        f.write_str(s)
    }
}

/// A structured verification failure: which pass produced the program,
/// which operation violates which invariant, and a human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// The pass whose output failed verification.
    pub pass: String,
    /// The offending operation, if attributable to one.
    pub at: Option<ValueId>,
    /// The offending operation's mnemonic, if attributable.
    pub op: Option<&'static str>,
    /// The violated invariant.
    pub invariant: Invariant,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl VerifyError {
    fn new(
        pass: &str,
        at: Option<ValueId>,
        op: Option<&'static str>,
        invariant: Invariant,
        detail: impl Into<String>,
    ) -> Self {
        VerifyError {
            pass: pass.to_string(),
            at,
            op,
            invariant,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pass '{}' violated {}", self.pass, self.invariant)?;
        if let Some(at) = self.at {
            write!(f, " at {at}")?;
            if let Some(op) = self.op {
                write!(f, " ({op})")?;
            }
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for VerifyError {}

fn structure_error(pass: &str, e: StructureError) -> VerifyError {
    let at = match &e {
        StructureError::ForwardReference { at, .. }
        | StructureError::DanglingOperand { at, .. } => Some(*at),
        _ => None,
    };
    VerifyError::new(pass, at, None, Invariant::Structure, e.to_string())
}

fn type_error(pass: &str, func: &Function, e: TypeError) -> VerifyError {
    let at = match &e {
        TypeError::FreeOperand { at }
        | TypeError::LevelMismatch { at, .. }
        | TypeError::ScaleMismatch { at, .. }
        | TypeError::BelowWaterline { at, .. }
        | TypeError::ScaleOverflow { at, .. }
        | TypeError::LevelOverflow { at, .. }
        | TypeError::BadOperandKind { at, .. }
        | TypeError::UpscaleBelowCurrent { at, .. } => Some(*at),
        TypeError::FractionalScale { at, .. } => *at,
    };
    // Classify the typing failure into the closest invariant class so the
    // report names what the pass actually broke.
    let invariant = match &e {
        TypeError::BelowWaterline { .. } => Invariant::Waterline,
        TypeError::ScaleOverflow { .. } | TypeError::LevelOverflow { .. } => {
            Invariant::ModulusBudget
        }
        TypeError::BadOperandKind { rule, .. }
            if rule.contains("Eq. 3") || rule.contains("Eq. 6") =>
        {
            Invariant::RescaleLegality
        }
        _ => Invariant::Typing,
    };
    let op = at
        .and_then(|at| func.ops().get(at.index()))
        .map(|o| o.mnemonic());
    VerifyError::new(pass, at, op, invariant, e.to_string())
}

/// Verifies a *source* program (before scale management): SSA structure
/// and the absence of compiler-inserted scale-management operations.
///
/// # Errors
/// Returns the first [`VerifyError`] found.
pub fn verify_input(func: &Function, pass: &str) -> Result<(), VerifyError> {
    func.verify_structure()
        .map_err(|e| structure_error(pass, e))?;
    for (i, op) in func.ops().iter().enumerate() {
        if op.is_scale_management() {
            return Err(VerifyError::new(
                pass,
                Some(ValueId(i as u32)),
                Some(op.mnemonic()),
                Invariant::Structure,
                "source programs must not contain scale-management operations",
            ));
        }
    }
    Ok(())
}

/// Verifies a scale-managed program against the full invariant set and
/// returns the inferred types on success.
///
/// Runs after every compiler pass; `pass` names the producer for the
/// error report. Type inference enforces the modulus budget (C1), the
/// chain's `max_level` and the rescale rule (Eq. 3) itself, and its
/// failures are classified by invariant; the loop here adds the checks
/// inference does not make.
///
/// # Errors
/// Returns the first [`VerifyError`] found, in definition order.
pub fn verify_plan(
    func: &Function,
    cfg: &TypeConfig,
    pass: &str,
) -> Result<Vec<Type>, VerifyError> {
    func.verify_structure()
        .map_err(|e| structure_error(pass, e))?;
    let types = infer_types(func, cfg).map_err(|e| type_error(pass, func, e))?;

    for (i, op) in func.ops().iter().enumerate() {
        let at = ValueId(i as u32);
        let ty = types[i];

        // Waterline (C2): no ciphertext below S_w. Inference checks the
        // rescale/downscale rules, but a buggy pass could still construct
        // e.g. an encode below the waterline feeding a multiply.
        if let Type::Cipher { scale, .. } = ty {
            if scale < cfg.waterline {
                return Err(VerifyError::new(
                    pass,
                    Some(at),
                    Some(op.mnemonic()),
                    Invariant::Waterline,
                    format!(
                        "cipher scale 2^{scale:.2} below waterline 2^{:.2}",
                        cfg.waterline
                    ),
                ));
            }
        }

        // Level monotonicity along def-use edges. `encode` mints a fresh
        // plaintext at an arbitrary level, so it is exempt.
        if !matches!(op, Op::Encode { .. }) {
            if let Some(result_level) = ty.level() {
                for v in op.operands() {
                    if let Some(op_level) = types[v.index()].level() {
                        if result_level < op_level {
                            return Err(VerifyError::new(
                                pass,
                                Some(at),
                                Some(op.mnemonic()),
                                Invariant::LevelMonotonicity,
                                format!(
                                    "result level {result_level} below operand {v} level {op_level}"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    let all_free = func
        .outputs()
        .iter()
        .all(|(_, v)| matches!(types[v.index()], Type::Free));
    if all_free {
        let (name, v) = &func.outputs()[0];
        return Err(VerifyError::new(
            pass,
            Some(*v),
            Some(func.op(*v).mnemonic()),
            Invariant::OutputKind,
            format!("every output (e.g. '{name}') is a free value; nothing is computed under encryption"),
        ));
    }

    Ok(types)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ConstData;

    fn cfg() -> TypeConfig {
        TypeConfig::new(20.0, 40.0)
    }

    #[test]
    fn wellformed_plan_passes_and_returns_types() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x)); // scale 40
        let m2 = f.push(Op::Mul(m, m)); // scale 80
        let r = f.push(Op::Rescale(m2)); // 40 at level 1
        f.mark_output("o", r);
        let types = verify_plan(&f, &cfg(), "test").unwrap();
        assert_eq!(
            types[3],
            Type::Cipher {
                scale: 40.0,
                level: 1
            }
        );
    }

    #[test]
    fn structure_violation_names_pass_and_invariant() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Negate(ValueId(7)));
        f.mark_output("o", x);
        let e = verify_plan(&f, &cfg(), "sabotaged-pass").unwrap_err();
        assert_eq!(e.invariant, Invariant::Structure);
        assert_eq!(e.pass, "sabotaged-pass");
    }

    #[test]
    fn waterline_violation_classified_as_c2() {
        // Rescaling scale 40 under S_f 40 lands at 0 < waterline 20.
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        let r = f.push(Op::Rescale(m));
        f.mark_output("o", r);
        let e = verify_plan(&f, &cfg(), "p").unwrap_err();
        assert_eq!(e.invariant, Invariant::Waterline);
        assert_eq!(e.at, Some(ValueId(2)));
        assert_eq!(e.op, Some("rescale"));
    }

    #[test]
    fn budget_violation_classified_as_c1() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        let m2 = f.push(Op::Mul(m, m)); // scale 80
        f.mark_output("o", m2);
        let mut c = cfg();
        c.modulus_bits = Some(70.0);
        let e = verify_plan(&f, &c, "p").unwrap_err();
        assert_eq!(e.invariant, Invariant::ModulusBudget);

        // One level past the chain's last is C1 too.
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::ModSwitch(x));
        let m2 = f.push(Op::ModSwitch(m)); // level 2
        f.mark_output("o", m2);
        let mut c = cfg();
        c.max_level = Some(1);
        let e = verify_plan(&f, &c, "p").unwrap_err();
        assert_eq!(e.invariant, Invariant::ModulusBudget);
        assert_eq!(e.at, Some(m2));
    }

    #[test]
    fn free_output_rejected() {
        let mut f = Function::new("t", 4);
        f.push(Op::Input { name: "x".into() });
        let c = f.push(Op::Const {
            data: ConstData::splat(1.0),
        });
        f.mark_output("o", c);
        let e = verify_plan(&f, &cfg(), "p").unwrap_err();
        assert_eq!(e.invariant, Invariant::OutputKind);
    }

    #[test]
    fn input_verifier_rejects_scale_management() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let r = f.push(Op::ModSwitch(x));
        f.mark_output("o", r);
        let e = verify_input(&f, "frontend").unwrap_err();
        assert_eq!(e.invariant, Invariant::Structure);
        assert!(e.detail.contains("scale-management"));
    }

    #[test]
    fn error_display_names_everything() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        let r = f.push(Op::Rescale(m));
        f.mark_output("o", r);
        let e = verify_plan(&f, &cfg(), "pars").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("pars") && msg.contains("%2"), "{msg}");
    }
}
