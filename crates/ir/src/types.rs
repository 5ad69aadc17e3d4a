//! The HECATE scale/level type system (paper §IV-B).
//!
//! Every value has a type: `free` (an unencoded constant), `plain(j, k)`
//! (encoded, scale `j`, level `k`), or `cipher(j, k)` (encrypted). Scales
//! are whole log2 bits, held exactly in an `f64`, so scale comparisons are
//! exact: the compiler rounds a request in `CompileOptions::type_config`,
//! and inference refuses a non-whole scale from outside (a plan file's
//! config, an `encode` scale, an `upscale` target) with
//! [`TypeError::FractionalScale`]. Type inference implements the typing
//! rules Eq. 1–6 and simultaneously checks the three RNS-CKKS constraints:
//!
//! - **C1** — the scale never exceeds the available coefficient modulus;
//! - **C2** — rescaling never pushes a scale below the waterline `S_w`;
//! - **C3** — binary-operation operands sit at the same level (and adds at
//!   the same scale).
//!
//! Inference is deterministic given the [`TypeConfig`], so the compiler
//! re-runs it after every transformation as a verifier.

use crate::ir::{Function, Op, ValueId};

/// The type of an IR value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Type {
    /// An unencoded message (constants before the encode step).
    Free,
    /// An encoded plaintext with scale (log2 bits) and level.
    Plain {
        /// Scale, log2 bits.
        scale: f64,
        /// Rescaling level.
        level: usize,
    },
    /// A ciphertext with scale (log2 bits) and level.
    Cipher {
        /// Scale, log2 bits.
        scale: f64,
        /// Rescaling level.
        level: usize,
    },
}

impl Type {
    /// The scale, if this is a scaled (plain/cipher) type.
    pub fn scale(&self) -> Option<f64> {
        match self {
            Type::Free => None,
            Type::Plain { scale, .. } | Type::Cipher { scale, .. } => Some(*scale),
        }
    }

    /// The level, if this is a scaled type.
    pub fn level(&self) -> Option<usize> {
        match self {
            Type::Free => None,
            Type::Plain { level, .. } | Type::Cipher { level, .. } => Some(*level),
        }
    }

    /// True for ciphertexts.
    pub fn is_cipher(&self) -> bool {
        matches!(self, Type::Cipher { .. })
    }

    /// True for plaintexts.
    pub fn is_plain(&self) -> bool {
        matches!(self, Type::Plain { .. })
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Free => write!(f, "free"),
            Type::Plain { scale, level } => write!(f, "plain({scale:.0},{level})"),
            Type::Cipher { scale, level } => write!(f, "cipher({scale:.0},{level})"),
        }
    }
}

/// The scale-management environment type inference runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeConfig {
    /// The waterline `S_w` (minimum scale), whole log2 bits.
    pub waterline: f64,
    /// The rescale factor `S_f`, whole log2 bits.
    pub sf_bits: f64,
    /// Maximum level the modulus chain supports, if already fixed.
    pub max_level: Option<usize>,
    /// Modulus budget for C1: available modulus bits at level 0 (the whole
    /// chain). At level `k` the budget shrinks by `k·sf_bits`.
    pub modulus_bits: Option<f64>,
}

impl TypeConfig {
    /// A config with the given waterline and rescale factor and no modulus
    /// budget (C1 deferred until parameter selection).
    pub fn new(waterline: f64, sf_bits: f64) -> Self {
        TypeConfig {
            waterline,
            sf_bits,
            max_level: None,
            modulus_bits: None,
        }
    }

    /// Modulus bits available at `level`, if a budget is set.
    pub fn budget_at(&self, level: usize) -> Option<f64> {
        self.modulus_bits.map(|m| m - level as f64 * self.sf_bits)
    }
}

/// Type errors — one per violated rule or constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// A binary operation saw a free operand (the encode step is missing).
    FreeOperand {
        /// The offending instruction.
        at: ValueId,
    },
    /// Operand levels differ (C3).
    LevelMismatch {
        /// The offending instruction.
        at: ValueId,
        /// Left level.
        lhs: usize,
        /// Right level.
        rhs: usize,
    },
    /// Add/sub operand scales differ (C3).
    ScaleMismatch {
        /// The offending instruction.
        at: ValueId,
        /// Left scale (bits).
        lhs: f64,
        /// Right scale (bits).
        rhs: f64,
    },
    /// Rescale would push the scale below the waterline (C2).
    BelowWaterline {
        /// The offending instruction.
        at: ValueId,
        /// Scale after the operation (bits).
        result_scale: f64,
    },
    /// Scale exceeds the modulus budget (C1).
    ScaleOverflow {
        /// The offending instruction.
        at: ValueId,
        /// Scale (bits).
        scale: f64,
        /// Budget at the value's level (bits).
        budget: f64,
    },
    /// Level exceeds the chain length.
    LevelOverflow {
        /// The offending instruction.
        at: ValueId,
        /// The level reached.
        level: usize,
        /// The maximum allowed.
        max: usize,
    },
    /// An operation required a cipher (or scaled) operand but got another
    /// kind — e.g. `rescale` on a plaintext (Eq. 3) or `downscale` where
    /// `rescale` was applicable (Eq. 6).
    BadOperandKind {
        /// The offending instruction.
        at: ValueId,
        /// Human-readable rule violated.
        rule: &'static str,
    },
    /// `upscale` with a target below the current scale (Eq. 5).
    UpscaleBelowCurrent {
        /// The offending instruction.
        at: ValueId,
        /// Current scale (bits).
        current: f64,
        /// Requested target (bits).
        target: f64,
    },
    /// A scale, or the config's waterline or `S_f` (`at: None`), that is
    /// not a whole number of bits.
    FractionalScale {
        /// The offending instruction, if any.
        at: Option<ValueId>,
        /// The scale (bits).
        bits: f64,
    },
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::FreeOperand { at } => {
                write!(f, "{at}: free operand in binary operation (missing encode)")
            }
            TypeError::LevelMismatch { at, lhs, rhs } => {
                write!(f, "{at}: operand levels {lhs} and {rhs} differ (C3)")
            }
            TypeError::ScaleMismatch { at, lhs, rhs } => {
                write!(
                    f,
                    "{at}: operand scales 2^{lhs:.2} and 2^{rhs:.2} differ (C3)"
                )
            }
            TypeError::BelowWaterline { at, result_scale } => {
                write!(f, "{at}: scale 2^{result_scale:.2} below waterline (C2)")
            }
            TypeError::ScaleOverflow { at, scale, budget } => {
                write!(
                    f,
                    "{at}: scale 2^{scale:.2} exceeds budget 2^{budget:.2} (C1)"
                )
            }
            TypeError::LevelOverflow { at, level, max } => {
                write!(f, "{at}: level {level} exceeds chain maximum {max}")
            }
            TypeError::BadOperandKind { at, rule } => write!(f, "{at}: {rule}"),
            TypeError::UpscaleBelowCurrent {
                at,
                current,
                target,
            } => {
                write!(
                    f,
                    "{at}: upscale target 2^{target:.2} below current 2^{current:.2}"
                )
            }
            TypeError::FractionalScale { at: Some(at), bits } => {
                write!(f, "{at}: scale 2^{bits} is not a whole number of bits")
            }
            TypeError::FractionalScale { at: None, bits } => {
                write!(f, "config scale 2^{bits} is not a whole number of bits")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Infers the type of every value and verifies C1–C3 (plus the per-rule
/// side conditions of Eq. 3–6).
///
/// # Errors
/// Returns the first [`TypeError`]: a non-whole config, else in definition
/// order.
pub fn infer_types(func: &Function, cfg: &TypeConfig) -> Result<Vec<Type>, TypeError> {
    for bits in [cfg.waterline, cfg.sf_bits] {
        if bits.fract() != 0.0 {
            return Err(TypeError::FractionalScale { at: None, bits });
        }
    }
    let mut types: Vec<Type> = Vec::with_capacity(func.len());
    for (i, op) in func.ops().iter().enumerate() {
        let at = ValueId(i as u32);
        let ty = infer_op(op, &types, cfg, at)?;
        types.push(ty);
    }
    Ok(types)
}

/// Infers the type of a single operation given the types of all earlier
/// values. This is the incremental form of [`infer_types`] used by the
/// compiler's code generators, which type-check as they emit.
///
/// # Errors
/// Returns a [`TypeError`] if the operation violates a typing rule.
pub fn infer_op(op: &Op, types: &[Type], cfg: &TypeConfig, at: ValueId) -> Result<Type, TypeError> {
    let ty = infer_one(op, types, cfg, at)?;
    // Whole-bit and C1 / level-bound checks for the produced value.
    if let (Some(scale), Some(level)) = (ty.scale(), ty.level()) {
        if scale.fract() != 0.0 {
            return Err(TypeError::FractionalScale {
                at: Some(at),
                bits: scale,
            });
        }
        if let Some(max) = cfg.max_level {
            if level > max {
                return Err(TypeError::LevelOverflow { at, level, max });
            }
        }
        if let Some(budget) = cfg.budget_at(level) {
            if scale > budget {
                return Err(TypeError::ScaleOverflow { at, scale, budget });
            }
        }
    }
    Ok(ty)
}

fn infer_one(op: &Op, types: &[Type], cfg: &TypeConfig, at: ValueId) -> Result<Type, TypeError> {
    let ty = |v: ValueId| types[v.index()];
    match op {
        Op::Input { .. } => Ok(Type::Cipher {
            scale: cfg.waterline,
            level: 0,
        }),
        Op::Const { .. } => Ok(Type::Free),
        Op::Encode {
            value,
            scale_bits,
            level,
        } => match ty(*value) {
            Type::Free => Ok(Type::Plain {
                scale: *scale_bits,
                level: *level,
            }),
            _ => Err(TypeError::BadOperandKind {
                at,
                rule: "encode requires a free operand",
            }),
        },
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
            let (ta, tb) = (ty(*a), ty(*b));
            let (sa, sb) = match (ta.scale(), tb.scale()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(TypeError::FreeOperand { at }),
            };
            let (la, lb) = (ta.level().unwrap(), tb.level().unwrap());
            if la != lb {
                return Err(TypeError::LevelMismatch {
                    at,
                    lhs: la,
                    rhs: lb,
                });
            }
            // `mul` adds scales; `add`/`sub` need equal ones (C3).
            let is_mul = matches!(op, Op::Mul(..));
            if !is_mul && sa != sb {
                return Err(TypeError::ScaleMismatch {
                    at,
                    lhs: sa,
                    rhs: sb,
                });
            }
            if !(ta.is_cipher() || tb.is_cipher()) {
                return Err(TypeError::BadOperandKind {
                    at,
                    rule: "binary operation needs at least one cipher operand",
                });
            }
            Ok(Type::Cipher {
                scale: if is_mul { sa + sb } else { sa },
                level: la,
            })
        }
        Op::Negate(v) => match ty(*v) {
            Type::Cipher { scale, level } => Ok(Type::Cipher { scale, level }),
            _ => Err(TypeError::BadOperandKind {
                at,
                rule: "negate requires a cipher operand",
            }),
        },
        Op::Rotate { value, .. } => match ty(*value) {
            Type::Cipher { scale, level } => Ok(Type::Cipher { scale, level }),
            _ => Err(TypeError::BadOperandKind {
                at,
                rule: "rotate requires a cipher operand",
            }),
        },
        Op::Rescale(v) => match ty(*v) {
            Type::Cipher { scale, level } => {
                let result = scale - cfg.sf_bits;
                if result < cfg.waterline {
                    return Err(TypeError::BelowWaterline {
                        at,
                        result_scale: result,
                    });
                }
                Ok(Type::Cipher {
                    scale: result,
                    level: level + 1,
                })
            }
            _ => Err(TypeError::BadOperandKind {
                at,
                rule: "rescale requires a cipher operand (Eq. 3)",
            }),
        },
        Op::ModSwitch(v) => match ty(*v) {
            Type::Cipher { scale, level } => Ok(Type::Cipher {
                scale,
                level: level + 1,
            }),
            Type::Plain { scale, level } => Ok(Type::Plain {
                scale,
                level: level + 1,
            }),
            Type::Free => Err(TypeError::BadOperandKind {
                at,
                rule: "modswitch requires a scaled operand (Eq. 4)",
            }),
        },
        Op::Upscale { value, target_bits } => {
            let t = ty(*value);
            let (scale, level) = match (t.scale(), t.level()) {
                (Some(s), Some(l)) => (s, l),
                _ => {
                    return Err(TypeError::BadOperandKind {
                        at,
                        rule: "upscale requires a scaled operand (Eq. 5)",
                    })
                }
            };
            if *target_bits < scale {
                return Err(TypeError::UpscaleBelowCurrent {
                    at,
                    current: scale,
                    target: *target_bits,
                });
            }
            match t {
                Type::Cipher { .. } => Ok(Type::Cipher {
                    scale: *target_bits,
                    level,
                }),
                _ => Ok(Type::Plain {
                    scale: *target_bits,
                    level,
                }),
            }
        }
        Op::Downscale(v) => match ty(*v) {
            Type::Cipher { scale, level } => {
                // Eq. 6: downscale only where rescale is not applicable and
                // there is actually scale to shed.
                if scale - cfg.sf_bits >= cfg.waterline {
                    return Err(TypeError::BadOperandKind {
                        at,
                        rule: "downscale where rescale applies (Eq. 6)",
                    });
                }
                if scale < cfg.waterline {
                    return Err(TypeError::BelowWaterline {
                        at,
                        result_scale: scale,
                    });
                }
                Ok(Type::Cipher {
                    scale: cfg.waterline,
                    level: level + 1,
                })
            }
            _ => Err(TypeError::BadOperandKind {
                at,
                rule: "downscale requires a cipher operand (Eq. 6)",
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ConstData, Function, Op};

    fn cfg() -> TypeConfig {
        TypeConfig::new(20.0, 40.0)
    }

    #[test]
    fn input_gets_waterline_cipher() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        f.mark_output("o", x);
        let tys = infer_types(&f, &cfg()).unwrap();
        assert_eq!(
            tys[0],
            Type::Cipher {
                scale: 20.0,
                level: 0
            }
        );
    }

    #[test]
    fn mul_adds_scales_add_keeps() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        let a = f.push(Op::Add(m, m));
        f.mark_output("o", a);
        let tys = infer_types(&f, &cfg()).unwrap();
        assert_eq!(
            tys[1],
            Type::Cipher {
                scale: 40.0,
                level: 0
            }
        );
        assert_eq!(
            tys[2],
            Type::Cipher {
                scale: 40.0,
                level: 0
            }
        );
    }

    #[test]
    fn rescale_semantics_and_waterline_guard() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x)); // scale 40
        let m2 = f.push(Op::Mul(m, m)); // scale 80
        let r = f.push(Op::Rescale(m2)); // 80-40=40 ≥ 20 OK
        f.mark_output("o", r);
        let tys = infer_types(&f, &cfg()).unwrap();
        assert_eq!(
            tys[3],
            Type::Cipher {
                scale: 40.0,
                level: 1
            }
        );

        // Rescaling the scale-40 value would give 0 < waterline.
        let mut g = Function::new("t", 4);
        let x = g.push(Op::Input { name: "x".into() });
        let m = g.push(Op::Mul(x, x));
        let r = g.push(Op::Rescale(m));
        g.mark_output("o", r);
        assert!(matches!(
            infer_types(&g, &cfg()),
            Err(TypeError::BelowWaterline { .. })
        ));
    }

    #[test]
    fn downscale_only_where_rescale_impossible() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x)); // scale 40 < Sw+Sf = 60
        let d = f.push(Op::Downscale(m));
        f.mark_output("o", d);
        let tys = infer_types(&f, &cfg()).unwrap();
        assert_eq!(
            tys[2],
            Type::Cipher {
                scale: 20.0,
                level: 1
            }
        );

        // scale 80 ≥ 60 means rescale applies — downscale is rejected.
        let mut g = Function::new("t", 4);
        let x = g.push(Op::Input { name: "x".into() });
        let m = g.push(Op::Mul(x, x));
        let m2 = g.push(Op::Mul(m, m));
        let d = g.push(Op::Downscale(m2));
        g.mark_output("o", d);
        assert!(matches!(
            infer_types(&g, &cfg()),
            Err(TypeError::BadOperandKind { .. })
        ));
    }

    #[test]
    fn level_mismatch_rejected() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        let m2 = f.push(Op::Mul(m, m));
        let r = f.push(Op::Rescale(m2)); // level 1
        let bad = f.push(Op::Mul(r, x)); // level 1 vs 0
        f.mark_output("o", bad);
        assert!(matches!(
            infer_types(&f, &cfg()),
            Err(TypeError::LevelMismatch { at, .. }) if at == ValueId(4)
        ));
    }

    #[test]
    fn add_scale_mismatch_rejected() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x)); // scale 40
        let bad = f.push(Op::Add(m, x)); // 40 vs 20
        f.mark_output("o", bad);
        assert!(matches!(
            infer_types(&f, &cfg()),
            Err(TypeError::ScaleMismatch { .. })
        ));
    }

    #[test]
    fn free_operand_rejected_and_encode_fixes() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let c = f.push(Op::Const {
            data: ConstData::splat(2.0),
        });
        let bad = f.push(Op::Mul(x, c));
        f.mark_output("o", bad);
        assert!(matches!(
            infer_types(&f, &cfg()),
            Err(TypeError::FreeOperand { .. })
        ));

        let mut g = Function::new("t", 4);
        let x = g.push(Op::Input { name: "x".into() });
        let c = g.push(Op::Const {
            data: ConstData::splat(2.0),
        });
        let e = g.push(Op::Encode {
            value: c,
            scale_bits: 20.0,
            level: 0,
        });
        let ok = g.push(Op::Mul(x, e));
        g.mark_output("o", ok);
        let tys = infer_types(&g, &cfg()).unwrap();
        assert_eq!(
            tys[2],
            Type::Plain {
                scale: 20.0,
                level: 0
            }
        );
        assert_eq!(
            tys[3],
            Type::Cipher {
                scale: 40.0,
                level: 0
            }
        );
    }

    #[test]
    fn upscale_raises_scale_only_upward() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let u = f.push(Op::Upscale {
            value: x,
            target_bits: 40.0,
        });
        f.mark_output("o", u);
        let tys = infer_types(&f, &cfg()).unwrap();
        assert_eq!(
            tys[1],
            Type::Cipher {
                scale: 40.0,
                level: 0
            }
        );

        let mut g = Function::new("t", 4);
        let x = g.push(Op::Input { name: "x".into() });
        let u = g.push(Op::Upscale {
            value: x,
            target_bits: 10.0,
        });
        g.mark_output("o", u);
        assert!(matches!(
            infer_types(&g, &cfg()),
            Err(TypeError::UpscaleBelowCurrent { .. })
        ));
    }

    #[test]
    fn non_whole_scales_are_rejected() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        f.mark_output("o", x);
        for (w, sf) in [(20.5, 40.0), (20.0, 39.9)] {
            assert!(matches!(
                infer_types(&f, &TypeConfig::new(w, sf)),
                Err(TypeError::FractionalScale { at: None, .. })
            ));
        }

        let c = f.push(Op::Const {
            data: ConstData::splat(2.0),
        });
        let e = f.push(Op::Encode {
            value: c,
            scale_bits: 20.25,
            level: 0,
        });
        assert_eq!(
            infer_types(&f, &cfg()),
            Err(TypeError::FractionalScale {
                at: Some(e),
                bits: 20.25
            })
        );

        let mut g = Function::new("t", 4);
        let x = g.push(Op::Input { name: "x".into() });
        let u = g.push(Op::Upscale {
            value: x,
            target_bits: 30.5,
        });
        g.mark_output("o", u);
        assert_eq!(
            infer_types(&g, &cfg()),
            Err(TypeError::FractionalScale {
                at: Some(u),
                bits: 30.5
            })
        );
    }

    #[test]
    fn modswitch_keeps_scale_bumps_level() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::ModSwitch(x));
        f.mark_output("o", m);
        let tys = infer_types(&f, &cfg()).unwrap();
        assert_eq!(
            tys[1],
            Type::Cipher {
                scale: 20.0,
                level: 1
            }
        );
    }

    #[test]
    fn c1_budget_enforced() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x)); // 40
        let m2 = f.push(Op::Mul(m, m)); // 80
        f.mark_output("o", m2);
        let mut c = cfg();
        c.modulus_bits = Some(70.0);
        assert!(matches!(
            infer_types(&f, &c),
            Err(TypeError::ScaleOverflow { .. })
        ));
        c.modulus_bits = Some(120.0);
        assert!(infer_types(&f, &c).is_ok());
    }

    #[test]
    fn max_level_enforced() {
        let mut f = Function::new("t", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m1 = f.push(Op::ModSwitch(x));
        let m2 = f.push(Op::ModSwitch(m1));
        f.mark_output("o", m2);
        let mut c = cfg();
        c.max_level = Some(1);
        assert!(matches!(
            infer_types(&f, &c),
            Err(TypeError::LevelOverflow { .. })
        ));
    }
}
