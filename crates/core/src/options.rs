//! Compilation options, scheme selection, and compilation results.

use crate::estimator::CostModel;
use crate::params::SelectedParams;
use hecate_ir::ir::StructureError;
use hecate_ir::types::{Type, TypeConfig, TypeError};
use hecate_ir::verify::VerifyError;
use hecate_ir::{Function, Op, ValueId};
use std::collections::BTreeMap;

/// The four scale-management schemes the paper evaluates (§VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// EVA's fixed-factor waterline rescaling (the baseline, reimplemented
    /// on this framework as in the paper).
    Eva,
    /// Proactive rescaling (Algorithm 2) without space exploration.
    Pars,
    /// Scale-management space exploration over EVA's waterline rescaling.
    Smse,
    /// Full HECATE: SMSE over proactive rescaling.
    Hecate,
}

impl Scheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [Scheme; 4] = [Scheme::Eva, Scheme::Pars, Scheme::Smse, Scheme::Hecate];

    /// Whether this scheme runs the hill-climbing exploration.
    pub fn explores(self) -> bool {
        matches!(self, Scheme::Smse | Scheme::Hecate)
    }

    /// Whether this scheme uses proactive rescaling (PARS) as its code
    /// generator (otherwise EVA's waterline rescaling).
    pub fn proactive(self) -> bool {
        matches!(self, Scheme::Pars | Scheme::Hecate)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scheme::Eva => "EVA",
            Scheme::Pars => "PARS",
            Scheme::Smse => "SMSE",
            Scheme::Hecate => "HECATE",
        };
        f.write_str(s)
    }
}

/// Knobs for one compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The waterline `S_w` in log2 bits (the paper sweeps 36 values).
    pub waterline_bits: f64,
    /// The rescale factor `S_f` in log2 bits. EVA fixes rescale primes at
    /// 60 bits; that is the default here too.
    pub sf_bits: f64,
    /// Headroom added to the base prime beyond the largest bottom-level
    /// scale, to keep decoded values intact.
    pub margin_bits: f64,
    /// Fixed ring degree for reduced-scale runs; `None` selects the
    /// smallest 128-bit-secure degree for the chosen modulus.
    pub degree: Option<usize>,
    /// Upper bound on the modulus chain length (guards runaway plans).
    pub max_chain_len: usize,
    /// The latency model used by SMSE and reported in the stats.
    pub cost_model: CostModel,
    /// Apply EVA's early-modswitch motion (the paper applies it in both
    /// EVA and HECATE pipelines).
    pub early_modswitch: bool,
    /// Sabotage injected into generated plans, for testing that the
    /// per-pass verifier and the fallback driver catch compiler faults.
    pub fault: Option<CompileFault>,
}

impl CompileOptions {
    /// Options with the given waterline and all defaults (S_f = 60 bits).
    pub fn with_waterline(waterline_bits: f64) -> Self {
        CompileOptions {
            waterline_bits,
            sf_bits: 60.0,
            margin_bits: 22.0,
            degree: None,
            max_chain_len: 24,
            cost_model: CostModel::default(),
            early_modswitch: true,
            fault: None,
        }
    }

    /// The type-system environment these options induce, in whole bits:
    /// the waterline rounded up (precision never drops below the request),
    /// `S_f` to the nearest bit. Every pass reads this, not the raw fields.
    pub fn type_config(&self) -> TypeConfig {
        TypeConfig::new(self.waterline_bits.ceil(), self.sf_bits.round())
    }

    /// A canonical textual fingerprint of every option that can change the
    /// compiled plan. The serving layer's content-addressed cache hashes
    /// this next to the program's canonical print: two compilations share
    /// a cache slot iff both the program and this fingerprint agree.
    ///
    /// Floats are rendered in Rust's shortest round-trip form, so distinct
    /// values always produce distinct fingerprints.
    pub fn fingerprint(&self) -> String {
        let cost_model = match &self.cost_model {
            CostModel::Analytic => "analytic".to_string(),
            CostModel::Profiled(table) => {
                let entries: Vec<String> = table
                    .measurements()
                    .map(|(op, c, us)| format!("{op:?}@{c}={us}"))
                    .collect();
                format!("profiled(n{};{})", table.degree, entries.join(","))
            }
        };
        format!(
            "w={};sf={};margin={};degree={:?};chain<={};cost={};ems={};fault={:?}",
            self.waterline_bits,
            self.sf_bits,
            self.margin_bits,
            self.degree,
            self.max_chain_len,
            cost_model,
            self.early_modswitch,
            self.fault,
        )
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::with_waterline(30.0)
    }
}

/// A fault injected into generated plans, for testing the guard rails.
///
/// The fault is applied to each lowered candidate *before* per-pass
/// verification, so a correctly working verifier turns every injected
/// fault into a [`CompileError::Verify`]. Restricting `scheme` lets a
/// test sabotage one rung of the fallback ladder while leaving the
/// others sound.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileFault {
    /// Apply only when compiling under this scheme (`None`: always).
    pub scheme: Option<Scheme>,
    /// What to break.
    pub kind: CompileFaultKind,
}

/// The compile-side sabotage repertoire.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileFaultKind {
    /// Replace the `nth` rescale with a modswitch: the level still drops
    /// but the scale is never reduced, violating C1/C3 downstream.
    DropRescale {
        /// Which rescale to corrupt (0-based, in definition order).
        nth: usize,
    },
    /// Point the first non-nullary operation at the last value in the
    /// function, breaking SSA dominance.
    ForwardReference,
}

impl CompileFault {
    /// Whether this fault applies when compiling under `scheme`.
    pub fn applies_to(&self, scheme: Scheme) -> bool {
        self.scheme.map(|s| s == scheme).unwrap_or(true)
    }

    /// Returns the sabotaged copy of `func`, or `None` if the fault found
    /// no site to corrupt (e.g. no `nth` rescale exists).
    pub fn apply(&self, func: &Function) -> Option<Function> {
        let mut ops: Vec<Op> = func.ops().to_vec();
        match self.kind {
            CompileFaultKind::DropRescale { nth } => {
                let site = ops
                    .iter()
                    .enumerate()
                    .filter(|(_, op)| matches!(op, Op::Rescale(_)))
                    .nth(nth)
                    .map(|(i, _)| i)?;
                let Op::Rescale(v) = ops[site] else {
                    return None;
                };
                ops[site] = Op::ModSwitch(v);
            }
            CompileFaultKind::ForwardReference => {
                let last = ValueId((ops.len() - 1) as u32);
                let site = ops.iter().position(|op| !op.operands().is_empty())?;
                ops[site] = match &ops[site] {
                    Op::Negate(_) | Op::Rescale(_) | Op::ModSwitch(_) => Op::Negate(last),
                    _ => Op::Add(last, last),
                };
            }
        }
        let mut out = Function::new(func.name.clone(), func.vec_size);
        for op in ops {
            out.push(op);
        }
        for (name, v) in func.outputs() {
            out.mark_output(name.clone(), *v);
        }
        Some(out)
    }
}

/// Errors from compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The input program is structurally malformed.
    Structure(StructureError),
    /// A transformation produced (or met) ill-typed IR.
    Type(TypeError),
    /// A pass produced a plan that failed post-pass verification.
    Verify(VerifyError),
    /// The scale requirements exceed every supported parameter set.
    NoParameters {
        /// Explanation of what overflowed.
        reason: String,
    },
    /// The input program contains an operation input programs may not use.
    UnsupportedInput {
        /// Explanation.
        reason: String,
    },
}

impl From<StructureError> for CompileError {
    fn from(e: StructureError) -> Self {
        CompileError::Structure(e)
    }
}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Structure(e) => write!(f, "malformed input: {e}"),
            CompileError::Type(e) => write!(f, "type error: {e}"),
            CompileError::Verify(e) => write!(f, "verification failed: {e}"),
            CompileError::NoParameters { reason } => {
                write!(f, "no feasible encryption parameters: {reason}")
            }
            CompileError::UnsupportedInput { reason } => {
                write!(f, "unsupported input program: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Statistics gathered during compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Estimated execution latency of the compiled program, microseconds.
    pub estimated_latency_us: f64,
    /// Estimated output noise, log2 of the decoded standard deviation.
    pub estimated_noise_bits: f64,
    /// Hill-climbing iterations that improved the plan (Table III "epoch").
    pub epochs: usize,
    /// Scale-management plans evaluated (Table III "plans").
    pub plans_explored: usize,
    /// Number of scale management units (Table III "SMU").
    pub smu_units: usize,
    /// Number of edges between scale management units.
    pub smu_edges: usize,
    /// Use–def edges in the input program (Table III "uses"); 0 on a
    /// plan reloaded from a file, which does not carry its source.
    pub use_edges: usize,
    /// Operation histogram of the compiled program.
    pub op_counts: BTreeMap<&'static str, usize>,
    /// Which rung of the degradation ladder produced this program.
    /// `None` when compiled directly (no fallback driver involved).
    pub fallback: Option<FallbackRung>,
    /// Rungs that failed before the succeeding one (fallback driver only).
    pub fallback_attempts: usize,
}

/// The degradation ladder the fallback driver descends: the requested
/// scheme first, then progressively simpler scale management, and finally
/// a recompile at a raised waterline that trades precision for headroom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackRung {
    /// The requested scheme succeeded as-is.
    Primary,
    /// Fell back to proactive rescaling without exploration.
    Pars,
    /// Fell back to the EVA waterline-rescaling baseline.
    Eva,
    /// Recompiled the EVA baseline at a raised waterline.
    RaisedWaterline,
}

impl std::fmt::Display for FallbackRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FallbackRung::Primary => "primary",
            FallbackRung::Pars => "pars",
            FallbackRung::Eva => "eva",
            FallbackRung::RaisedWaterline => "raised-waterline",
        };
        f.write_str(s)
    }
}

/// A fully compiled FHE program: scale-managed IR, its types, and the
/// selected encryption parameters.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The scale-managed function (verified against C1–C3).
    pub func: Function,
    /// The inferred type of every value.
    pub types: Vec<Type>,
    /// The waterline `S_w` it was compiled at, whole log2 bits. With
    /// `params` it fixes the plan's type environment,
    /// [`SelectedParams::type_config`].
    pub waterline: f64,
    /// Which scheme produced it.
    pub scheme: Scheme,
    /// The selected RNS parameters.
    pub params: SelectedParams,
    /// Content hash ([`hecate_ir::hash::function_hash`]) of the *source*
    /// function this plan was compiled from (pre-canonicalization), so a
    /// reloaded plan can be checked against the program it claims to
    /// implement.
    pub source_hash: u64,
    /// Compilation statistics.
    pub stats: CompileStats,
}
