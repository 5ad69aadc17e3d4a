//! HECATE's performance-aware scale management (the paper's contribution).
//!
//! This crate implements §V–§VI of *"HECATE: Performance-Aware Scale
//! Optimization for Homomorphic Encryption Compiler"* (CGO 2022):
//!
//! - [`codegen`] — the two code-generation policies: EVA's reactive
//!   waterline rescaling (the baseline) and HECATE's proactive rescaling
//!   algorithm PARS (Algorithm 2), plus plan application and the
//!   early-modswitch motion;
//! - [`smu`] — scale management unit generation (Algorithm 1), which
//!   shrinks the exploration space from use–def edges to unit edges;
//! - [`planner`] — the hill-climbing scale management space explorer
//!   (SMSE): one climb over the edges of whatever unit analysis it is
//!   given — SMU edges, per-use edges for Table III's naïve search, or
//!   none for EVA and PARS;
//! - [`estimator`] — the static performance estimator (§VI-C), analytic or
//!   profiled;
//! - [`lowering`] — the one per-op lowering onto the backend (cost
//!   categories, active primes, physical rotation steps, hoist roles) that
//!   the estimator prices and the executor keys, hoists and labels from;
//! - [`noise`] — the one per-op CKKS noise rule the estimator, the
//!   backend's simulator and its per-engine prediction all fold;
//! - [`params`] — RNS modulus-chain and ring-degree selection under the
//!   128-bit security table;
//! - [`pipeline`] — the [`compile`] entry point, the
//!   [`compile_with_fallback`] graceful-degradation driver, and the
//!   waterline sweep;
//! - [`serialize`] — exact text (de)serialization of compiled plans, so
//!   the serving layer can persist and reload cache artifacts.
//!
//! Every pass output is re-verified against the paper's invariants (see
//! [`hecate_ir::verify`]); failures surface as structured
//! [`CompileError::Verify`] values naming the pass, operation, and
//! violated invariant. [`options::CompileFault`] injects compiler
//! sabotage for testing those guard rails.
//!
//! The four schemes of the paper's evaluation are selected with [`Scheme`]:
//! `Eva`, `Pars`, `Smse`, and `Hecate`.
//!
//! # Example
//!
//! ```
//! use hecate_compiler::{compile, CompileOptions, Scheme};
//! use hecate_ir::FunctionBuilder;
//!
//! // The paper's running example: (x² + y²)³.
//! let mut b = FunctionBuilder::new("motivating", 8);
//! let x = b.input_cipher("x");
//! let y = b.input_cipher("y");
//! let x2 = b.square(x);
//! let y2 = b.square(y);
//! let z = b.add(x2, y2);
//! let z2 = b.mul(z, z);
//! let z3 = b.mul(z2, z);
//! b.output(z3);
//! let func = b.finish();
//!
//! let eva = compile(&func, Scheme::Eva, &CompileOptions::with_waterline(20.0))?;
//! let hecate = compile(&func, Scheme::Hecate, &CompileOptions::with_waterline(20.0))?;
//! assert!(hecate.stats.estimated_latency_us <= eva.stats.estimated_latency_us);
//! # Ok::<(), hecate_compiler::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod estimator;
pub mod lowering;
pub mod noise;
pub mod options;
pub mod params;
pub mod pipeline;
pub mod planner;
pub mod serialize;
pub mod smu;

pub use estimator::{CostModel, CostOp, CostTable};
pub use lowering::{HoistRole, LoweredOp, Lowering};
pub use options::{
    CompileError, CompileFault, CompileFaultKind, CompileOptions, CompileStats, CompiledProgram,
    FallbackRung, Scheme,
};
pub use params::SelectedParams;
pub use pipeline::{compile, compile_with_fallback, default_waterlines, sweep_waterlines};
pub use serialize::{deserialize_plan, serialize_plan, PlanError};
