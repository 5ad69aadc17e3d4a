//! Execution backends for compiled HECATE programs.
//!
//! Three ways to run a [`hecate_compiler::CompiledProgram`]:
//!
//! - the **plaintext reference** — [`hecate_ir::interp`], the homomorphism
//!   ground truth;
//! - the **noise simulator** ([`noise`]) — the reference interpreter's
//!   values plus the compiler's first-order CKKS noise rule
//!   ([`hecate_compiler::noise`]), for fast RMS-error estimates during
//!   waterline sweeps;
//! - the **encrypted executor** ([`exec`]) — real RNS-CKKS execution on
//!   [`hecate_ckks`] with per-operation wall-clock timing, used for the
//!   paper's latency and error measurements.
//!
//! [`calibrate`] builds the measured cost table for the compiler's
//! performance estimator by running a calibration program through that
//! same executor and folding its `exec-op` spans. Every encrypted run —
//! solo or slot-batched, audited or not — goes through the one driver,
//! [`exec::execute`], which walks the ops in SSA order and frees each
//! value after its last use, from a liveness analysis done when the
//! engine is built, as the paper's SEAL dialect does.
//!
//! The executor checks every ciphertext's scale, level and prefix against
//! the compiled plan after each operation, and carries optional guards
//! ([`GuardOptions`]): residue-range validation and a noise budget on the
//! engine's noise prediction ([`predict_rms`]), judged once at engine
//! build, that refuses a plan with `BudgetExhausted` before a garbage
//! decryption. [`fault`] injects
//! runtime faults to prove the guards catch them.
//!
//! # Example
//!
//! Compile and run the motivating example end to end:
//!
//! ```
//! use hecate_backend::exec::{execute_encrypted, BackendOptions};
//! use hecate_compiler::{compile, CompileOptions, Scheme};
//! use hecate_ir::FunctionBuilder;
//! use std::collections::HashMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("square", 8);
//! let x = b.input_cipher("x");
//! let sq = b.square(x);
//! b.output(sq);
//! let func = b.finish();
//!
//! let mut opts = CompileOptions::with_waterline(25.0);
//! opts.degree = Some(128); // toy ring for the doctest
//! let prog = compile(&func, Scheme::Hecate, &opts)?;
//!
//! let mut inputs = HashMap::new();
//! inputs.insert("x".to_string(), vec![1.5, -2.0]);
//! let run = execute_encrypted(&prog, &inputs, &BackendOptions::default())?;
//! assert!((run.outputs["out0"][0] - 2.25).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod exec;
pub mod fault;
pub mod noise;
pub mod profile;

pub use audit::{audit_batched, audit_encrypted, AuditOptions, AuditReport, AuditRow};
pub use exec::{
    execute, execute_encrypted, execute_sequential, BackendOptions, CancelToken, EncryptedRun,
    ExecEngine, ExecError, GuardOptions, OpObserver, OpValue,
};
pub use fault::FaultPlan;
pub use hecate_ir::interp::rms_error;
pub use noise::{max_rms_error, predict_rms, simulate, simulate_ops, SimVal, SimulatedRun};
pub use profile::calibrate;
