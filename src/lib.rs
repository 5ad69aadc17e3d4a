//! # HECATE — performance-aware scale optimization for an RNS-CKKS compiler
//!
//! This crate is the facade of a full reproduction of the CGO 2022 paper
//! *"HECATE: Performance-Aware Scale Optimization for Homomorphic Encryption
//! Compiler"* (Lee et al.). It re-exports the workspace crates:
//!
//! - [`math`] — number theory substrate (NTT, RNS, FFT, sampling);
//! - [`ckks`] — a from-scratch RNS-CKKS homomorphic encryption scheme;
//! - [`ir`] — the HECATE IR and its `(scale, level)` type system;
//! - [`compiler`] — EVA baseline, PARS, SMU analysis, SMSE, and the
//!   performance estimator;
//! - [`backend`] — plaintext, noise-simulating, and encrypted executors;
//! - [`apps`] — the paper's six evaluation benchmarks as IR builders;
//! - [`runtime`] — the multi-tenant serving layer: content-addressed plan
//!   cache, per-session key management, and a parallel encrypted
//!   executor;
//! - [`telemetry`] — zero-dependency tracing spans, metrics, and
//!   exporters (JSONL, Chrome trace, Prometheus text) wired through the
//!   compiler, backend, and runtime.
//!
//! # Quickstart
//!
//! Compile and run the paper's running example `(x² + y²)³` with the full
//! HECATE pipeline:
//!
//! ```
//! use hecate::compiler::{compile, CompileOptions, Scheme};
//! use hecate::ir::builder::FunctionBuilder;
//!
//! // Build (x² + y²)³ in the IR.
//! let mut b = FunctionBuilder::new("motivating", 4);
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
//! // Compile with performance-aware scale management.
//! let opts = CompileOptions::with_waterline(20.0);
//! let compiled = compile(&func, Scheme::Hecate, &opts)?;
//! assert!(compiled.stats.estimated_latency_us > 0.0);
//! # Ok::<(), hecate::compiler::CompileError>(())
//! ```

pub use hecate_apps as apps;
pub use hecate_backend as backend;
pub use hecate_ckks as ckks;
pub use hecate_compiler as compiler;
pub use hecate_ir as ir;
pub use hecate_math as math;
pub use hecate_runtime as runtime;
pub use hecate_telemetry as telemetry;
