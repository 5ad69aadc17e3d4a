//! The HECATE intermediate representation and type system (paper §IV).
//!
//! This crate defines the IR the compiler optimizes:
//!
//! - [`ir`] — the SSA value graph with homomorphic operations (`add`,
//!   `sub`, `mul`, `negate`, `rotate`) and the opaque scale-management
//!   operations (`encode`, `rescale`, `modswitch`, `upscale`, and HECATE's
//!   new `downscale`);
//! - [`types`] — the `free | plain(j,k) | cipher(j,k)` type system with
//!   inference rules Eq. 1–6 and the RNS-CKKS constraints C1–C3;
//! - [`builder`] — the frontend eDSL applications use to write programs;
//! - [`analysis`] — use–def information, liveness, and dead-code
//!   elimination;
//! - [`transform`] — common subexpression elimination and constant
//!   folding (the pre-scale-management cleanup pipeline);
//! - [`interp`] — the plaintext reference interpreter (the homomorphism
//!   ground truth);
//! - [`verify`] — the per-pass plan verifier re-checking the full
//!   invariant set (C1/C2, level monotonicity, rescale legality) after
//!   every transformation, reporting structured [`verify::VerifyError`]s;
//! - [`print`](mod@print) / [`parse`] — textual rendering in the style of
//!   the paper's Fig. 4, and parsing of the same form (used by the
//!   `hecatec` driver);
//! - [`hash`] — the stable FNV-1a content hash over the canonical print
//!   form, which the serving layer uses as its compilation-cache key.
//!
//! Scales are nominal log2 bits: inputs enter at the waterline, `mul` adds
//! scales, `rescale` subtracts the rescale factor `S_f`, and `downscale`
//! resets to the waterline. Backends absorb the tiny offset between `2^{S_f}`
//! and the actual rescale primes by re-declaring scales after rescaling,
//! exactly as EVA/SEAL practice does.
//!
//! # Example
//!
//! ```
//! use hecate_ir::builder::FunctionBuilder;
//! use hecate_ir::types::{infer_types, TypeConfig, Type};
//!
//! let mut b = FunctionBuilder::new("square", 4);
//! let x = b.input_cipher("x");
//! let sq = b.square(x);
//! b.output(sq);
//! let f = b.finish();
//!
//! let tys = infer_types(&f, &TypeConfig::new(20.0, 40.0))?;
//! assert_eq!(tys[1], Type::Cipher { scale: 40.0, level: 0 });
//! # Ok::<(), hecate_ir::types::TypeError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod hash;
pub mod interp;
pub mod ir;
pub mod parse;
pub mod print;
pub mod transform;
pub mod types;
pub mod verify;

pub use analysis::{packed_shift, slot_reaches};
pub use builder::FunctionBuilder;
pub use hash::function_hash;
pub use ir::{ConstData, Function, Op, ValueId};
pub use types::{infer_types, Type, TypeConfig, TypeError};
pub use verify::{verify_input, verify_plan, Invariant, VerifyError};
