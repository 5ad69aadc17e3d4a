//! Multi-tenant serving layer for compiled HECATE programs.
//!
//! The compiler amortizes badly when every request recompiles: SMU
//! construction and hill-climbing SMSE exploration dwarf a cache probe.
//! This crate turns the compile-then-execute pipeline into a serving
//! runtime with two subsystems:
//!
//! - [`cache`] — a **content-addressed plan cache**: submissions are
//!   keyed by a stable FNV-1a hash of the program's canonical print form,
//!   the scheme, and the compile-options fingerprint. Concurrent misses
//!   on the same key are *single-flighted*: one thread compiles, the rest
//!   block until the artifact is published. Failures are not cached.
//! - [`session`] — a **session manager** owning per-tenant key material.
//!   Each session's keys derive from its own seed, so ciphertexts never
//!   cross sessions (decrypting under another session's key yields
//!   noise); plans are shared, keys are not. Evaluation keys are built
//!   lazily, on a session's first use of a plan, from the cached
//!   artifact's rotation/relinearization requirements.
//!
//! Execution itself is not this crate's: every request, solo or
//! slot-batched, runs through the backend's one op driver
//! ([`hecate_backend::exec::execute`]), a walk of the ops in SSA order
//! on the serving thread.
//!
//! [`Runtime`] wires them together behind one bounded request queue
//! feeding a supervised worker pool ([`pool`]); the only threads inside
//! a request are its kernels' limb stripes
//! ([`RuntimeConfig::jobs_per_request`] × `backend.kernel_jobs` of them,
//! scoped to one kernel call). [`stats`]
//! declares every runtime metric once, in one table, and renders it as
//! JSON and Prometheus text.
//!
//! The serving layer is failure-isolated: a worker panic is caught at
//! the request boundary and returned as [`RuntimeError::Panicked`] (the
//! worker survives; shared locks recover from poisoning), requests carry
//! optional deadlines, a failed run is final, the bounded queue sheds load
//! through a cost-priced admission policy, and the [`chaos`] harness
//! injects faults, latency, and panics on demand to prove all of it
//! under stress.
//!
//! Observability is always-on: every request gets a correlation id at
//! admission, threaded through the queue, the batch coalescer, and the
//! backend executor; a bounded flight recorder
//! ([`hecate_telemetry::recorder`]) keeps recent events in per-thread
//! rings and promotes the full span tree of interesting requests (slow,
//! shed, timed out, guard-failed, panicked); and [`diag`] renders a
//! [`DiagnosticsReport`] snapshot of the whole runtime — on demand, on a
//! timer, and as a crash black box when a request panics.
//!
//! # Example
//!
//! ```
//! use hecate_runtime::{Request, Runtime, RuntimeConfig};
//! use hecate_compiler::{CompileOptions, Scheme};
//! use hecate_ir::FunctionBuilder;
//! use std::collections::HashMap;
//!
//! let mut b = FunctionBuilder::new("square", 8);
//! let x = b.input_cipher("x");
//! let sq = b.square(x);
//! b.output(sq);
//! let func = b.finish();
//!
//! let mut options = CompileOptions::with_waterline(25.0);
//! options.degree = Some(128); // toy ring for the doctest
//!
//! let rt = Runtime::new(RuntimeConfig::default());
//! let session = rt.open_session();
//! let mut inputs = HashMap::new();
//! inputs.insert("x".to_string(), vec![1.5, -2.0]);
//! let req = Request {
//!     session, func, scheme: Scheme::Hecate, options, inputs,
//!     deadline: None, max_retries: 0,
//! };
//!
//! let first = rt.run_batch(vec![req.clone()]).remove(0).unwrap();
//! assert!(!first.cache_hit);
//! let second = rt.run_batch(vec![req]).remove(0).unwrap();
//! assert!(second.cache_hit, "identical resubmission must not recompile");
//! assert_eq!(rt.stats().compiles, 1);
//! assert!((second.run.outputs["out0"][0] - 2.25).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod diag;
pub mod pool;
mod serve;
pub mod session;
pub mod stats;

pub use cache::{plan_key, PlanArtifact, PlanCache, PlanCacheEntry};
pub use chaos::{ChaosKind, ChaosOptions};
pub use diag::{DiagnosticsReport, PlanCacheDiag, RecorderDiag, SloDiag};
pub use pool::{DiagOptions, Request, Response, Runtime, RuntimeConfig};
pub use session::{Session, SessionId, SessionManager};
pub use stats::{RuntimeStats, StatsSnapshot};

use hecate_backend::ExecError;
use hecate_compiler::CompileError;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum RuntimeError {
    /// The compiler pipeline rejected the submitted program.
    Compile(CompileError),
    /// Encrypted execution (or engine construction) failed.
    Exec(ExecError),
    /// The request named a session that is not open.
    UnknownSession(SessionId),
    /// The runtime shut down before the request completed.
    Shutdown,
    /// A worker panicked while serving the request. The panic was caught
    /// at the request boundary: the worker survives, shared state is
    /// poison-recovered, and only this request fails.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The request's deadline expired before it finished (in queue or
    /// mid-execution via the cancel token).
    TimedOut {
        /// Time from enqueue until the deadline was observed expired.
        elapsed: std::time::Duration,
    },
    /// The bounded request queue was full at submission; nothing was
    /// enqueued.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// Admission control rejected the request: its estimated cost, scaled
    /// by the current queue depth, exceeded the configured budget.
    Shed {
        /// The plan's estimated latency, microseconds.
        estimated_us: f64,
        /// Requests already queued at admission time.
        queue_depth: u64,
        /// The configured admission budget, microseconds.
        budget_us: f64,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Compile(e) => write!(f, "compile error: {e}"),
            RuntimeError::Exec(e) => write!(f, "execution error: {e}"),
            RuntimeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            RuntimeError::Shutdown => write!(f, "runtime shut down"),
            RuntimeError::Panicked { message } => {
                write!(f, "worker panicked while serving request: {message}")
            }
            RuntimeError::TimedOut { elapsed } => {
                write!(f, "request deadline expired after {:.1} ms", {
                    elapsed.as_secs_f64() * 1e3
                })
            }
            RuntimeError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            RuntimeError::Shed {
                estimated_us,
                queue_depth,
                budget_us,
            } => write!(
                f,
                "request shed: estimated {estimated_us:.0} µs at queue depth \
                 {queue_depth} exceeds admission budget {budget_us:.0} µs"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Compile(e) => Some(e),
            RuntimeError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod send_sync {
    //! The serving layer shares engines, plans, and caches across worker
    //! threads by reference; these compile-time assertions pin down the
    //! thread-safety contract end to end.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn runtime_types_are_send_sync() {
        assert_send_sync::<PlanCache>();
        assert_send_sync::<PlanArtifact>();
        assert_send_sync::<Session>();
        assert_send_sync::<SessionManager>();
        assert_send_sync::<RuntimeStats>();
        assert_send_sync::<Runtime>();
        assert_send_sync::<RuntimeError>();
        assert_send_sync::<hecate_backend::ExecEngine>();
        assert_send_sync::<hecate_backend::OpValue>();
    }
}
