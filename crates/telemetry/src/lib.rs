//! Zero-dependency tracing and metrics for HECATE.
//!
//! Production systems are operated through traces and metrics, and the
//! paper's own headline result (a 1.3% geomean estimation error, Fig. 8)
//! rests on comparing the static estimator against *measured* per-op
//! latencies. This crate is the substrate for both:
//!
//! - [`trace`] — the span API: RAII [`trace::Span`] guards, markers and
//!   complete events with monotonic timestamps and key/value attributes,
//!   stamped with the ambient correlation ids of
//!   [`trace::push_context`]. While nothing holds the store a span site
//!   is a single relaxed atomic load — measured at a few nanoseconds per
//!   call, versus tens of microseconds for the cheapest homomorphic
//!   kernel.
//! - [`recorder`] — the one event store: a bounded per-thread ring whose
//!   retention level is the highest live [`recorder::Hold`] — `Off`,
//!   `Ring` (the always-on flight recorder of a serving runtime:
//!   overwrite-oldest, with tail-based retention promoting the span
//!   trees of interesting requests into a bounded store) or `Full` (a
//!   traced run: keep everything up to a counted drop-new bound).
//! - [`metrics`] — a metrics registry generalizing the runtime's ad-hoc
//!   atomics: named [`metrics::Counter`]s, [`metrics::Gauge`]s, and
//!   power-of-two [`metrics::Histogram`]s, all shared via `Arc`ed atomics
//!   so recording never takes the registry lock; it renders itself as
//!   Prometheus-style text.
//! - [`export`] — the event-stream exporters: JSONL, Chrome trace-event
//!   JSON (loadable in Perfetto or `chrome://tracing`), and the precision
//!   JSONL, over one record serializer; plus [`export::JsonObject`], the
//!   writer for every other JSON document (stats, diagnostics, black box).
//!
//! The crate deliberately depends on nothing, not even other HECATE
//! crates, so every layer of the workspace (compiler, backend, serving
//! runtime, benchmark harness) can emit into the same store. The
//! aggregation that folds execution spans back into a measured cost table
//! lives in `hecate_compiler::estimator`, next to the type it produces.
//!
//! # Example
//!
//! ```
//! use hecate_telemetry::trace;
//!
//! let ((), events) = trace::capture(|| {
//!     let mut outer = trace::span("compile");
//!     {
//!         let _inner = trace::span_with("pass", || vec![("n", 3.into())]);
//!     }
//!     outer.attr("est_us", 125.0.into());
//! });
//! let spans = trace::pair_spans(&events).unwrap();
//! assert_eq!(spans.len(), 2);
//! let json = hecate_telemetry::export::chrome_trace(&events);
//! assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use metrics::{quantile_from_pow2_buckets, Counter, Gauge, Histogram, Registry};
pub use recorder::{RetainedSummary, RetainedTrace};
pub use trace::{AttrValue, Attrs, Event, EventKind, PairedSpan, Span};
