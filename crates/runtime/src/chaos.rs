//! Chaos injection for pressure-testing the serving layer.
//!
//! A [`ChaosOptions`] attached to [`crate::RuntimeConfig`] makes the
//! worker pool sabotage every Nth served request *before* it executes:
//! a backend [`FaultPlan`] (exercising the guards and typed failures),
//! synthetic added latency (exercising deadlines and queue backpressure),
//! or an outright worker panic (exercising panic isolation and
//! poison-recovery). The injection kinds rotate deterministically through
//! [`ChaosOptions::mix`], so a chaos run is reproducible: the same
//! request sequence sees the same injections.
//!
//! An injected fault runs on a one-off engine that is never cached, and
//! its failure is the request's final answer: the tenant's next request
//! runs clean on the session's cached engine.
//!
//! This is the machinery behind `hecatec --serve --chaos N` and the
//! `chaos_soak` test: ≥500 requests with ~10% injected faults must
//! complete with zero hangs and exactly one terminal response each.

use hecate_backend::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Inject [`ChaosOptions::fault`] into the request's backend
    /// execution (a guard catches it; the request fails, typed).
    Fault,
    /// Sleep [`ChaosOptions::latency`] before executing (drives requests
    /// past their deadlines and backs the queue up).
    Latency,
    /// Panic inside the worker while serving the request (must be
    /// isolated: a typed `Panicked` response, never a wedged pool).
    Panic,
}

impl ChaosKind {
    /// Parses a kind name as used by `hecatec --chaos-kind`.
    ///
    /// # Errors
    /// Returns a message naming the accepted kinds.
    pub fn parse(s: &str) -> Result<ChaosKind, String> {
        match s {
            "fault" => Ok(ChaosKind::Fault),
            "latency" => Ok(ChaosKind::Latency),
            "panic" => Ok(ChaosKind::Panic),
            other => Err(format!(
                "bad chaos kind '{other}' (want fault|latency|panic|mix)"
            )),
        }
    }
}

/// Chaos-injection policy for one [`crate::Runtime`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Inject into every Nth request (1 = every request, 10 = 10% of
    /// requests). `0` disables injection entirely.
    pub every_nth: u64,
    /// The injection kinds cycled across hits, in order. Empty behaves
    /// like disabled.
    pub mix: Vec<ChaosKind>,
    /// The fault injected on [`ChaosKind::Fault`] hits. The default —
    /// `perturb-scale@0:1.0` — is caught by the always-on metadata guard
    /// at the first op, making it a fast, reliably typed failure.
    pub fault: FaultPlan,
    /// Latency injected on [`ChaosKind::Latency`] hits.
    pub latency: Duration,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            every_nth: 10,
            mix: vec![ChaosKind::Fault, ChaosKind::Latency, ChaosKind::Panic],
            fault: FaultPlan::PerturbScale {
                at: 0,
                delta_bits: 1.0,
            },
            latency: Duration::from_millis(5),
        }
    }
}

impl ChaosOptions {
    /// A policy injecting only `kind` into every Nth request, with
    /// default fault/latency payloads.
    pub fn only(kind: ChaosKind, every_nth: u64) -> Self {
        ChaosOptions {
            every_nth,
            mix: vec![kind],
            ..ChaosOptions::default()
        }
    }
}

/// The pool-side injector: owns the request sequence counter that makes
/// chaos deterministic under concurrency (the *counter* is race-free;
/// which worker serves which sequence number is not, and does not need
/// to be).
#[derive(Debug, Default)]
pub(crate) struct ChaosState {
    seq: AtomicU64,
}

/// What the pool should do to the current request, decided by
/// [`ChaosState::next`].
#[derive(Debug, Clone)]
pub(crate) enum ChaosInjection {
    Fault(FaultPlan),
    Latency(Duration),
    Panic,
}

impl ChaosInjection {
    /// The injection's kind name, stamped as the `chaos` attr on the
    /// victim request's span so retained traces are self-explaining.
    pub(crate) fn kind_str(&self) -> &'static str {
        match self {
            ChaosInjection::Fault(_) => "fault",
            ChaosInjection::Latency(_) => "latency",
            ChaosInjection::Panic => "panic",
        }
    }
}

impl ChaosState {
    /// Decides the injection (if any) for the next served request.
    pub(crate) fn next(&self, opts: Option<&ChaosOptions>) -> Option<ChaosInjection> {
        let opts = opts?;
        if opts.every_nth == 0 || opts.mix.is_empty() {
            return None;
        }
        let n = self.seq.fetch_add(1, Ordering::SeqCst);
        if !n.is_multiple_of(opts.every_nth) {
            return None;
        }
        let hit = (n / opts.every_nth) as usize;
        Some(match opts.mix[hit % opts.mix.len()] {
            ChaosKind::Fault => ChaosInjection::Fault(opts.fault.clone()),
            ChaosKind::Latency => ChaosInjection::Latency(opts.latency),
            ChaosKind::Panic => ChaosInjection::Panic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_deterministic() {
        let state = ChaosState::default();
        let opts = ChaosOptions {
            every_nth: 2,
            ..ChaosOptions::default()
        };
        let picks: Vec<_> = (0..8).map(|_| state.next(Some(&opts))).collect();
        // Hits on 0, 2, 4, 6 rotate fault -> latency -> panic -> fault.
        assert!(matches!(picks[0], Some(ChaosInjection::Fault(_))));
        assert!(picks[1].is_none());
        assert!(matches!(picks[2], Some(ChaosInjection::Latency(_))));
        assert!(picks[3].is_none());
        assert!(matches!(picks[4], Some(ChaosInjection::Panic)));
        assert!(matches!(picks[6], Some(ChaosInjection::Fault(_))));
    }

    #[test]
    fn zero_and_empty_disable_injection() {
        let state = ChaosState::default();
        assert!(state.next(None).is_none());
        let off = ChaosOptions {
            every_nth: 0,
            ..ChaosOptions::default()
        };
        assert!(state.next(Some(&off)).is_none());
        let empty = ChaosOptions {
            mix: Vec::new(),
            ..ChaosOptions::default()
        };
        assert!(state.next(Some(&empty)).is_none());
    }

    #[test]
    fn only_constructor_pins_the_kind() {
        let state = ChaosState::default();
        let opts = ChaosOptions::only(ChaosKind::Panic, 1);
        for _ in 0..4 {
            assert!(matches!(
                state.next(Some(&opts)),
                Some(ChaosInjection::Panic)
            ));
        }
    }
}
