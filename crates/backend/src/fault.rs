//! Runtime fault injection for exercising the executor's guard rails.
//!
//! A [`FaultPlan`] tells [`execute_encrypted`](crate::exec::execute_encrypted)
//! to sabotage one step of an otherwise-correct encrypted run. Each variant
//! models a realistic failure (a flipped limb, a metadata bug, a skipped
//! scale-management or relinearization step, a noise blow-up), and each has
//! a designated guard that must catch it:
//!
//! | fault | detected by |
//! |---|---|
//! | [`FaultPlan::CorruptLimb`] | representation validity scan (residue ≥ its prime) |
//! | [`FaultPlan::PerturbScale`] | metadata check against the compiled types |
//! | [`FaultPlan::DropRescale`] | metadata check (level and scale both wrong) |
//! | [`FaultPlan::SkipRelin`] | clean `MissingKey` error from the evaluator |
//! | [`FaultPlan::ExhaustNoise`] | noise budget, judged at engine build (`BudgetExhausted`) |
//!
//! The fault-injection tests in `crates/backend/tests/fault_injection.rs`
//! prove the table: every variant yields a structured error, never a panic
//! and never a silently wrong plaintext.

/// One injected fault, applied during encrypted execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// Overwrite one RNS residue row of the result of op `at` with a value
    /// outside its prime's range (a model of a flipped/stuck limb).
    CorruptLimb {
        /// Operation index whose result is corrupted.
        at: usize,
        /// Residue row to corrupt (taken modulo the active prefix).
        limb: usize,
    },
    /// Perturb the declared scale of the result of op `at` by
    /// `delta_bits` without touching the payload — the metadata lies.
    PerturbScale {
        /// Operation index whose scale is perturbed.
        at: usize,
        /// Log2-bits of perturbation (ε).
        delta_bits: f64,
    },
    /// Skip the rescale at op `at` entirely: the value passes through with
    /// its level and scale unchanged.
    DropRescale {
        /// Index of the rescale operation to drop.
        at: usize,
    },
    /// Generate no relinearization keys, so the first cipher–cipher
    /// multiplication cannot relinearize.
    SkipRelin,
    /// Inject real noise into the result of op `at`, large enough to
    /// exhaust the noise budget (adds ~2.0 absolute error per slot).
    ExhaustNoise {
        /// Operation index at which the budget blows up.
        at: usize,
    },
}

impl FaultPlan {
    /// The op index the fault targets, if it targets one.
    pub fn at(&self) -> Option<usize> {
        match self {
            FaultPlan::CorruptLimb { at, .. }
            | FaultPlan::PerturbScale { at, .. }
            | FaultPlan::DropRescale { at }
            | FaultPlan::ExhaustNoise { at } => Some(*at),
            FaultPlan::SkipRelin => None,
        }
    }

    /// Parses the compact fault syntax used by `hecatec --chaos-fault`:
    ///
    /// ```text
    /// corrupt-limb@AT:LIMB | perturb-scale@AT:BITS | drop-rescale@AT
    /// skip-relin           | exhaust-noise@AT
    /// ```
    ///
    /// # Errors
    /// Returns a human-readable message for unknown kinds or malformed
    /// numeric fields.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (kind, rest) = match spec.split_once('@') {
            Some((k, r)) => (k, Some(r)),
            None => (spec, None),
        };
        let err = || format!("bad fault spec '{spec}'");
        let at = |r: Option<&str>| r.and_then(|r| r.parse::<usize>().ok()).ok_or_else(err);
        match kind {
            "corrupt-limb" => {
                let (a, l) = rest.and_then(|r| r.split_once(':')).ok_or_else(err)?;
                Ok(FaultPlan::CorruptLimb {
                    at: a.parse().map_err(|_| err())?,
                    limb: l.parse().map_err(|_| err())?,
                })
            }
            "perturb-scale" => {
                let (a, d) = rest.and_then(|r| r.split_once(':')).ok_or_else(err)?;
                Ok(FaultPlan::PerturbScale {
                    at: a.parse().map_err(|_| err())?,
                    delta_bits: d.parse().map_err(|_| err())?,
                })
            }
            "drop-rescale" => Ok(FaultPlan::DropRescale { at: at(rest)? }),
            "skip-relin" => Ok(FaultPlan::SkipRelin),
            "exhaust-noise" => Ok(FaultPlan::ExhaustNoise { at: at(rest)? }),
            _ => Err(err()),
        }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlan::CorruptLimb { at, limb } => write!(f, "corrupt-limb@{at}:{limb}"),
            FaultPlan::PerturbScale { at, delta_bits } => {
                write!(f, "perturb-scale@{at}:{delta_bits}")
            }
            FaultPlan::DropRescale { at } => write!(f, "drop-rescale@{at}"),
            FaultPlan::SkipRelin => write!(f, "skip-relin"),
            FaultPlan::ExhaustNoise { at } => write!(f, "exhaust-noise@{at}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_variant() {
        let plans = [
            FaultPlan::CorruptLimb { at: 3, limb: 1 },
            FaultPlan::PerturbScale {
                at: 0,
                delta_bits: 1.5,
            },
            FaultPlan::DropRescale { at: 2 },
            FaultPlan::SkipRelin,
            FaultPlan::ExhaustNoise { at: 4 },
        ];
        for plan in plans {
            let spec = plan.to_string();
            assert_eq!(FaultPlan::parse(&spec).unwrap(), plan, "spec {spec}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "bogus",
            "corrupt-limb",
            "corrupt-limb@1",
            "drop-rescale@x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
