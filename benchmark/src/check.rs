//! The correctness gate: every output the benchmark sees is compared with
//! the plaintext reference, and anything that errs, panics or drifts past
//! the paper's 2⁻⁸ bound counts as failed.

use crate::programs::Bindings;
use hecate_ir::interp::rms_error;

/// The paper's output error bound (Table II): RMS error under 2⁻⁸.
pub const RMS_BOUND: f64 = 1.0 / 256.0;

/// Largest RMS error over the named outputs; infinite when an output is
/// missing, too short or not a number, so a malformed reply can never pass.
pub fn output_error(reference: &Bindings, outputs: &Bindings) -> f64 {
    reference
        .iter()
        .map(|(name, want)| match outputs.get(name) {
            Some(got) if got.len() >= want.len() => rms_error(want, &got[..want.len()]),
            _ => f64::INFINITY,
        })
        // `f64::max` drops a NaN operand; a NaN error must fail, not vanish.
        .fold(0.0, |worst, e| {
            if e.is_nan() {
                f64::INFINITY
            } else {
                worst.max(e)
            }
        })
}

/// Operations attempted and failed in one workload run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Largest output error among the operations that replied.
    pub worst_rms: f64,
}

impl Tally {
    /// Counts one operation: `Ok(outputs)` is checked against `reference`
    /// under `bound`; `Err(why)` (typed error or panic) fails outright.
    pub fn record(
        &mut self,
        what: &str,
        reference: &Bindings,
        result: Result<&Bindings, String>,
        bound: f64,
    ) {
        self.attempted += 1;
        match result {
            Ok(outputs) => {
                let err = output_error(reference, outputs);
                self.worst_rms = self.worst_rms.max(err);
                if err > bound {
                    self.failed += 1;
                    eprintln!("FAILED {what}: output rms error {err:e} exceeds {bound:e}");
                }
            }
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.worst_rms = self.worst_rms.max(other.worst_rms);
    }
}

/// Runs `f`, turning a panic into a failure message.
pub fn catching<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panic: {}",
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".into())
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(name: &str, v: Vec<f64>) -> Bindings {
        [(name.to_string(), v)].into_iter().collect()
    }

    #[test]
    fn gate_counts_drift_errors_panics_and_short_replies() {
        let reference = bind("y", vec![1.0, 2.0]);
        let mut t = Tally::default();
        t.record(
            "ok",
            &reference,
            Ok(&bind("y", vec![1.001, 2.0, 9.0])),
            RMS_BOUND,
        );
        assert_eq!((t.attempted, t.failed), (1, 0));
        t.record(
            "drift",
            &reference,
            Ok(&bind("y", vec![1.1, 2.0])),
            RMS_BOUND,
        );
        t.record("short", &reference, Ok(&bind("y", vec![1.0])), RMS_BOUND);
        t.record(
            "nan",
            &reference,
            Ok(&bind("y", vec![f64::NAN, 2.0])),
            RMS_BOUND,
        );
        t.record(
            "missing",
            &reference,
            Ok(&bind("z", vec![1.0, 2.0])),
            RMS_BOUND,
        );
        t.record("typed", &reference, Err("exec error".into()), RMS_BOUND);
        let panicked = catching::<()>(|| panic!("boom")).unwrap_err();
        assert!(panicked.contains("boom"));
        t.record("panic", &reference, Err(panicked), RMS_BOUND);
        assert_eq!((t.attempted, t.failed), (7, 6));
    }
}
