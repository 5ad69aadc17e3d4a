//! Audited encrypted execution: predicted vs *measured* precision and
//! time, per op.
//!
//! `hecatec --explain` prints this report. An audited run executes the
//! program twice:
//!
//! 1. in the plaintext reference semantics ([`simulate_ops`]), which
//!    yields every operation's noiseless value *and* its simulated
//!    decoded-domain RMS noise;
//! 2. under real RNS-CKKS encryption, with a per-op observer that
//!    decrypt-probes selected intermediate ciphertexts (plus every
//!    program output) and measures the actual RMS error of each tenant's
//!    demultiplexed slots against the reference value.
//!
//! The result is an [`AuditReport`]: one [`AuditRow`] per executed cipher
//! operation joining the run ledger's prediction (noise, waterline
//! margin) and the estimator's price of the op's lowering with the
//! measured error where a probe ran and the op's measured time.
//! [`AuditReport::violations`] turns it into a pass/fail verdict — a
//! measured error far above prediction means the noise model (or the
//! plan) is lying; a negative margin means the plan no longer honors the
//! waterline that guarantees output accuracy.
//!
//! Probing is read-only (CKKS decryption never mutates a ciphertext) and
//! the ledger never touches ciphertext bits, so an audited run produces
//! bit-identical outputs to an unaudited one — asserted in this module's
//! tests via `f64::to_bits`.

use crate::exec::{execute, BackendOptions, ExecEngine, ExecError, OpValue};
use crate::noise::simulate_ops;
use hecate_compiler::{CompiledProgram, CostModel};
use hecate_telemetry::trace;
use std::collections::HashMap;
use std::sync::Arc;

/// Audit configuration.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Number of *intermediate* cipher operations to decrypt-probe, spread
    /// evenly across the program (outputs are always probed). `0` probes
    /// outputs only.
    pub checkpoints: usize,
    /// A probe violates when its measured RMS error exceeds
    /// `factor × max(predicted, floor)`.
    pub factor: f64,
    /// Absolute error floor below which a probe never violates — keeps
    /// noise-on-noise ratios at the bottom of the error scale from
    /// flagging (both predicted and measured ~1e-12, ratio meaningless).
    pub floor: f64,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            checkpoints: 4,
            factor: 10.0,
            floor: 1e-7,
        }
    }
}

/// One audited cipher operation: the ledger's, the simulator's and the
/// estimator's predictions joined with the op's measured time and the
/// probe's measured error (where one ran).
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// Operation index.
    pub op: usize,
    /// Operation mnemonic.
    pub mnemonic: &'static str,
    /// Rescaling level of the result.
    pub level: usize,
    /// Declared scale, log2 bits.
    pub scale_bits: f64,
    /// The run ledger's predicted decoded-domain RMS error.
    pub predicted_rms: f64,
    /// The simulator's predicted RMS error: the same noise rule over
    /// this tenant's noiseless message magnitudes ([`simulate_ops`]).
    pub sim_rms: f64,
    /// Measured RMS error vs the plaintext reference, at probed ops.
    pub measured_rms: Option<f64>,
    /// Scale-vs-waterline margin, bits (negative = broken plan).
    pub margin_bits: f64,
    /// Whether this value is a program output.
    pub is_output: bool,
    /// The op's lowered cost categories, as its `exec-op` span labels
    /// them (empty for a free op).
    pub cost_op: String,
    /// Active RNS primes the op's work runs at.
    pub active_primes: usize,
    /// Estimated time: the cost model's price of each lowered category.
    pub est_us: f64,
    /// Measured homomorphic time ([`crate::EncryptedRun::op_us`]).
    pub op_us: f64,
}

/// The result of one audited run.
#[derive(Debug)]
pub struct AuditReport {
    /// One row per executed cipher operation, in execution order.
    pub rows: Vec<AuditRow>,
    /// Decrypted encrypted-run outputs.
    pub outputs: HashMap<String, Vec<f64>>,
    /// Plaintext reference outputs.
    pub reference: HashMap<String, Vec<f64>>,
    /// Tightest waterline margin across the run, bits.
    pub min_margin_bits: f64,
    /// Homomorphic execution time of the encrypted run, microseconds
    /// (probe time excluded — probes run between kernels, untimed).
    pub total_us: f64,
}

/// One audit violation, printable as a diagnostic line.
#[derive(Debug, Clone)]
pub enum AuditViolation {
    /// A probe measured far more error than the model predicted.
    ErrorBound {
        /// Operation index.
        op: usize,
        /// Measured RMS error.
        measured: f64,
        /// Predicted RMS error.
        predicted: f64,
        /// The configured violation factor.
        factor: f64,
    },
    /// An operation's scale sits below the waterline.
    NegativeMargin {
        /// Operation index.
        op: usize,
        /// The (negative) margin in bits.
        margin_bits: f64,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::ErrorBound {
                op,
                measured,
                predicted,
                factor,
            } => write!(
                f,
                "op {op}: measured rms {measured:.3e} exceeds {factor}x predicted {predicted:.3e}"
            ),
            AuditViolation::NegativeMargin { op, margin_bits } => write!(
                f,
                "op {op}: scale sits {:.2} bits BELOW the waterline",
                -margin_bits
            ),
        }
    }
}

impl AuditReport {
    /// Every violation under the given options: probed ops whose measured
    /// error exceeds `factor × max(predicted, floor)`, and every op whose
    /// waterline margin is negative.
    pub fn violations(&self, opts: &AuditOptions) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        for row in &self.rows {
            if row.margin_bits < 0.0 {
                out.push(AuditViolation::NegativeMargin {
                    op: row.op,
                    margin_bits: row.margin_bits,
                });
            }
            if let Some(measured) = row.measured_rms {
                let bound = opts.factor * row.predicted_rms.max(opts.floor);
                if measured > bound {
                    out.push(AuditViolation::ErrorBound {
                        op: row.op,
                        measured,
                        predicted: row.predicted_rms,
                        factor: opts.factor,
                    });
                }
            }
        }
        out
    }

    /// The worst measured/predicted ratio across probed ops (0 when
    /// nothing was probed). Ratios are taken against the floored
    /// prediction, matching [`AuditReport::violations`].
    pub fn worst_ratio(&self, floor: f64) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.measured_rms.map(|m| m / r.predicted_rms.max(floor)))
            .fold(0.0, f64::max)
    }
}

/// Selects which operation indices to decrypt-probe: every output, plus
/// `checkpoints` more cipher ops spread evenly over the rest.
fn probe_set(prog: &CompiledProgram, checkpoints: usize) -> Vec<bool> {
    let n = prog.func.len();
    let mut probe = vec![false; n];
    for (_, v) in prog.func.outputs() {
        probe[v.index()] = true;
    }
    let candidates: Vec<usize> = (0..n)
        .filter(|&i| prog.types[i].is_cipher() && !probe[i])
        .collect();
    if candidates.is_empty() || checkpoints == 0 {
        return probe;
    }
    let k = checkpoints.min(candidates.len());
    for j in 0..k {
        // Evenly spaced picks, biased toward the middle of each stride.
        let idx = (j * candidates.len() + candidates.len() / 2) / k;
        probe[candidates[idx.min(candidates.len() - 1)]] = true;
    }
    probe
}

/// Runs `prog` encrypted with decrypt probes and returns the audit
/// report, pricing ops under `model`: the one-tenant case of
/// [`audit_batched`].
///
/// # Errors
/// Returns [`ExecError`] on any execution failure (the probes themselves
/// cannot fail).
pub fn audit_encrypted(
    prog: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    opts: &BackendOptions,
    audit: &AuditOptions,
    model: &CostModel,
) -> Result<AuditReport, ExecError> {
    let engine = ExecEngine::new(Arc::new(prog.clone()), opts)?;
    let mut reports = audit_batched(&engine, &[inputs], audit, model)?;
    Ok(reports.pop().expect("one report per tenant"))
}

/// Audits one run of `engine`: executes the program once for every
/// tenant (`tenants.len()` must equal the engine's occupancy),
/// decrypt-probing checkpoints and outputs per tenant block, and returns
/// one [`AuditReport`] per tenant. Each row's `est_us` prices the
/// engine's lowering of the op under `model` at the engine's degree.
///
/// Each tenant's measured RMS compares its *demultiplexed* clean copies
/// against its own plaintext reference, so the verdict machinery
/// ([`AuditReport::violations`]) applies unchanged. Predictions come from
/// the shared run ledger, whose noise model bounds message magnitude by
/// the occupancy — packed predictions only grow, keeping the audit
/// one-sided-conservative exactly like the solo model.
///
/// # Errors
/// Returns [`ExecError`] on any execution failure.
pub fn audit_batched(
    engine: &ExecEngine,
    tenants: &[&HashMap<String, Vec<f64>>],
    audit: &AuditOptions,
    model: &CostModel,
) -> Result<Vec<AuditReport>, ExecError> {
    let prog = engine.prog().clone();
    let lowering = engine.lowering();
    let expected: Vec<_> = tenants
        .iter()
        .map(|inputs| simulate_ops(&prog, inputs, engine.degree()))
        .collect();
    let probes = probe_set(&prog, audit.checkpoints);
    let mut per_tenant_rows: Vec<Vec<AuditRow>> = vec![Vec::new(); tenants.len()];

    let mut observer = |i: usize, value: &OpValue, predicted_rms: f64| {
        if !value.is_cipher() {
            return Ok(());
        }
        let ty = prog.types[i];
        let measured: Vec<Option<f64>> = if probes[i] {
            engine
                .demux(value, i, engine.clean_copies(i))
                .iter()
                .enumerate()
                .map(|(t, samples)| {
                    // Every clean copy in the block samples the same
                    // logical value; rms over all of them.
                    let exp = &expected[t][i].values;
                    let sq: f64 = samples
                        .iter()
                        .enumerate()
                        .map(|(k, s)| {
                            let e = s - exp[k % exp.len()];
                            e * e
                        })
                        .sum();
                    let m = (sq / samples.len() as f64).sqrt();
                    trace::mark_with("precision-probe", || {
                        vec![
                            ("i", i.into()),
                            ("op", prog.func.ops()[i].mnemonic().into()),
                            ("tenant", t.into()),
                            ("predicted_rms", predicted_rms.into()),
                            ("measured_rms", m.into()),
                        ]
                    });
                    Some(m)
                })
                .collect()
        } else {
            vec![None; tenants.len()]
        };
        let lowered = &lowering.ops()[i];
        // From +0.0: an empty f64 `sum` is -0.0, which prints as such.
        let est_us = lowered.cost_ops.iter().fold(0.0, |us, &c| {
            us + model.cost_us(c, lowered.active_primes, engine.degree())
        });
        for (t, m) in measured.into_iter().enumerate() {
            per_tenant_rows[t].push(AuditRow {
                op: i,
                mnemonic: prog.func.ops()[i].mnemonic(),
                level: ty.level().unwrap_or(0),
                scale_bits: ty.scale().unwrap_or(0.0),
                predicted_rms,
                sim_rms: expected[t][i].var.sqrt(),
                measured_rms: m,
                margin_bits: ty.scale().unwrap_or(0.0) - prog.cfg.waterline,
                is_output: prog.func.outputs().iter().any(|(_, v)| v.index() == i),
                cost_op: lowered.label(),
                active_primes: lowered.active_primes,
                est_us,
                op_us: 0.0, // the run's, once it returns
            });
        }
        Ok(())
    };

    // One worker: probes run between kernels in SSA order, so the rows
    // come out in program order.
    let runs = execute(engine, tenants, 1, Some(&mut observer), None)?;

    Ok(runs
        .into_iter()
        .zip(per_tenant_rows)
        .zip(&expected)
        .map(|((run, rows), expected)| AuditReport {
            rows: rows
                .into_iter()
                .map(|row| AuditRow {
                    op_us: run.op_us[row.op],
                    ..row
                })
                .collect(),
            outputs: run.outputs,
            reference: prog
                .func
                .outputs()
                .iter()
                .map(|(name, v)| (name.clone(), expected[v.index()].values.clone()))
                .collect(),
            min_margin_bits: run.min_margin_bits,
            total_us: run.total_us,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_encrypted;
    use hecate_compiler::{compile, CompileOptions, Scheme};
    use hecate_ir::FunctionBuilder;

    fn motivating() -> CompiledProgram {
        let mut b = FunctionBuilder::new("motivating", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let z = b.add(x2, y2);
        let z2 = b.mul(z, z);
        let z3 = b.mul(z2, z);
        b.output(z3);
        let mut opts = CompileOptions::with_waterline(25.0);
        opts.degree = Some(256);
        compile(&b.finish(), Scheme::Hecate, &opts).unwrap()
    }

    fn inputs() -> HashMap<String, Vec<f64>> {
        let mut m = HashMap::new();
        m.insert("x".into(), vec![0.5, -0.25, 0.75, 0.1, 0.0, 0.3, -0.6, 0.2]);
        m.insert("y".into(), vec![0.1, 0.6, -0.5, 0.4, 0.9, -0.2, 0.0, 0.8]);
        m
    }

    #[test]
    fn audit_probes_and_reports() {
        let prog = motivating();
        let audit = AuditOptions::default();
        let report = audit_encrypted(
            &prog,
            &inputs(),
            &BackendOptions::default(),
            &audit,
            &CostModel::Analytic,
        )
        .unwrap();
        assert!(!report.rows.is_empty());
        // Every output row was probed.
        for row in report.rows.iter().filter(|r| r.is_output) {
            assert!(row.measured_rms.is_some(), "output op {} unprobed", row.op);
        }
        // Some intermediate row was probed too.
        assert!(
            report
                .rows
                .iter()
                .any(|r| !r.is_output && r.measured_rms.is_some()),
            "no intermediate checkpoint probed"
        );
        // A well-formed plan has non-negative margins and no violations.
        assert!(report.min_margin_bits >= 0.0);
        assert!(
            report.violations(&audit).is_empty(),
            "unexpected violations: {:?}",
            report.violations(&audit)
        );
    }

    #[test]
    fn audited_run_is_bit_identical_to_plain_run() {
        let prog = motivating();
        let plain = execute_encrypted(&prog, &inputs(), &BackendOptions::default()).unwrap();
        let audited = audit_encrypted(
            &prog,
            &inputs(),
            &BackendOptions::default(),
            &AuditOptions {
                checkpoints: 100,
                ..AuditOptions::default()
            },
            &CostModel::Analytic,
        )
        .unwrap();
        for (name, vals) in &plain.outputs {
            let audited_vals = &audited.outputs[name];
            assert_eq!(vals.len(), audited_vals.len());
            for (a, b) in vals.iter().zip(audited_vals) {
                assert_eq!(a.to_bits(), b.to_bits(), "output '{name}' diverged");
            }
        }
    }

    #[test]
    fn batched_audit_passes_per_tenant() {
        let prog = motivating();
        let occupancy = 4usize;
        // width 8, no rotations → block 8, slots 32, degree 64; use a
        // comfortably larger ring.
        let engine = ExecEngine::new(
            Arc::new(prog),
            &BackendOptions {
                degree_override: Some(256),
                batch_occupancy: occupancy,
                ..BackendOptions::default()
            },
        )
        .unwrap();
        let base = inputs();
        let tenants: Vec<HashMap<String, Vec<f64>>> = (0..occupancy)
            .map(|t| {
                base.iter()
                    .map(|(k, v)| {
                        let mut rot = v.clone();
                        let by = t % rot.len();
                        rot.rotate_left(by);
                        (k.clone(), rot)
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&HashMap<String, Vec<f64>>> = tenants.iter().collect();
        let audit = AuditOptions::default();
        let reports = audit_batched(&engine, &refs, &audit, &CostModel::Analytic).unwrap();
        assert_eq!(reports.len(), occupancy);
        for (t, report) in reports.iter().enumerate() {
            assert!(!report.rows.is_empty());
            for row in report.rows.iter().filter(|r| r.is_output) {
                assert!(
                    row.measured_rms.is_some(),
                    "tenant {t} output op {} unprobed",
                    row.op
                );
            }
            assert!(
                report.violations(&audit).is_empty(),
                "tenant {t} violations: {:?}",
                report.violations(&audit)
            );
            // Demuxed outputs really are this tenant's answer, not a
            // shared copy: compare against the tenant's own reference.
            for (name, reference) in &report.reference {
                let got = &report.outputs[name];
                assert!(crate::rms_error(got, reference) < 1e-2, "tenant {t} {name}");
            }
        }
        // Tenants received different answers (inputs were rotated).
        assert_ne!(reports[0].outputs["out0"], reports[1].outputs["out0"]);
    }

    /// The report's time columns are the estimator's and the run's own
    /// numbers, split per op: solo at the compiled degree, the rows'
    /// `est_us` sum to the plan's estimate and their `op_us` to the run's
    /// total.
    #[test]
    fn time_columns_sum_to_the_estimate_and_the_run() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-300);
        let mut cases = vec![("motivating".to_string(), motivating(), inputs())];
        for b in hecate_apps::all_benchmarks(hecate_apps::Preset::Small) {
            if b.name == "SF" || b.name == "MLP" {
                let mut opts = CompileOptions::with_waterline(24.0);
                opts.degree = Some((2 * b.func.vec_size).max(512));
                let prog = compile(&b.func, Scheme::Hecate, &opts).unwrap();
                cases.push((b.name, prog, b.inputs));
            }
        }
        assert_eq!(cases.len(), 3);
        for (name, prog, inputs) in &cases {
            let opts = BackendOptions::default();
            let audit = AuditOptions::default();
            let report =
                audit_encrypted(prog, inputs, &opts, &audit, &CostModel::Analytic).unwrap();
            let est: f64 = report.rows.iter().map(|r| r.est_us).sum();
            let measured: f64 = report.rows.iter().map(|r| r.op_us).sum();
            let want = prog.stats.estimated_latency_us;
            assert!(close(est, want), "{name}: est {est} vs estimate {want}");
            assert!(
                close(measured, report.total_us),
                "{name}: {measured} vs {}",
                report.total_us
            );
            assert!(report.rows.iter().any(|r| r.cost_op == "mul_cc"), "{name}");
        }
    }

    #[test]
    fn under_waterlined_plan_is_flagged() {
        // EVA plans never downscale, so execution reads nothing from
        // cfg.waterline — tampering it changes only what the plan
        // *claims*, which is exactly the drift --explain exists to catch
        // (a stale or hand-edited plan).
        let mut b = FunctionBuilder::new("tampered", 8);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let s = b.add(x2, y2);
        b.output(s);
        let mut opts = CompileOptions::with_waterline(25.0);
        opts.degree = Some(256);
        let mut prog = compile(&b.finish(), Scheme::Eva, &opts).unwrap();
        prog.cfg.waterline += 64.0;
        let audit = AuditOptions::default();
        let report = audit_encrypted(
            &prog,
            &inputs(),
            &BackendOptions::default(),
            &audit,
            &CostModel::Analytic,
        )
        .unwrap();
        assert!(report.min_margin_bits < 0.0);
        let violations = report.violations(&audit);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, AuditViolation::NegativeMargin { .. })),
            "tampered waterline not flagged: {violations:?}"
        );
    }
}
