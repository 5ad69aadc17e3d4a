//! Harness reproducing the paper's evaluation (§VII).
//!
//! This crate reproduces the paper and gates relative invariants; it
//! records no absolute number — those are measured only by `benchmark/`
//! (see DESIGN.md, "One performance ledger"). The binaries regenerate
//! every table and figure:
//!
//! - `fig7` — minimum latency per benchmark per scheme over a waterline
//!   sweep, with speedups over EVA (Fig. 7);
//! - `table2` — RMS error of each chosen configuration (Table II);
//! - `table3` — search-space reduction: uses vs SMUs, naïve vs HECATE
//!   epochs and plan counts (Table III);
//! - `fig8` — estimated vs actual latency over the sweep, with relative
//!   error statistics (Fig. 8);
//! - `oplatency` — per-level operation latency, including the paper's
//!   "level-1 multiplication is 2.25× faster than level 0" observation
//!   (§II-C);
//! - `ablation` — estimated-latency cost of removing each SMU split
//!   phase and the early modswitch.
//!
//! These six accept `--full` for paper-scale shapes and the full
//! 36-point waterline sweep; the default is a reduced but
//! structure-preserving configuration that runs on a laptop. The seventh
//! binary, `perf_smoke`, is the CI gate: the `f64::to_bits` identity
//! matrix plus the machine-independent in-process ratios.

use hecate_apps::{Benchmark, Preset};
use hecate_backend::exec::{execute_encrypted, BackendOptions, ExecError};
use hecate_backend::{max_rms_error, rms_error, simulate};
use hecate_compiler::{compile, CompileOptions, CompiledProgram, CostModel, Scheme};
use hecate_ir::interp::interpret;

/// Harness configuration shared by the binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Benchmark shapes.
    pub preset: Preset,
    /// Ring degree for execution (overrides security-selected degrees so
    /// reduced runs stay fast; the shape of the comparison is
    /// degree-independent).
    pub degree: usize,
    /// Waterlines to sweep.
    pub waterlines: Vec<f64>,
    /// Maximum accepted RMS error (the paper uses 2^-8).
    pub error_bound: f64,
    /// Cost model for compilation-time estimates.
    pub cost_model: CostModel,
}

impl HarnessConfig {
    /// The reduced default: small shapes, 6 waterlines, degree 512.
    pub fn quick() -> Self {
        HarnessConfig {
            preset: Preset::Small,
            degree: 512,
            waterlines: vec![18.0, 22.0, 26.0, 30.0, 36.0, 42.0],
            error_bound: 2f64.powi(-8),
            cost_model: CostModel::Analytic,
        }
    }

    /// The paper-scale configuration: full shapes and the 36-point sweep.
    pub fn full() -> Self {
        HarnessConfig {
            preset: Preset::Paper,
            degree: 8192,
            waterlines: hecate_compiler::default_waterlines(),
            error_bound: 2f64.powi(-8),
            cost_model: CostModel::Analytic,
        }
    }

    /// Parses a paper bin's arguments (program name already stripped):
    /// `--full` picks the paper-scale preset, and `--naive-budget N`
    /// overwrites `naive_budget` in the one bin (`table3`) that passes it.
    ///
    /// # Errors
    /// Names the first argument that is unknown or malformed, so a typo
    /// like `--ful` cannot run the quick preset under a paper heading.
    pub fn parse(args: &[String], mut naive_budget: Option<&mut usize>) -> Result<Self, String> {
        let mut full = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match (arg.as_str(), naive_budget.as_deref_mut()) {
                ("--full", _) => full = true,
                ("--naive-budget", Some(budget)) => {
                    *budget = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--naive-budget needs a plan count")?;
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(if full { Self::full() } else { Self::quick() })
    }

    /// [`HarnessConfig::parse`] over the process arguments; on a bad
    /// argument prints the error and a usage line, and exits 2.
    pub fn from_args(naive_budget: Option<&mut usize>) -> Self {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let flags = match naive_budget {
            Some(_) => "[--full] [--naive-budget N]",
            None => "[--full]",
        };
        Self::parse(&args.collect::<Vec<_>>(), naive_budget).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {bin} {flags}");
            std::process::exit(2)
        })
    }

    /// Compile options at one waterline.
    pub fn compile_opts(&self, waterline: f64) -> CompileOptions {
        let mut o = CompileOptions::with_waterline(waterline);
        o.degree = Some(self.degree);
        o.cost_model = self.cost_model.clone();
        o
    }

    /// The ring degree a benchmark actually runs at: the configured degree,
    /// raised if the benchmark's packed vector needs more slots (paper-shape
    /// regressions use 16384 slots).
    pub fn effective_degree(&self, bench: &Benchmark) -> usize {
        self.degree.max(2 * bench.func.vec_size)
    }
}

/// The outcome of the waterline sweep for one (benchmark, scheme) pair.
#[derive(Debug)]
pub struct SweepResult {
    /// The scheme.
    pub scheme: Scheme,
    /// The waterline that minimized estimated latency within the error
    /// bound.
    pub best_waterline: f64,
    /// The winning compiled program.
    pub program: CompiledProgram,
    /// Estimated latency of the winner (µs).
    pub estimated_us: f64,
    /// Simulated RMS error of the winner.
    pub simulated_rmse: f64,
}

/// Sweeps waterlines for one scheme, filtering by the simulated error
/// bound and picking the fastest estimate — the paper's §VII-B procedure.
///
/// Returns `None` if no waterline is feasible.
pub fn sweep(bench: &Benchmark, scheme: Scheme, cfg: &HarnessConfig) -> Option<SweepResult> {
    let degree = cfg.effective_degree(bench);
    let mut best: Option<SweepResult> = None;
    for &w in &cfg.waterlines {
        let mut opts = cfg.compile_opts(w);
        opts.degree = Some(degree);
        let Ok(prog) = compile(&bench.func, scheme, &opts) else {
            continue;
        };
        let sim = simulate(&prog, &bench.inputs, degree);
        let rmse = max_rms_error(&sim);
        if rmse > cfg.error_bound {
            continue;
        }
        let est = prog.stats.estimated_latency_us;
        if best.as_ref().map(|b| est < b.estimated_us).unwrap_or(true) {
            best = Some(SweepResult {
                scheme,
                best_waterline: w,
                program: prog,
                estimated_us: est,
                simulated_rmse: rmse,
            });
        }
    }
    best
}

/// A measured run of a chosen configuration.
#[derive(Debug)]
pub struct MeasuredResult {
    /// Measured homomorphic latency (µs).
    pub measured_us: f64,
    /// Measured RMS error against the plaintext reference.
    pub measured_rmse: f64,
}

/// Why a sweep winner could not be measured. Distinct from "no waterline
/// met the error bound", which [`run_benchmark`] reports as `None`.
#[derive(Debug)]
pub struct MeasureError {
    /// Benchmark name.
    pub bench: String,
    /// Scheme whose winner was running.
    pub scheme: Scheme,
    /// What went wrong.
    pub cause: MeasureFailure,
}

/// The two ways [`measure`] fails.
#[derive(Debug)]
pub enum MeasureFailure {
    /// The encrypted run failed.
    Exec(ExecError),
    /// The encrypted run produced this output but the plaintext
    /// interpreter did not, so there is nothing to compare it against.
    MissingReference(String),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}: ", self.bench, self.scheme)?;
        match &self.cause {
            MeasureFailure::Exec(e) => write!(f, "encrypted run failed: {e}"),
            MeasureFailure::MissingReference(output) => {
                write!(f, "no plaintext reference for output '{output}'")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// Executes the winner of a sweep under encryption and measures latency
/// and error.
///
/// # Errors
/// Backend execution failures, and outputs with no plaintext reference.
pub fn measure(
    bench: &Benchmark,
    result: &SweepResult,
    cfg: &HarnessConfig,
) -> Result<MeasuredResult, MeasureError> {
    let opts = BackendOptions {
        degree_override: Some(cfg.effective_degree(bench)),
        seed: 99,
        ..BackendOptions::default()
    };
    let fail = |cause| MeasureError {
        bench: bench.name.clone(),
        scheme: result.scheme,
        cause,
    };
    let run = execute_encrypted(&result.program, &bench.inputs, &opts)
        .map_err(|e| fail(MeasureFailure::Exec(e)))?;
    let reference =
        interpret(&bench.func, &bench.inputs).expect("the encrypted run bound every input");
    let mut worst = 0.0f64;
    for (name, v) in &run.outputs {
        let want = reference
            .get(name)
            .ok_or_else(|| fail(MeasureFailure::MissingReference(name.clone())))?;
        worst = worst.max(rms_error(v, want));
    }
    Ok(MeasuredResult {
        measured_us: run.total_us,
        measured_rmse: worst,
    })
}

/// Runs the full Fig.-7 procedure for one benchmark: sweep every scheme,
/// then measure each winner. `None` means no waterline met the error
/// bound for that scheme.
///
/// # Errors
/// The first winner that failed to execute — never folded into `None`.
pub fn run_benchmark(
    bench: &Benchmark,
    cfg: &HarnessConfig,
) -> Result<Vec<(Scheme, Option<MeasuredResult>)>, MeasureError> {
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let winner = sweep(bench, scheme, cfg);
            let measured = winner.map(|s| measure(bench, &s, cfg)).transpose()?;
            Ok((scheme, measured))
        })
        .collect()
}

/// One Fig.-8 cell: compiles `bench` under `scheme` at `waterline` and
/// times it under encryption, returning `(estimated µs, actual µs)`.
/// `None` means no feasible parameters at this waterline — the only skip.
/// The actual time is the faster of two runs: that strips scheduler noise
/// the paper's long SEAL kernels do not suffer from at our tiny
/// reduced-scale op durations.
///
/// # Errors
/// A failed encrypted run — never folded into `None`, so it cannot vanish
/// from the geomean.
pub fn estimate_vs_actual(
    bench: &Benchmark,
    scheme: Scheme,
    waterline: f64,
    cfg: &HarnessConfig,
    backend: &BackendOptions,
) -> Result<Option<(f64, f64)>, MeasureError> {
    let Ok(prog) = compile(&bench.func, scheme, &cfg.compile_opts(waterline)) else {
        return Ok(None);
    };
    let mut actual = f64::INFINITY;
    for _ in 0..2 {
        let run = execute_encrypted(&prog, &bench.inputs, backend).map_err(|e| MeasureError {
            bench: bench.name.clone(),
            scheme,
            cause: MeasureFailure::Exec(e),
        })?;
        actual = actual.min(run.total_us);
    }
    Ok(Some((prog.stats.estimated_latency_us, actual)))
}

/// Geometric mean of positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Formats microseconds human-readably.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{us:.0}µs")
    }
}

/// The benchmarks of the harness preset.
pub fn benchmarks(cfg: &HarnessConfig) -> Vec<Benchmark> {
    hecate_apps::all_benchmarks(cfg.preset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_compiler::Scheme;
    use hecate_ir::FunctionBuilder;

    fn tiny_bench() -> Benchmark {
        let mut b = FunctionBuilder::new("tiny", 8);
        let x = b.input_cipher("x");
        let sq = b.square(x);
        let c = b.splat(0.5);
        let y = b.mul(sq, c);
        b.output(y);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert("x".to_string(), vec![0.5; 8]);
        Benchmark {
            name: "tiny".into(),
            func: b.finish(),
            inputs,
        }
    }

    fn tiny_cfg() -> HarnessConfig {
        let mut cfg = HarnessConfig::quick();
        cfg.degree = 128;
        cfg.waterlines = vec![22.0, 28.0];
        cfg
    }

    #[test]
    fn sweep_picks_a_feasible_configuration() {
        let bench = tiny_bench();
        let cfg = tiny_cfg();
        let s = sweep(&bench, Scheme::Hecate, &cfg).expect("feasible waterline");
        assert!(cfg.waterlines.contains(&s.best_waterline));
        assert!(s.simulated_rmse <= cfg.error_bound);
        assert!(s.estimated_us > 0.0);
    }

    #[test]
    fn measure_executes_the_winner() {
        let bench = tiny_bench();
        let cfg = tiny_cfg();
        let s = sweep(&bench, Scheme::Eva, &cfg).unwrap();
        let m = measure(&bench, &s, &cfg).unwrap();
        assert!(m.measured_us > 0.0);
        assert!(m.measured_rmse < 1e-2);
    }

    #[test]
    fn run_benchmark_covers_all_schemes() {
        let bench = tiny_bench();
        let cfg = tiny_cfg();
        let results = run_benchmark(&bench, &cfg).expect("every winner executes");
        assert_eq!(results.len(), 4);
        for (scheme, m) in results {
            assert!(m.is_some(), "{scheme} must produce a measurement");
        }
    }

    /// A failed winner is an error naming its cell, never the `None` that
    /// means "no feasible waterline", and never a panic.
    #[test]
    fn failed_winners_are_errors_not_infeasible_cells() {
        // The simulator truncates an over-long binding, so the sweep still
        // finds winners; the backend refuses to drop user data.
        let mut bench = tiny_bench();
        bench.inputs.insert("x".to_string(), vec![0.5; 9]);
        let err = run_benchmark(&bench, &tiny_cfg()).expect_err("backend rejects the input");
        assert_eq!((err.bench.as_str(), err.scheme), ("tiny", Scheme::Eva));
        let MeasureFailure::Exec(ExecError::InputTooLong { .. }) = err.cause else {
            panic!("{err}");
        };

        // A reference function that names its output differently from the
        // compiled winner's `out0`.
        let cfg = tiny_cfg();
        let winner = sweep(&tiny_bench(), Scheme::Hecate, &cfg).unwrap();
        let mut b = FunctionBuilder::new("renamed", 8);
        let x = b.input_cipher("x");
        b.output_named("y", x);
        let renamed = Benchmark {
            func: b.finish(),
            ..tiny_bench()
        };
        let err = measure(&renamed, &winner, &cfg).unwrap_err();
        assert!(err
            .to_string()
            .contains("no plaintext reference for output 'out0'"));
    }

    /// A Fig.-8 cell whose encrypted run fails is an error naming the
    /// cell; only an infeasible waterline is a skip.
    #[test]
    fn a_failed_fig8_cell_surfaces_instead_of_leaving_the_geomean() {
        use hecate_backend::FaultPlan;
        let (bench, cfg) = (tiny_bench(), tiny_cfg());
        let mut backend = BackendOptions {
            degree_override: Some(cfg.degree),
            ..BackendOptions::default()
        };
        let cell = |w, backend: &BackendOptions| {
            estimate_vs_actual(&bench, Scheme::Hecate, w, &cfg, backend)
        };
        let (est, act) = cell(22.0, &backend).unwrap().expect("feasible");
        assert!(est > 0.0 && act > 0.0);
        assert!(cell(4000.0, &backend).unwrap().is_none(), "no parameters");

        backend.fault = Some(FaultPlan::SkipRelin);
        let err = cell(22.0, &backend).expect_err("the injected fault surfaces");
        assert_eq!((err.bench.as_str(), err.scheme), ("tiny", Scheme::Hecate));
        assert!(matches!(err.cause, MeasureFailure::Exec(_)), "{err}");
    }

    #[test]
    fn parse_rejects_unknown_arguments() {
        let parse = |args: &[&str], budget: Option<&mut usize>| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            HarnessConfig::parse(&args, budget).map(|cfg| cfg.preset)
        };
        assert_eq!(parse(&[], None), Ok(Preset::Small));
        assert_eq!(parse(&["--full"], None), Ok(Preset::Paper));
        assert!(parse(&["--ful"], None).unwrap_err().contains("--ful"));

        // `--naive-budget` exists only for the bin that passes a budget.
        let mut budget = 1500;
        let args = ["--naive-budget", "40", "--full"];
        assert!(parse(&args, None).is_err());
        assert_eq!(parse(&args, Some(&mut budget)), Ok(Preset::Paper));
        assert_eq!(budget, 40);
        assert!(parse(&["--naive-budget"], Some(&mut budget)).is_err());
        assert!(parse(&["--naive-budget", "x"], Some(&mut budget)).is_err());
    }

    /// The reproduce tables cannot drift from the manifest: README and
    /// DESIGN name every bin target as `--bin <name>` and name no
    /// `-p hecate-bench --bin <name>` that does not exist.
    #[test]
    fn documented_bins_match_the_manifest() {
        // Bins are auto-discovered under src/bin; a declared target could
        // point elsewhere and escape the listing below.
        let manifest = include_str!("../Cargo.toml");
        for section in ["[[bin]]", "[[bench]]", "[dev-dependencies]"] {
            assert!(!manifest.contains(section), "{section} in Cargo.toml");
        }
        let bins: Vec<String> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .expect("src/bin exists")
            .map(|e| e.expect("readable entry").path())
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(bins.len(), 7, "{bins:?}");
        for (file, doc) in [
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ] {
            for bin in &bins {
                assert!(doc.contains(&format!("--bin {bin}")), "{file} omits {bin}");
            }
            for rest in doc.split("-p hecate-bench --bin ").skip(1) {
                let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
                let named = rest.split(|c| !word(c)).next().unwrap();
                assert!(bins.iter().any(|b| b == named), "{file} names {named}");
            }
        }
    }

    #[test]
    fn geomean_and_formatting() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert_eq!(fmt_us(500.0), "500µs");
        assert_eq!(fmt_us(2_500.0), "2.5ms");
        assert_eq!(fmt_us(3_200_000.0), "3.20s");
    }

    #[test]
    fn harness_presets() {
        assert_eq!(HarnessConfig::quick().waterlines.len(), 6);
        assert_eq!(HarnessConfig::full().waterlines.len(), 36);
    }
}
