//! `hecatec` — the HECATE compiler driver.
//!
//! Compiles a textual IR file (see `hecate_ir::parse` for the syntax)
//! under a chosen scale-management scheme and prints the scale-managed
//! program, the selected RNS parameters, and the latency estimate.
//! Optionally executes the result under real encryption with seeded
//! random inputs.
//!
//! ```text
//! usage: hecatec <file.heir>... [options]
//!   --scheme eva|pars|smse|hecate   (default hecate)
//!   --waterline BITS                (default 24)
//!   --sf BITS                       (default 60)
//!   --degree N                      fixed ring degree (default: security-selected)
//!   --run                           execute under encryption with random inputs
//!   --quiet                         suppress the compiled IR listing
//!   --save-plan PATH                write the compiled plan (HECATE-PLAN v1 text)
//!   --load-plan PATH                reuse a saved plan instead of compiling
//!                                   (re-verified against its parameters;
//!                                   warns if it names a different source)
//!   --serve                         serve mode: run all files through hecate-runtime
//!   --jobs N                        serve-mode worker threads (default 2)
//!   --max-batch N                   serve mode: coalesce up to N queued same-plan
//!                                   requests into one packed ciphertext, one slot
//!                                   block per tenant (default 1 = batching off);
//!                                   with --explain: explain a slot-batched run at
//!                                   occupancy N (largest power of two <= N)
//!   --batch-window-us U             serve mode: how long a worker waits for batch
//!                                   partners after dequeuing a request (default 0:
//!                                   only already-queued requests coalesce)
//!   --kernel-jobs N                 per-limb kernel threads inside NTT and
//!                                   key switching (default 1; bit-identical
//!                                   results at any N); serve mode runs up to
//!                                   --jobs x N threads at once
//!   --repeat K                      serve mode: submit each file K times (default 2)
//!   --chaos N                       serve mode: inject a failure into every Nth
//!                                   request (0 disables; kinds rotate per --chaos-kind)
//!   --chaos-kind fault|latency|panic|mix
//!                                   which failure to inject (default mix: rotate
//!                                   through all three)
//!   --chaos-latency-us U            injected latency per latency hit (default 5000)
//!   --chaos-fault SPEC              injected fault plan (default perturb-scale@0:1;
//!                                   syntax: corrupt-limb@AT:LIMB, perturb-scale@AT:BITS,
//!                                   drop-rescale@AT, skip-relin, exhaust-noise@AT)
//!   --deadline-ms D                 serve mode: per-request deadline; expiry in queue
//!                                   or mid-run fails the request as timed out
//!   --queue-cap N                   serve mode: bound on queued requests; a full
//!                                   queue rejects submissions (default 4096)
//!   --admission-budget-ms B         serve mode: shed cached-plan requests whose
//!                                   estimated cost x queue depth exceeds B
//!   --diag-out DIR                  serve mode: write a diagnostics snapshot
//!                                   (diag-NNNNNN.json) to DIR every interval, a
//!                                   final one at shutdown, and a black-box crash
//!                                   dump (blackbox-req{id}.json) for every
//!                                   panicked request
//!   --diag-interval-ms N            period between diagnostics snapshots
//!                                   (default 1000)
//!   --slow-ms MS                    flight recorder: retain the full span tree of
//!                                   any request slower than MS (failures — shed,
//!                                   timed out, guard-failed, panicked — are
//!                                   always retained)
//!   --slo-target-ms MS              latency objective reported as SLO burn
//!                                   (sliding p99 / target) in diagnostics
//!   --trace PATH                    record spans for the whole invocation to PATH
//!   --trace-format jsonl|chrome     trace file format (default chrome; a Chrome
//!                                   trace loads in Perfetto / chrome://tracing)
//!   --metrics PATH                  write Prometheus-text metrics to PATH on exit
//!   --explain                       run encrypted AND in the plaintext reference,
//!                                   decrypt-probe outputs plus four intermediates,
//!                                   print per op predicted vs measured RMS error
//!                                   and time, then time residuals per (cost_op,
//!                                   active primes); exit 6 on any violation
//!   --bench NAME|all                explain a named paper benchmark (Small preset)
//!                                   instead of an input file; `all` explains all 8
//!                                   (it compiles them, so takes no --load-plan)
//!   --max-rms BOUND                 refuse the plan, before any key is generated,
//!                                   when the modeled RMS noise of any value
//!                                   exceeds BOUND
//! ```
//!
//! Serve mode compiles each file once through the content-addressed plan
//! cache, runs every submission under encryption in its own tenant
//! session, and prints per-request latency plus the runtime's stats JSON
//! — a batch-shaped stand-in for a long-running serving deployment.
//!
//! `--trace` and `--metrics` observe *every* mode: the event store is held
//! at its full-trace level before any work starts and the files are
//! written after the run finishes, on success and failure alike, so a
//! failing compile still leaves a trace of how far it got. A JSONL trace
//! carries the noise prediction as `precision` marks and `--explain`'s decrypt
//! probes as `precision-probe` marks.
//!
//! A flag given where it would be ignored is a usage error (see [`FLAGS`]).
//!
//! Exit codes: 0 success; 2 usage error; 3 input unreadable/unparsable
//! (or a trace/metrics file could not be written); 4 compilation failed;
//! 5 encrypted execution failed (a plan over `--max-rms` is refused before
//! it runs); 6 audit violation under `--explain` (measured error above the
//! predicted bound or a negative waterline margin).

use hecate::backend::exec::execute_encrypted;
use hecate::backend::{AuditOptions, AuditReport, FaultPlan};
use hecate::compiler::{
    compile, deserialize_plan, serialize_plan, CompileOptions, CompiledProgram, Scheme,
};
use hecate::ir::hash::function_hash;
use hecate::ir::parse::parse_function;
use hecate::ir::print::print_function;
use hecate::ir::Function;
use hecate::math::rng::Xoshiro256;
use hecate::runtime::{
    ChaosKind, ChaosOptions, DiagOptions, Request, Runtime, RuntimeConfig, RuntimeError,
};
use hecate::telemetry::recorder::{self, Level};
use hecate::telemetry::{export, trace, Event};
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

// The contexts a flag can be valid in, as bits so it can name a set:
// exactly one of the four modes is live, and each of the last three is
// live when the flag that other flags modify was given.
/// Compile one file and print the plan: no mode flag given.
const PLAIN: u8 = 1;
const RUN: u8 = 2;
const SERVE: u8 = 4;
const EXPLAIN: u8 = 8;
const TRACE: u8 = 16;
const CHAOS: u8 = 32;
const DIAG: u8 = 64;
const ALL: u8 = PLAIN | RUN | SERVE | EXPLAIN;
/// The modes that execute under encryption.
const EXEC: u8 = RUN | SERVE | EXPLAIN;
/// The modes that take their plan from `obtain_plan`.
const PLANNED: u8 = PLAIN | RUN | EXPLAIN;
/// The flag that makes each context live, in the order errors list them.
const CONTEXTS: [(&str, u8); 7] = [
    ("a plain compile", PLAIN),
    ("--run", RUN),
    ("--serve", SERVE),
    ("--explain", EXPLAIN),
    ("--trace", TRACE),
    ("--chaos", CHAOS),
    ("--diag-out", DIAG),
];

/// Everything the command line configures. Flags write straight into the
/// option structs the libraries take; only what the driver itself
/// consumes has a field of its own.
struct Cli {
    files: Vec<String>,
    /// The live contexts (see [`PLAIN`]).
    live: u8,
    scheme: Scheme,
    compile: CompileOptions,
    /// `runtime.backend` is the backend configuration of every mode.
    runtime: RuntimeConfig,
    bench: Option<String>,
    /// Serve mode's request shape: submissions per file, and each
    /// request's deadline.
    repeat: usize,
    deadline: Option<Duration>,
    quiet: bool,
    save_plan: Option<String>,
    load_plan: Option<String>,
    trace: Option<String>,
    trace_format: fn(&[Event]) -> String,
    metrics: Option<String>,
}

impl Cli {
    fn new() -> Cli {
        Cli {
            files: Vec::new(),
            live: PLAIN,
            scheme: Scheme::Hecate,
            compile: CompileOptions::with_waterline(24.0),
            runtime: RuntimeConfig::default(),
            bench: None,
            repeat: 2,
            deadline: None,
            quiet: false,
            save_plan: None,
            load_plan: None,
            trace: None,
            trace_format: export::chrome_trace,
            metrics: None,
        }
    }

    /// The one live mode.
    fn mode(&self) -> u8 {
        self.live & ALL
    }

    fn chaos(&mut self) -> &mut ChaosOptions {
        self.runtime.chaos.get_or_insert_with(ChaosOptions::default)
    }

    fn diag(&mut self) -> &mut DiagOptions {
        self.runtime.diag.get_or_insert_with(|| DiagOptions {
            dir: Default::default(),
            interval: Duration::from_millis(1000),
        })
    }
}

/// One command-line flag: its value placeholder (empty = takes none),
/// the contexts it is valid in, and the setter that parses the value into
/// the struct it configures. A setter's empty error means "bad value".
struct Flag {
    name: &'static str,
    value: &'static str,
    contexts: u8,
    set: fn(&mut Cli, &str) -> Result<(), String>,
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| String::new())
}

fn at_least<T: FromStr + PartialOrd>(min: T, v: &str) -> Result<T, String> {
    num(v).and_then(|n: T| if n >= min { Ok(n) } else { Err(String::new()) })
}

fn above_zero(v: &str) -> Result<f64, String> {
    num(v).and_then(|x: f64| if x > 0.0 { Ok(x) } else { Err(String::new()) })
}

/// Builds [`FLAGS`], the one list of flags: a row is the flag's name, its
/// value placeholder, its contexts, and the statement that parses the
/// value `v` into place on the [`Cli`] `c`.
macro_rules! flags {
    ($($name:literal $value:literal $contexts:expr => |$c:ident, $v:ident| $set:expr;)*) => {
        const FLAGS: &[Flag] = &[$(Flag {
            name: $name,
            value: $value,
            contexts: $contexts,
            set: |$c, $v| {
                $set;
                Ok(())
            },
        }),*];
    };
}

flags! {
    "--scheme" "eva|pars|smse|hecate" ALL => |c, v| c.scheme = match v {
        "eva" => Scheme::Eva,
        "pars" => Scheme::Pars,
        "smse" => Scheme::Smse,
        "hecate" => Scheme::Hecate,
        other => return Err(format!("unknown scheme '{other}'")),
    };
    "--waterline" "BITS" ALL => |c, v| c.compile.waterline_bits = num(v)?;
    "--sf" "BITS" ALL => |c, v| c.compile.sf_bits = num(v)?;
    "--degree" "N" ALL => |c, v| c.compile.degree = Some(num(v)?);
    "--run" "" ALL => |_c, _v| {};
    "--quiet" "" ALL => |c, _v| c.quiet = true;
    "--save-plan" "PATH" PLAIN | RUN => |c, v| c.save_plan = Some(v.into());
    "--load-plan" "PATH" PLANNED => |c, v| c.load_plan = Some(v.into());
    "--serve" "" ALL => |_c, _v| {};
    "--jobs" "N" SERVE => |c, v| c.runtime.workers = at_least(1, v)?;
    "--max-batch" "N" SERVE | EXPLAIN => |c, v| c.runtime.max_batch = at_least(1, v)?;
    "--batch-window-us" "U" SERVE => |c, v|
        c.runtime.batch_window = Duration::from_micros(num(v)?);
    "--kernel-jobs" "N" EXEC => |c, v| c.runtime.backend.kernel_jobs = at_least(1, v)?;
    "--repeat" "K" SERVE => |c, v| c.repeat = at_least(1, v)?;
    "--trace" "PATH" ALL => |c, v| c.trace = Some(v.into());
    "--trace-format" "jsonl|chrome" TRACE => |c, v| c.trace_format = match v {
        "jsonl" => export::jsonl,
        "chrome" => export::chrome_trace,
        other => return Err(format!("unknown format '{other}'")),
    };
    "--metrics" "PATH" ALL => |c, v| c.metrics = Some(v.into());
    "--explain" "" ALL => |_c, _v| {};
    "--bench" "NAME|all" EXPLAIN => |c, v| c.bench = Some(v.into());
    "--max-rms" "BOUND" EXEC => |c, v| c.runtime.backend.guard.max_rms = Some(above_zero(v)?);
    "--chaos" "N" SERVE => |c, v| c.chaos().every_nth = num(v)?;
    "--chaos-kind" "fault|latency|panic|mix" CHAOS => |c, v| if v != "mix" {
        c.chaos().mix = vec![ChaosKind::parse(v)?];
    };
    "--chaos-latency-us" "U" CHAOS => |c, v| c.chaos().latency = Duration::from_micros(num(v)?);
    "--chaos-fault" "SPEC" CHAOS => |c, v| c.chaos().fault = FaultPlan::parse(v)?;
    "--deadline-ms" "D" SERVE => |c, v| c.deadline = Some(Duration::from_millis(num(v)?));
    "--queue-cap" "N" SERVE => |c, v| c.runtime.queue_capacity = at_least(1, v)?;
    "--admission-budget-ms" "B" SERVE => |c, v|
        c.runtime.admission_budget_us = Some(above_zero(v)? * 1e3);
    "--diag-out" "DIR" SERVE => |c, v| c.diag().dir = v.into();
    "--diag-interval-ms" "N" DIAG => |c, v|
        c.diag().interval = Duration::from_millis(at_least(1, v)?);
    "--slow-ms" "MS" SERVE => |c, v|
        c.runtime.slow_threshold = Some(Duration::from_secs_f64(at_least(0.0, v)? / 1e3));
    "--slo-target-ms" "MS" SERVE => |c, v| c.runtime.slo_target_us = Some(above_zero(v)? * 1e3);
}

/// The contexts in `set`, spelled as the flags that make them live.
fn context_names(set: u8) -> String {
    let live = CONTEXTS.iter().filter(|(_, bit)| set & bit != 0);
    let names: Vec<&str> = live.map(|(name, _)| *name).collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

fn usage() -> String {
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|f| match f.value {
            "" => format!("[{}]", f.name),
            value => format!("[{} {value}]", f.name),
        })
        .collect();
    format!("usage: hecatec <file.heir>... {}", flags.join(" "))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::new();
    let mut seen: Vec<&Flag> = Vec::new();
    while let Some(a) = args.next() {
        if !a.starts_with('-') {
            cli.files.push(a);
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == a)
            .ok_or_else(|| format!("unknown argument '{a}'"))?;
        let value = match flag.value {
            "" => String::new(),
            _ => args.next().ok_or_else(|| format!("bad {a}"))?,
        };
        (flag.set)(&mut cli, &value).map_err(|why| match why.as_str() {
            "" => format!("bad {a}"),
            why => format!("bad {a}: {why}"),
        })?;
        seen.push(flag);
    }
    // A context goes live when its flag was given; with no mode flag the
    // mode is a plain compile. Checked once everything is parsed, so flag
    // order never matters.
    let given = CONTEXTS
        .iter()
        .filter(|(name, _)| seen.iter().any(|f| f.name == *name));
    cli.live = given.fold(0, |live, (_, bit)| live | bit);
    match cli.mode().count_ones() {
        0 => cli.live |= PLAIN,
        1 => {}
        _ => return Err(format!("choose one of {}", context_names(cli.mode()))),
    }
    if let Some(flag) = seen.iter().find(|f| f.contexts & cli.live == 0) {
        let needs = context_names(flag.contexts);
        return Err(format!("{} requires {needs}", flag.name));
    }
    match (&cli.bench, &cli.load_plan) {
        (Some(_), Some(_)) => return Err("--bench compiles its programs: no --load-plan".into()),
        (Some(_), None) if !cli.files.is_empty() => {
            return Err("--bench takes no input files".into())
        }
        (None, _) if cli.files.is_empty() => return Err("no input file".into()),
        _ => {}
    }
    if cli.mode() != SERVE && cli.files.len() > 1 {
        return Err("multiple input files require --serve".into());
    }
    Ok(cli)
}

/// Deterministic random inputs for every `input` of a function.
fn synth_inputs(func: &Function, seed: u64) -> HashMap<String, Vec<f64>> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut inputs: HashMap<String, Vec<f64>> = HashMap::new();
    for op in func.ops() {
        if let hecate::ir::Op::Input { name } = op {
            inputs.entry(name.clone()).or_insert_with(|| {
                (0..func.vec_size)
                    .map(|_| rng.next_range_f64(-1.0, 1.0))
                    .collect()
            });
        }
    }
    inputs
}

fn load_functions(files: &[String]) -> Result<Vec<(String, Function)>, String> {
    files
        .iter()
        .map(|file| {
            let src =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let func = parse_function(&src).map_err(|e| format!("{file}: {e}"))?;
            Ok((file.clone(), func))
        })
        .collect()
}

/// Batch serving: every file becomes a tenant session; each program is
/// submitted `repeat` times, so all but the first submission of a given
/// program hit the plan cache. On return, `metrics_extra` holds the
/// runtime's own counters in Prometheus text form (appended to the
/// `--metrics` file, which otherwise only sees the process-global
/// registry).
fn serve(cli: &Cli, funcs: &[(String, Function)], metrics_extra: &mut String) -> u8 {
    let rt = Runtime::new(cli.runtime.clone());
    let mut reqs = Vec::new();
    let mut labels = Vec::new();
    for (k, (file, func)) in funcs.iter().enumerate() {
        let session = rt.open_session();
        let inputs = synth_inputs(func, 1 + k as u64);
        for round in 0..cli.repeat {
            labels.push(format!("{file}#{round}"));
            reqs.push(Request {
                session,
                func: func.clone(),
                scheme: cli.scheme,
                options: cli.compile.clone(),
                inputs: inputs.clone(),
                deadline: cli.deadline,
                max_retries: 0,
            });
        }
    }
    println!(
        "serving {} request(s) over {} file(s) with {} worker(s)",
        reqs.len(),
        funcs.len(),
        cli.runtime.workers
    );
    if let Some(chaos) = cli.runtime.chaos.as_ref().filter(|c| c.every_nth > 0) {
        let kind = match chaos.mix.as_slice() {
            [kind] => format!("{kind:?}").to_lowercase(),
            _ => "mix".to_string(),
        };
        println!(
            "chaos: injecting {kind} into every {}th request",
            chaos.every_nth
        );
    }
    if cli.runtime.max_batch > 1 {
        println!(
            "batching: up to {} same-plan request(s) per packed ciphertext (window {}µs)",
            cli.runtime.max_batch,
            cli.runtime.batch_window.as_micros()
        );
    }
    if let Some(diag) = &cli.runtime.diag {
        println!(
            "diagnostics: snapshots every {}ms to {} (black-box dumps on panic)",
            diag.interval.as_millis(),
            diag.dir.display()
        );
    }
    let results = rt.run_batch(reqs);
    let mut code = 0u8;
    for (label, result) in labels.iter().zip(&results) {
        match result {
            Ok(resp) => println!(
                "  {label}: {} in {:.1}ms (exec {:.1}ms, plan {:016x})",
                if resp.cache_hit {
                    "cache hit "
                } else {
                    "compiled  "
                },
                resp.latency_us / 1e3,
                resp.run.total_us / 1e3,
                resp.plan_key
            ),
            Err(e) => {
                eprintln!("  {label}: FAILED: {e}");
                code = match e {
                    RuntimeError::Compile(_) => 4,
                    _ => 5,
                };
            }
        }
    }
    println!("stats: {}", rt.stats().to_json());
    *metrics_extra = rt.metrics_prometheus();
    rt.shutdown();
    code
}

fn obtain_plan(cli: &Cli, func: &Function, opts: &CompileOptions) -> Result<CompiledProgram, u8> {
    if let Some(path) = &cli.load_plan {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("hecatec: cannot read {path}: {e}");
            3
        })?;
        // The loader verifies the plan on its own chain, so a stale or
        // hand-edited file cannot execute an inconsistent program.
        let prog = deserialize_plan(&text).map_err(|e| {
            eprintln!("hecatec: {path}: {e}");
            3
        })?;
        if prog.source_hash != function_hash(func) {
            eprintln!(
                "hecatec: warning: {path} was compiled from a different source program \
                 (plan source hash {:016x}, input hash {:016x}); executing the plan as saved",
                prog.source_hash,
                function_hash(func)
            );
        }
        return Ok(prog);
    }
    compile(func, cli.scheme, opts).map_err(|e| {
        eprintln!("hecatec: compilation failed: {e}");
        4
    })
}

/// Explain mode: one audited run per program (files, or `--bench
/// NAME|all` at the Small preset), each plan from `obtain_plan` and
/// priced under the cost model it is compiled with; see [`print_report`].
/// Returns 6 when any probe's measured error exceeds 10× its prediction
/// or any waterline margin is negative.
fn explain(cli: &Cli, funcs: &[(String, Function)]) -> u8 {
    use hecate::backend::{audit_batched, ExecEngine, ExecError};
    let opts = &cli.compile;

    /// One program to explain: its label, function, inputs (`None`: seeded
    /// random, one seed per tenant) and compile options.
    type Case = (
        String,
        Function,
        Option<HashMap<String, Vec<f64>>>,
        CompileOptions,
    );
    let mut cases: Vec<Case> = Vec::new();
    if let Some(sel) = &cli.bench {
        let benches = hecate::apps::all_benchmarks(hecate::apps::Preset::Small);
        let names: Vec<String> = benches.iter().map(|b| b.name.clone()).collect();
        let selected: Vec<_> = benches
            .into_iter()
            .filter(|b| sel == "all" || b.name == *sel)
            .collect();
        if selected.is_empty() {
            eprintln!(
                "hecatec: unknown benchmark '{sel}' (have: {})",
                names.join(", ")
            );
            return 2;
        }
        for b in selected {
            let mut bopts = opts.clone();
            bopts.degree = Some(opts.degree.unwrap_or((2 * b.func.vec_size).max(512)));
            cases.push((b.name, b.func, Some(b.inputs), bopts));
        }
    } else {
        for (file, func) in funcs {
            cases.push((file.clone(), func.clone(), None, opts.clone()));
        }
    }

    let audit_opts = &AuditOptions::default();
    let mut violation_count = 0usize;
    let mut ln_ratios = Vec::new();
    for (label, func, inputs, copts) in &cases {
        let prog = match obtain_plan(cli, func, copts) {
            Ok(p) => Arc::new(p),
            Err(code) => return code,
        };
        // With --max-batch N, explain one slot-batched run at the largest
        // power-of-two occupancy <= N (the packed layout needs a power of
        // two). An infeasible footprint degrades to a solo run, mirroring
        // the serving scheduler.
        let engine_at = |occupancy| {
            let mut bopts = cli.runtime.backend.clone();
            bopts.batch_occupancy = occupancy;
            ExecEngine::new(prog.clone(), &bopts)
        };
        let engine = match engine_at(1 << cli.runtime.max_batch.ilog2()) {
            Err(ExecError::BatchUnsupported {
                occupancy,
                block,
                needed,
            }) => {
                eprintln!(
                    "hecatec: {label}: batching infeasible at occupancy {occupancy} \
                     (footprint needs {needed} slots, block holds {block}); explaining solo"
                );
                engine_at(1)
            }
            built => built,
        };
        // Synthetic inputs vary their seed per tenant so the demux proves
        // isolation; bench inputs are shared by every tenant.
        let seeded = |t: usize| synth_inputs(func, 1 + t as u64);
        let run = |engine: ExecEngine| {
            let tenants: Vec<HashMap<String, Vec<f64>>> = (0..engine.occupancy())
                .map(|t| inputs.clone().unwrap_or_else(|| seeded(t)))
                .collect();
            let refs: Vec<&HashMap<String, Vec<f64>>> = tenants.iter().collect();
            audit_batched(&engine, &refs, audit_opts, &copts.cost_model)
        };
        let reports = match engine.and_then(run) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("hecatec: {label}: execution failed: {e}");
                return 5;
            }
        };
        let occupancy = reports.len();
        for (t, report) in reports.iter().enumerate() {
            let label = match occupancy {
                1 => label.clone(),
                _ => format!("{label} [tenant {t}/{occupancy}]"),
            };
            violation_count += print_report(&label, report, audit_opts);
            let est: f64 = report.rows.iter().map(|r| r.est_us).sum();
            ln_ratios.push((report.total_us / est).ln());
        }
    }
    if ln_ratios.len() > 1 {
        println!(
            "geomean measured/est over {} run(s): {:.3}",
            ln_ratios.len(),
            (ln_ratios.iter().sum::<f64>() / ln_ratios.len() as f64).exp()
        );
    }
    if violation_count > 0 {
        eprintln!("hecatec: audit failed with {violation_count} violation(s)");
        6
    } else {
        0
    }
}

/// `measured / est` in a `width`-wide column, `-` where nothing was
/// estimated.
fn ratio(measured: f64, est: f64, width: usize) -> String {
    match est > 0.0 {
        true => format!("{:>width$.3}", measured / est),
        false => format!("{:>width$}", "-"),
    }
}

/// Prints one explained run: the per-op table, the audit verdict, the
/// time residuals per (cost_op, active primes) and the program line.
/// Returns the number of violations.
fn print_report(label: &str, report: &AuditReport, audit_opts: &AuditOptions) -> usize {
    let probed = report
        .rows
        .iter()
        .filter(|r| r.measured_rms.is_some())
        .count();
    println!(
        "explain {label}: {} cipher op(s), {probed} probed, {:.1}ms encrypted",
        report.rows.len(),
        report.total_us / 1e3
    );
    println!(
        "    op kind        lvl   scale   margin   predicted    measured   ratio   simulated \
         cost_op        primes    est µs     op µs"
    );
    let mut residuals: BTreeMap<(&str, usize), (usize, f64, f64)> = BTreeMap::new();
    for row in &report.rows {
        let (measured, ratio) = match row.measured_rms {
            Some(m) => (
                format!("{m:>11.3e}"),
                format!("{:>7.2}", m / row.predicted_rms.max(audit_opts.floor)),
            ),
            None => (format!("{:>11}", "-"), format!("{:>7}", "-")),
        };
        let cost_op = if row.cost_op.is_empty() {
            "-"
        } else {
            &row.cost_op
        };
        println!(
            "  {:>4} {:<10} {:>4} {:>7.1} {:>8.2} {:>11.3e} {measured} {ratio} {:>11.3e} \
             {cost_op:<14} {:>6} {:>9.1} {:>9.1}{}",
            row.op,
            row.mnemonic,
            row.level,
            row.scale_bits,
            row.margin_bits,
            row.predicted_rms,
            row.sim_rms,
            row.active_primes,
            row.est_us,
            row.op_us,
            if row.is_output { "  <- output" } else { "" }
        );
        let cell = residuals.entry((cost_op, row.active_primes)).or_default();
        *cell = (cell.0 + 1, cell.1 + row.est_us, cell.2 + row.op_us);
    }
    println!(
        "  tightest waterline margin: {:.2} bits",
        report.min_margin_bits
    );
    let violations = report.violations(audit_opts);
    if violations.is_empty() {
        println!(
            "  audit PASSED (worst measured/predicted ratio {:.2})",
            report.worst_ratio(audit_opts.floor)
        );
    }
    for v in &violations {
        eprintln!("  audit VIOLATION: {v}");
    }
    println!(
        "  {:<14} {:>6} {:>5} {:>11} {:>11} {:>7}",
        "cost_op", "primes", "count", "Σ est µs", "Σ op µs", "op/est"
    );
    for ((cost_op, primes), (count, est, measured)) in &residuals {
        println!(
            "  {cost_op:<14} {primes:>6} {count:>5} {est:>11.1} {measured:>11.1} {}",
            ratio(*measured, *est, 7)
        );
    }
    let est: f64 = report.rows.iter().map(|r| r.est_us).sum();
    println!(
        "  program: est {:.2}ms, measured {:.2}ms, measured/est {}. Op time excludes \
         plaintext encoding, which the executor redoes on every run.",
        est / 1e3,
        report.total_us / 1e3,
        ratio(report.total_us, est, 0)
    );
    violations.len()
}

/// Compile (or reload) a single file, print the plan, and optionally
/// execute it — the classic single-shot driver path.
fn run_single(cli: &Cli, func: &Function) -> u8 {
    let opts = &cli.compile;
    let prog = match obtain_plan(cli, func, opts) {
        Ok(p) => p,
        Err(code) => return code,
    };

    if let Some(path) = &cli.save_plan {
        if let Err(e) = std::fs::write(path, serialize_plan(&prog)) {
            eprintln!("hecatec: cannot write {path}: {e}");
            return 3;
        }
        println!("plan saved to {path}");
    }

    if !cli.quiet {
        println!("{}", print_function(&prog.func, Some(&prog.types)));
    }
    println!(
        "scheme {} | waterline 2^{} | Sf 2^{}",
        prog.scheme, prog.waterline, prog.params.sf_bits
    );
    println!(
        "parameters: degree {} | chain {} primes (q0 {} bits + {}×{} bits) | max level {} | {}",
        prog.params.degree,
        prog.params.chain_len,
        prog.params.q0_bits,
        prog.params.chain_len - 1,
        prog.params.sf_bits,
        prog.params.max_level,
        if prog.params.secure {
            "128-bit secure"
        } else {
            "NOT 128-bit secure"
        }
    );
    // A plan file carries no search statistics: only a plan compiled here
    // has SMU, use-edge and exploration counts to print.
    let search = match cli.load_plan {
        Some(_) => String::new(),
        None => format!(
            " | {} SMUs over {} uses | {} plans explored",
            prog.stats.smu_units, prog.stats.use_edges, prog.stats.plans_explored
        ),
    };
    println!(
        "stats: {} ops | estimated {:.1}ms{search}",
        prog.func.len(),
        prog.stats.estimated_latency_us / 1e3
    );

    if cli.mode() == RUN {
        let inputs = synth_inputs(func, 1);
        match execute_encrypted(&prog, &inputs, &cli.runtime.backend) {
            Ok(run) => {
                println!(
                    "\nencrypted run: {:.1}ms over {} ops",
                    run.total_us / 1e3,
                    prog.func.len()
                );
                let reference = hecate::ir::interp::interpret(func, &inputs).expect("inputs bound");
                for (name, v) in &run.outputs {
                    let err = hecate::backend::rms_error(v, &reference[name]);
                    let head: Vec<String> = v.iter().take(4).map(|x| format!("{x:.5}")).collect();
                    println!(
                        "  output \"{name}\": [{} ...] rms error {err:.2e}",
                        head.join(", ")
                    );
                }
            }
            Err(e) => {
                eprintln!("hecatec: execution failed: {e}");
                return 5;
            }
        }
    }
    0
}

/// Drains the event store and writes the `--trace` and `--metrics` files. Runs on every exit path — including
/// execution failures like a tripped guard or an exhausted noise budget —
/// so a failing run still leaves valid, complete files covering
/// everything up to the failure. A file that cannot be written turns a
/// successful run into exit code 3 but never masks a run failure.
fn finish_observability(cli: &Cli, mut code: u8, metrics_extra: &str) -> u8 {
    let events = trace::drain();
    let mut outputs: Vec<(&String, String, String)> = Vec::new();
    if let Some(path) = &cli.trace {
        let text = (cli.trace_format)(&events);
        let done = format!("trace: {} event(s) written to {path}", events.len());
        outputs.push((path, text, done));
    }
    if let Some(path) = &cli.metrics {
        let text = hecate::telemetry::metrics::global().prometheus() + metrics_extra;
        outputs.push((path, text, format!("metrics written to {path}")));
    }
    for (path, text, done) in outputs {
        match std::fs::write(path, text) {
            Ok(()) => println!("{done}"),
            Err(e) => {
                eprintln!("hecatec: cannot write {path}: {e}");
                if code == 0 {
                    code = 3;
                }
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hecatec: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    // Held until after `finish_observability` has drained the store.
    let _full_trace = cli.trace.is_some().then(|| recorder::hold(Level::Full));

    let mut metrics_extra = String::new();
    let code = match (load_functions(&cli.files), cli.mode()) {
        (Err(e), _) => {
            eprintln!("hecatec: {e}");
            3
        }
        (Ok(funcs), EXPLAIN) => explain(&cli, &funcs),
        (Ok(funcs), SERVE) => serve(&cli, &funcs, &mut metrics_extra),
        (Ok(funcs), _) => run_single(&cli, &funcs[0].1),
    };
    ExitCode::from(finish_observability(&cli, code, &metrics_extra))
}
