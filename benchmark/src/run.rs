//! One workload, one process: set-up (repeated, for a steady `setup_s`),
//! the measured window, the correctness tally, and — on a traced run —
//! the layer probe and the trace file.

use crate::check::{Tally, RMS_BOUND};
use crate::common::{Base, Ctx, RuntimeObs, Window};
use crate::json::Json;
use crate::layers::{per_layer, Traced};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, percentile};
use crate::trace::{self_times, spans_to_json, Recorder};
use crate::{compile, exec, probe, serve};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ExecRotWide,
    ExecMulDeep,
    CompilePaper8,
    ServeMixed,
    ServePacked4,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ExecRotWide,
        Workload::ExecMulDeep,
        Workload::CompilePaper8,
        Workload::ServeMixed,
        Workload::ServePacked4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecRotWide => "exec-rot-wide",
            Workload::ExecMulDeep => "exec-mul-deep",
            Workload::CompilePaper8 => "compile-paper8",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServePacked4 => "serve-packed4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports, set by how many units a
    /// 20 s window holds. serve-mixed has ≥ 1000 requests, ten or more
    /// beyond p99, which by construction lands in the miss population.
    /// The exec and packed workloads have 60–100 units, so p90. A window
    /// holds only 8–9 compile passes, too few for any tail: p75 there is
    /// the third-slowest pass, reported so that every workload has the
    /// metric, not because it resolves one.
    fn tail(self) -> f64 {
        match self {
            Workload::ServeMixed => 0.99,
            Workload::CompilePaper8 => 0.75,
            _ => 0.90,
        }
    }
}

/// A workload after set-up, ready for its window.
pub enum Ready {
    Exec(Box<exec::Setup>),
    Compile(compile::Setup),
    Serve(serve::Setup),
}

impl Ready {
    pub fn setup(ctx: &Ctx, workload: Workload) -> Result<Ready, String> {
        Ok(match workload {
            Workload::ExecRotWide => {
                Ready::Exec(Box::new(exec::setup(ctx, exec::Program::RotWide)?))
            }
            Workload::ExecMulDeep => {
                Ready::Exec(Box::new(exec::setup(ctx, exec::Program::MulDeep)?))
            }
            Workload::CompilePaper8 => Ready::Compile(compile::setup(ctx)?),
            Workload::ServeMixed => Ready::Serve(serve::setup(ctx, serve::Mix::Mixed)?),
            Workload::ServePacked4 => Ready::Serve(serve::setup(ctx, serve::Mix::Packed4)?),
        })
    }

    pub fn base(&self) -> &Base {
        match self {
            Ready::Exec(s) => &s.base,
            Ready::Compile(s) => &s.base,
            Ready::Serve(s) => &s.base,
        }
    }

    fn run(&self, ctx: &Ctx, seconds: f64) -> Window {
        match self {
            Ready::Exec(s) => exec::run(ctx, s, seconds),
            Ready::Compile(s) => compile::run(ctx, s, seconds),
            Ready::Serve(s) => serve::run(ctx, s, seconds),
        }
    }

    /// The counts `--check-determinism` compares: the plan set's exact
    /// counts plus, on serve workloads, how many plans set-up made the
    /// runtime compile.
    pub fn exact_counts(&self) -> BTreeMap<String, f64> {
        let mut counts = self.base().exact_counts();
        if let Ready::Serve(s) = self {
            counts.insert("runtime.served_compiles".into(), s.served_compiles as f64);
        }
        counts
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up instead of three (`--quick`).
    pub quick: bool,
    pub out_dir: String,
}

pub struct RunResult {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// The result line the contract asks for.
    pub fn to_json(&self, specs: &[MetricSpec]) -> Json {
        let metrics = specs.iter().map(|m| {
            let value = Json::obj([
                ("value", Json::Num(self.metrics[&m.name])),
                ("unit", Json::str(m.unit.clone())),
            ]);
            (m.name.clone(), value)
        });
        Json::obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set-up repetitions of a full untraced run: `setup_s` is their median,
/// and each is followed by a third of the window.
const SETUP_REPS: usize = 3;

pub fn run(args: &RunArgs, spec: &Spec) -> Result<RunResult, String> {
    let rec = Recorder::new(args.trace);
    // A traced run measures half as long: its numbers are per layer, and
    // the probe that follows needs the time.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // ... and in one piece on one set-up: serve-mixed needs the whole
    // half window to fill its plan cache past capacity, and four compile
    // passes are the fewest that put two on each side of the recorder.
    let reps = if args.quick || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::new();
    let mut window = Window::default();
    let mut ready = None;
    let (mut last_setup_mark, mut last_window_mark) = (0, 0);
    for part in 0..reps {
        let ctx = Ctx {
            seed: args.seed,
            rec: &rec,
            part: part as u64,
        };
        // Tear the previous repetition down (joining its worker threads)
        // before the clock starts.
        drop(ready.take());
        last_setup_mark = rec.mark();
        let t0 = Instant::now();
        let this = Ready::setup(&ctx, args.workload)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last_window_mark = rec.mark();
        // Each repetition measures its share of the window on its own
        // keys and buffers, so the pooled samples span three independent
        // memory layouts and not one lucky or unlucky one.
        window.merge(this.run(&ctx, seconds / reps as f64));
        ready = Some(this);
    }
    let ready = ready.expect("at least one set-up repetition");
    let ctx = Ctx {
        seed: args.seed,
        rec: &rec,
        part: reps as u64,
    };
    if window.samples.is_empty() {
        return Err("the window measured nothing".into());
    }
    let mut tally = window.tally;
    println!(
        "{}: {} units in {:.2} s, {} set-up(s)",
        args.workload.name(),
        window.units,
        window.wall_s,
        setup_s.len()
    );

    let metrics = if args.trace {
        let setup_spans: Vec<_> = rec
            .snapshot()
            .into_iter()
            .filter(|s| (last_setup_mark..last_window_mark).contains(&s.id))
            .collect();
        let base = ready.base();
        let probed_backend;
        let backend = match &window.backend {
            Some(obs) => obs,
            None => {
                probed_backend = probe::backend_layer(base, &mut tally)?;
                &probed_backend
            }
        };
        let mut probed_runtime: RuntimeObs;
        let runtime = match (&window.runtime, &ready) {
            (Some(obs), Ready::Serve(setup)) if args.workload == Workload::ServePacked4 => {
                let (cold, cold_tally) = serve::packed_cold_round(&ctx, setup);
                probed_runtime = obs.clone();
                probed_runtime.merge(cold);
                tally.merge(cold_tally);
                &probed_runtime
            }
            (Some(obs), _) => obs,
            (None, _) => {
                probed_runtime = probe::runtime_layer(base, &mut tally);
                &probed_runtime
            }
        };
        let traced = Traced {
            base,
            window: &window,
            setup_spans: &setup_spans,
            kernels: probe::kernels(base)?,
            backend,
            runtime,
            eva: probe::eva_baseline(base)?,
            plan_key_us: probe::plan_key_us(base),
        };
        let metrics = per_layer(&traced);
        print_detail(&traced);
        write_trace(args, &rec)?;
        metrics
    } else {
        let latencies: Vec<f64> = window.samples.iter().map(|s| s.ms).collect();
        let (p50, tail) = (
            median(&latencies),
            percentile(&latencies, args.workload.tail()),
        );
        let mut m = BTreeMap::new();
        m.insert("latency_p50_ms".to_string(), p50);
        m.insert("latency_tail_ms".to_string(), tail);
        m.insert(
            "throughput_per_s".to_string(),
            window.units as f64 / window.wall_s,
        );
        m.insert("setup_s".to_string(), median(&setup_s));
        m.insert("peak_rss_mb".to_string(), peak_rss_mb()?);
        println!(
            "  latency samples {}  p50 {p50:.3} ms  p{:.0} {tail:.3} ms  max {:.3} ms",
            latencies.len(),
            args.workload.tail() * 100.0,
            percentile(&latencies, 1.0),
        );
        m
    };

    let specs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    check_names(&metrics, specs)?;
    for m in specs {
        println!("  {:<40} {:>16.4} {}", m.name, metrics[&m.name], m.unit);
    }
    println!(
        "  attempted {}  succeeded {}  failed {}  (worst rms error {:.3e}, bound {:.3e})",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed,
        tally.worst_rms,
        RMS_BOUND
    );
    Ok(RunResult { tally, metrics })
}

/// Every name `BENCHMARK.json` lists is present, and nothing else is.
fn check_names(metrics: &BTreeMap<String, f64>, specs: &[MetricSpec]) -> Result<(), String> {
    let missing: Vec<&str> = specs
        .iter()
        .filter(|m| !metrics.contains_key(&m.name))
        .map(|m| m.name.as_str())
        .collect();
    let unlisted: Vec<&str> = metrics
        .keys()
        .filter(|k| !specs.iter().any(|m| &m.name == *k))
        .map(String::as_str)
        .collect();
    if missing.is_empty() && unlisted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric names drifted from BENCHMARK.json: missing {missing:?}, unlisted {unlisted:?}"
        ))
    }
}

/// The rows under the listed metrics: compile and hash time per plan.
fn print_detail(t: &Traced) {
    for (label, ms) in &t.eva.per_program {
        println!("    compiler.eva_compile_ms.{label:<10} {ms:>12.3} ms");
    }
    for plan in t.base.own() {
        let program = &t.base.programs[plan.program];
        // compile-paper8 compiles every pass; elsewhere once, in set-up.
        let (ms, n) = match t.window.compile_ms.get(program.name) {
            Some(samples) => (median(samples), samples.len()),
            None => (plan.compile_ms, 1),
        };
        println!(
            "    compiler.compile_ms.{:<10} {ms:>16.3} ms  (n={n})",
            plan.label(program)
        );
    }
    for (label, us) in &t.plan_key_us {
        println!("    ir.plan_key_us.{label:<10} {us:>21.3} us");
    }
}

fn write_trace(args: &RunArgs, rec: &Recorder) -> Result<(), String> {
    let spans = rec.snapshot();
    println!(
        "  layer self time (span minus its children), {} spans:",
        spans.len()
    );
    let mut layers = Vec::new();
    for (name, (count, total, own)) in self_times(&spans) {
        println!("    {name:<20} n={count:<6} total {total:>12.3} ms  self {own:>12.3} ms");
        layers.push((
            name,
            Json::obj([
                ("count", Json::Num(count as f64)),
                ("total_ms", Json::Num(total)),
                ("self_ms", Json::Num(own)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("self_time", Json::obj(layers)),
        ("spans", spans_to_json(&spans)),
    ]);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir))?;
    let path = Path::new(&args.out_dir).join(format!("trace-{}.json", args.workload.name()));
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  trace written to {}", path.display());
    Ok(())
}
