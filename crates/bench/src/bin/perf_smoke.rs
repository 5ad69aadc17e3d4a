//! `perf_smoke` — the repo's relative performance gates.
//!
//! Relative gates live here; absolute numbers live only in `benchmark/`.
//! Every check below is an identity or an in-process ratio of two
//! measurements taken seconds apart on the same box, so it needs no
//! baseline file and means the same on any machine. Three checks, all
//! hard failures:
//!
//! 1. **Bit-identity**: LeNet, HCD (Harris), SF (Sobel) and MLP (81
//!    hoisted rotations on a 3-prime chain, so the striped key-switch
//!    mod-down runs on every one) decrypt to *bit-identical* outputs
//!    (`f64::to_bits`) with `kernel_jobs` ∈ {1, 2, 4}. The per-limb
//!    kernels split only independent RNS limbs, so the stripes decide
//!    *where* a limb is computed, never *what* — any drift is a real
//!    bug, not tolerance noise.
//! 2. **Batching pays**: four tenants of SF (and of HCD) coalesced into
//!    one packed ciphertext are served at ≥ 2× the solo request rate.
//!    Both sides run at degree 4096 so the ratio isolates amortization
//!    from parameter choice (a solo run at a smaller degree is a
//!    different security and precision point, not a fair baseline).
//! 3. **Telemetry is cheap**: the span entry points a served request
//!    crosses cost < 2% of that request, both with the event store at
//!    level `Off` and at level `Ring` (the always-on flight recorder).
//!
//! Exit code 0 on success, 1 with a message on any violation.

use hecate_apps::{benchmark, Benchmark, Preset};
use hecate_backend::exec::{execute_sequential, BackendOptions, ExecEngine};
use hecate_compiler::{compile, CompileOptions, Scheme};
use hecate_runtime::{Request, Runtime, RuntimeConfig};
use hecate_telemetry::recorder::{self, Level};
use hecate_telemetry::trace;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEGREE: usize = 512;
const WORKLOADS: [&str; 4] = ["LeNet", "HCD", "SF", "MLP"];
/// Engine `kernel_jobs`, each run compared against the reference run
/// (one kernel thread).
const KERNEL_JOBS: [usize; 3] = [1, 2, 4];
/// The batching study runs both sides at this one degree (2048 slots:
/// four 512-slot blocks hold the SF/HCD footprints with guard bands).
const BATCH_DEGREE: usize = 4096;
const BATCH_OCCUPANCY: usize = 4;
/// Coalesced service must reach this multiple of the solo request rate.
const BATCH_FLOOR: f64 = 2.0;
/// Largest share of a served request, in percent, that its span entry
/// points may cost.
const SPAN_BUDGET_PCT: f64 = 2.0;

fn backend(jobs: usize) -> BackendOptions {
    BackendOptions {
        degree_override: Some(DEGREE),
        kernel_jobs: jobs,
        ..BackendOptions::default()
    }
}

/// Runs every workload under every variant and compares the decrypted
/// outputs bit-for-bit against the kernel_jobs=1 reference.
fn check_bit_identity() -> Result<(), String> {
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(DEGREE);
    for name in WORKLOADS {
        let bench = benchmark(name, Preset::Small).expect("known benchmark");
        let prog = compile(&bench.func, Scheme::Pars, &opts)
            .map_err(|e| format!("{name}: compile failed: {e}"))?;
        let prog = Arc::new(prog);
        let mut reference: Option<HashMap<String, Vec<f64>>> = None;
        for kernel_jobs in KERNEL_JOBS {
            let engine = ExecEngine::new(prog.clone(), &backend(kernel_jobs))
                .map_err(|e| format!("{name}: engine build failed: {e}"))?;
            let run = execute_sequential(&engine, &bench.inputs)
                .map_err(|e| format!("{name}: kernel_jobs={kernel_jobs} failed: {e}"))?;
            let want = reference.get_or_insert_with(|| run.outputs.clone());
            for (out, want) in want.iter() {
                let got = &run.outputs[out];
                for (k, (a, b)) in want.iter().zip(got).enumerate() {
                    if a.to_bits() != b.to_bits() {
                        return Err(format!(
                            "{name}: output {out}[{k}] differs with kernel_jobs={kernel_jobs}: \
                             {a:e} vs {b:e}"
                        ));
                    }
                }
            }
            println!("  {name:<6} kernel_jobs={kernel_jobs}  bit-identical");
        }
    }
    Ok(())
}

/// Requests per second of one warmed worker (serial kernels) serving
/// `tenants` sessions of each workload for `rounds` rounds, coalescing up
/// to `max_batch` same-plan requests into one packed run. Compilation and
/// engine construction are paid by a warm-up round, so the ratio of two
/// calls measures steady-state amortization alone.
fn served_rps(
    benches: &[Benchmark],
    degree: usize,
    tenants: usize,
    max_batch: usize,
    rounds: usize,
) -> Result<f64, String> {
    let rt = Runtime::new(RuntimeConfig {
        workers: 1,
        max_batch,
        batch_window: Duration::from_millis(50),
        backend: BackendOptions {
            degree_override: Some(degree),
            ..BackendOptions::default()
        },
        ..RuntimeConfig::default()
    });
    let mut options = CompileOptions::with_waterline(24.0);
    options.degree = Some(degree);
    let round: Vec<Request> = benches
        .iter()
        .flat_map(|bench| std::iter::repeat_n(bench, tenants))
        .map(|bench| Request {
            session: rt.open_session(),
            func: bench.func.clone(),
            scheme: Scheme::Pars,
            options: options.clone(),
            inputs: bench.inputs.clone(),
            deadline: None,
            max_retries: 0,
        })
        .collect();
    for r in rt.run_batch(round.clone()) {
        r.map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    let reqs: Vec<Request> = (0..rounds).flat_map(|_| round.clone()).collect();
    let n = reqs.len();
    let t0 = Instant::now();
    for r in rt.run_batch(reqs) {
        let resp = r.map_err(|e| format!("measured request failed: {e}"))?;
        if resp.batch_occupancy != max_batch {
            let got = resp.batch_occupancy;
            return Err(format!("a request ran at occupancy {got}, not {max_batch}"));
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    rt.shutdown();
    Ok(n as f64 / dt)
}

fn check_batching_pays(served: &[Benchmark]) -> Result<(), String> {
    for bench in served {
        let one = std::slice::from_ref(bench);
        let solo = served_rps(one, BATCH_DEGREE, BATCH_OCCUPANCY, 1, 3)?;
        let batched = served_rps(one, BATCH_DEGREE, BATCH_OCCUPANCY, BATCH_OCCUPANCY, 3)?;
        let speedup = batched / solo;
        let name = &bench.name;
        println!("  {name}@{BATCH_DEGREE}: solo {solo:.1} req/s, batch{BATCH_OCCUPANCY} {batched:.1} req/s ({speedup:.2}x)");
        if speedup < BATCH_FLOOR {
            return Err(format!(
                "{name}: batched serving reached only {speedup:.2}x solo throughput \
                 (needs >= {BATCH_FLOOR}x at occupancy {BATCH_OCCUPANCY})"
            ));
        }
    }
    Ok(())
}

/// Upper-bounds the share of one served request spent in span entry
/// points, with the event store at `level`: `Off` (one relaxed atomic
/// load per span; the attribute closure never runs) or `Ring`, as a live
/// runtime holds it (the closure runs and two ring appends land in the
/// thread's ring).
///
/// The instrumented path cannot be compiled out for comparison, so the
/// bound is computed directly: the measured cost of one span, times the
/// entry points a request crosses (one `exec-op` per op, plus queue-wait,
/// request, plan-cache, session-engine, execute and slack for future
/// lifecycle spans), against the measured wall time of a request.
fn check_span_share(level: Level, req_per_s: f64, max_ops: usize) -> Result<(), String> {
    const CALLS: u64 = 1_000_000;
    if recorder::level() != Level::Off {
        return Err("the event store must start at level Off".into());
    }
    let hold = recorder::hold(level);
    let t0 = Instant::now();
    for i in 0..CALLS {
        let mut span = trace::span_with("perf-smoke", || vec![("i", i.into())]);
        span.attr("done", true.into());
    }
    let ns_per_span = t0.elapsed().as_nanos() as f64 / CALLS as f64;
    drop(hold);
    recorder::clear();
    let spans_per_req = max_ops as f64 + 8.0;
    let pct = 100.0 * spans_per_req * ns_per_span * req_per_s / 1e9;
    println!(
        "  level {level:?}: {ns_per_span:.1}ns/span x {spans_per_req:.0} spans = {pct:.3}% of a request"
    );
    if pct >= SPAN_BUDGET_PCT {
        return Err(format!(
            "level {level:?} costs {pct:.3}% of a request (budget {SPAN_BUDGET_PCT}%)"
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    println!("perf smoke: bit-identity across kernel_jobs");
    check_bit_identity()?;

    let served: Vec<Benchmark> = ["SF", "HCD"]
        .iter()
        .map(|name| benchmark(name, Preset::Small).expect("known benchmark"))
        .collect();
    println!("perf smoke: batch{BATCH_OCCUPANCY} serving >= {BATCH_FLOOR}x solo at equal degree");
    check_batching_pays(&served)?;

    println!("perf smoke: span entry points < {SPAN_BUDGET_PCT}% of a served request");
    // The denominator is the shortest request served here: the SF + HCD
    // mix, one tenant each, at the identity matrix's degree.
    let req_per_s = served_rps(&served, DEGREE, 1, 1, 12)?;
    let max_ops = served.iter().map(|b| b.func.len()).max().unwrap_or(0);
    println!("  solo SF+HCD at degree {DEGREE}: {req_per_s:.1} req/s, at most {max_ops} ops");
    check_span_share(Level::Off, req_per_s, max_ops)?;
    check_span_share(Level::Ring, req_per_s, max_ops)
}

fn main() {
    match run() {
        Ok(()) => println!("perf smoke: OK"),
        Err(msg) => {
            eprintln!("perf smoke FAILED: {msg}");
            std::process::exit(1);
        }
    }
}
