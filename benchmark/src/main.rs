//! The repo benchmark. `README.md` has the workloads, the metrics and how
//! they should move together; `../BENCHMARK.json` is the contract.
//!
//! ```text
//! hecate-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the result
//! hecate-benchmark [--seed n] [--seconds s] [--quick] [--repeat N]
//!     the whole set, each workload untraced then traced in a child process
//! hecate-benchmark --check-determinism [--workload <name>] [--seed n]
//! hecate-benchmark --compare <base.json> <new.json>
//! ```

#![forbid(unsafe_code)]

mod check;
mod common;
mod compile;
mod exec;
mod json;
mod layers;
mod probe;
mod programs;
mod run;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;

use run::{Ready, RunArgs, Workload};
use spec::Spec;
use std::process::ExitCode;

/// The window `--quick` uses when `--seconds` is not given.
const QUICK_SECONDS: f64 = 1.0;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    check_determinism: bool,
    compare: Option<(String, String)>,
    out_dir: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        check_determinism: false,
        compare: None,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}'; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=20).contains(&cli.repeat) {
                    return Err(format!("--repeat {} is outside 1..=20", cli.repeat));
                }
            }
            "--out" => cli.out_dir = Some(value("a directory")?.clone()),
            "--quick" => cli.quick = true,
            "--check-determinism" => cli.check_determinism = true,
            "--compare" => {
                let base = value("two results files")?.clone();
                let new = value("two results files")?.clone();
                cli.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// Runs set-up twice under one seed and once under the next, and checks
/// that every exact-repeat count repeats, and that a new seed changes the
/// data but none of the counts — timing is sized the same under any seed.
fn check_determinism(workload: Workload, seed: u64) -> Result<(), String> {
    let rec = trace::Recorder::new(false);
    let counts_and_data = |seed: u64| -> Result<_, String> {
        let ctx = common::Ctx {
            seed,
            rec: &rec,
            part: 0,
        };
        let ready = Ready::setup(&ctx, workload)?;
        let inputs: Vec<_> = ready
            .base()
            .programs
            .iter()
            .map(|p| {
                let mut bound: Vec<_> = p.inputs.iter().collect();
                bound.sort_by(|a, b| a.0.cmp(b.0));
                format!("{bound:?}")
            })
            .collect();
        Ok((ready.exact_counts(), inputs))
    };
    let (first, data) = counts_and_data(seed)?;
    let (second, data_again) = counts_and_data(seed)?;
    let (other_seed, other_data) = counts_and_data(seed.wrapping_add(1))?;
    if first != second {
        return Err(format!(
            "{}: counts differ between two set-ups of seed {seed}:\n  {first:?}\n  {second:?}",
            workload.name()
        ));
    }
    if data != data_again {
        return Err(format!(
            "{}: seed {seed} gave two different inputs",
            workload.name()
        ));
    }
    if data == other_data {
        return Err(format!(
            "{}: the seed does not change the inputs",
            workload.name()
        ));
    }
    for (name, value) in &first {
        if other_seed.get(name) != Some(value) {
            return Err(format!(
                "{}: {name} is {value} under seed {seed} but {:?} under the next seed",
                workload.name(),
                other_seed.get(name)
            ));
        }
    }
    println!(
        "{}: {} exact counts repeat; a new seed changes inputs only",
        workload.name(),
        first.len()
    );
    for (name, value) in &first {
        println!("  {name:<32} {value}");
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let spec = Spec::load();
    // Run from the repo root the files go next to the benchmark; run from
    // inside `benchmark/` (as `cargo test` does) they go to `out/` there.
    let out_dir = cli.out_dir.clone().unwrap_or_else(|| {
        if std::path::Path::new("benchmark").is_dir() {
            "benchmark/out".to_string()
        } else {
            "out".to_string()
        }
    });
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        QUICK_SECONDS
    } else {
        spec.run_seconds
    });

    if let Some((base, new)) = &cli.compare {
        return suite::compare(&spec, base, new);
    }
    if cli.check_determinism {
        let workloads = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        for w in workloads {
            check_determinism(w, cli.seed)?;
        }
        return Ok(true);
    }
    match cli.workload {
        Some(workload) => {
            println!(
                "workload {} seed {} window {seconds} s trace {} | nproc {} | {}",
                workload.name(),
                cli.seed,
                u8::from(cli.trace),
                suite::nproc(),
                suite::cpu_model()
            );
            let result = run::run(
                &RunArgs {
                    workload,
                    seed: cli.seed,
                    seconds,
                    trace: cli.trace,
                    quick: cli.quick,
                    out_dir,
                },
                &spec,
            )?;
            let specs = if cli.trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            println!("{}", result.to_json(specs));
            Ok(result.tally.failed == 0)
        }
        None => suite::run(
            &spec,
            &suite::SuiteArgs {
                seed: cli.seed,
                seconds,
                quick: cli.quick,
                repeat: cli.repeat,
                out_dir,
            },
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("hecate-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
