//! The whole set in one command: every workload untraced then traced,
//! each in its own process (so `peak_rss_mb` is per workload), with a
//! machine fingerprint, a results file, `--repeat` spreads and a compare
//! mode that refuses to diff results taken on different machines.

use crate::json::Json;
use crate::run::Workload;
use crate::spec::{MetricSpec, Spec};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Where and how a results file was measured. Results compare only when
/// everything but `commit` agrees: the commit is what a comparison is
/// about, the rest is noise it would otherwise gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Fingerprint {
    pub fn take(seed: u64, seconds: f64) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
            seconds,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("rustc", Json::str(self.rustc.clone())),
            ("commit", Json::str(self.commit.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
        ])
    }

    fn from_json(v: &Json) -> Option<Fingerprint> {
        let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Fingerprint {
            nproc: num("nproc")? as usize,
            cpu_model: text("cpu_model")?,
            rustc: text("rustc")?,
            commit: text("commit")?,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
        })
    }

    /// Why two fingerprints must not be compared, if they must not.
    fn mismatch(&self, other: &Fingerprint) -> Option<String> {
        let mut why = Vec::new();
        if self.nproc != other.nproc {
            why.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.cpu_model != other.cpu_model {
            why.push(format!("CPU '{}' vs '{}'", self.cpu_model, other.cpu_model));
        }
        if self.rustc != other.rustc {
            why.push(format!("rustc '{}' vs '{}'", self.rustc, other.rustc));
        }
        if self.seed != other.seed {
            why.push(format!("seed {} vs {}", self.seed, other.seed));
        }
        if self.seconds != other.seconds {
            why.push(format!("window {} s vs {} s", self.seconds, other.seconds));
        }
        (!why.is_empty()).then(|| why.join("; "))
    }
}

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub repeat: usize,
    pub out_dir: String,
}

/// One child run's result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs this binary on one workload in a child process, echoes what it
/// prints, and parses its last line.
fn child(workload: Workload, args: &SuiteArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &args.out_dir]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("  {line}");
    }
    let parsed = Json::parse(last).map_err(|e| {
        format!(
            "{} printed no result line ({e}); exit {}",
            workload.name(),
            out.status
        )
    })?;
    let count = |k: &str| parsed.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = parsed
        .get("metrics")
        .map(|m| {
            m.as_obj()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildResult {
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
    })
}

/// `(worst − best) ÷ best` over repeated sets of one metric.
fn disagreement(values: &[f64], lower_is_better: bool) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / if lower_is_better { lo } else { hi }
}

pub fn run(spec: &Spec, args: &SuiteArgs) -> Result<bool, String> {
    let fingerprint = Fingerprint::take(args.seed, args.seconds);
    println!("fingerprint: {}", fingerprint.to_json());
    let mut ok = true;
    // workload → metric → one value per set
    let mut end_to_end: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut per_layer: BTreeMap<&str, BTreeMap<String, f64>> = BTreeMap::new();
    let mut tallies: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for set in 0..args.repeat {
        for workload in Workload::ALL {
            println!(
                "== set {} of {}: {} ==",
                set + 1,
                args.repeat,
                workload.name()
            );
            let r = child(workload, args, false)?;
            let t = tallies.entry(workload.name()).or_default();
            t.0 += r.attempted;
            t.1 += r.failed;
            for (k, v) in r.metrics {
                end_to_end
                    .entry(workload.name())
                    .or_default()
                    .entry(k)
                    .or_default()
                    .push(v);
            }
            // Per-layer numbers come from a separate traced run; one per
            // invocation is enough.
            if set == 0 {
                println!("== traced: {} ==", workload.name());
                let r = child(workload, args, true)?;
                let t = tallies.entry(workload.name()).or_default();
                t.0 += r.attempted;
                t.1 += r.failed;
                per_layer.insert(workload.name(), r.metrics);
            }
        }
    }

    println!("\n== end-to-end, median of {} set(s) ==", args.repeat);
    for workload in Workload::ALL {
        let (attempted, failed) = tallies[workload.name()];
        println!(
            "{}: attempted {attempted}  succeeded {}  failed {failed}",
            workload.name(),
            attempted - failed
        );
        ok &= failed == 0;
        for m in &spec.end_to_end {
            let values = &end_to_end[workload.name()][&m.name];
            let bound = m.bound.unwrap_or(0.0);
            let mut line = format!("  {:<20} {:>14.4} {:<5}", m.name, median(values), m.unit);
            if values.len() > 1 {
                let worst = disagreement(values, m.lower_is_better);
                let verdict = if worst <= bound { "ok" } else { "DISAGREE" };
                ok &= worst <= bound;
                line += &format!(
                    "  worst pair of sets {:>6.2}% apart  bound {:>5.1}%  {verdict}",
                    100.0 * worst,
                    100.0 * bound
                );
            }
            println!("{line}");
        }
    }

    let workloads = Workload::ALL.iter().map(|w| {
        let e2e = end_to_end[w.name()].iter().map(|(k, v)| {
            (
                k.clone(),
                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
            )
        });
        let layers = per_layer[w.name()]
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)));
        let (attempted, failed) = tallies[w.name()];
        (
            w.name(),
            Json::obj([
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        )
    });
    let doc = Json::obj([
        ("fingerprint", fingerprint.to_json()),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir))?;
    let path = Path::new(&args.out_dir).join("results.json");
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(ok)
}

fn load(path: &str) -> Result<(Fingerprint, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let fp = doc
        .get("fingerprint")
        .and_then(Fingerprint::from_json)
        .ok_or_else(|| format!("{path}: no fingerprint"))?;
    Ok((fp, doc))
}

fn medians(doc: &Json, workload: &str, metric: &MetricSpec) -> Option<f64> {
    let values: Vec<f64> = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(&metric.name)?
        .as_arr()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Diffs two results files, metric by workload, against each bound.
/// Returns whether no metric got worse by more than its bound.
pub fn compare(spec: &Spec, base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base_fp, base) = load(base_path)?;
    let (new_fp, new) = load(new_path)?;
    if let Some(why) = base_fp.mismatch(&new_fp) {
        return Err(format!(
            "refusing to compare results with different fingerprints: {why}"
        ));
    }
    println!("base {} → new {}", base_fp.commit, new_fp.commit);
    let mut ok = true;
    for workload in &spec.workloads {
        println!("{workload}");
        for m in &spec.end_to_end {
            let (Some(a), Some(b)) = (medians(&base, workload, m), medians(&new, workload, m))
            else {
                return Err(format!("{workload}/{} missing from a results file", m.name));
            };
            let worse = if m.lower_is_better {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse > bound { "WORSE" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "  {:<20} {a:>14.4} → {b:>14.4} {:<5} {:>+7.2}% worse (bound {:.1}%)  {verdict}",
                m.name,
                m.unit,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu_model: "cpu".into(),
            rustc: "rustc 1".into(),
            commit: "abc".into(),
            seed: 1,
            seconds: 20.0,
        }
    }

    #[test]
    fn fingerprints_differing_only_in_commit_compare() {
        let mut other = fp();
        other.commit = "def".into();
        assert_eq!(fp().mismatch(&other), None);
        other.nproc = 8;
        other.seed = 2;
        let why = fp().mismatch(&other).unwrap();
        assert!(why.contains("nproc") && why.contains("seed"), "{why}");
        assert_eq!(Fingerprint::from_json(&fp().to_json()), Some(fp()));
    }

    #[test]
    fn disagreement_is_relative_to_the_better_value() {
        assert!((disagreement(&[100.0, 110.0], true) - 0.10).abs() < 1e-12);
        assert!((disagreement(&[100.0, 110.0], false) - 10.0 / 110.0).abs() < 1e-12);
    }
}
