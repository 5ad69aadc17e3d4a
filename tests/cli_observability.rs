//! Observability files survive *failing* runs of `hecatec`.
//!
//! The contract (DESIGN "Precision observability"): `--trace` and
//! `--metrics` files are written on every exit path, so a run that dies
//! mid-execution — here, a noise-budget guard tripping via `--max-rms` —
//! still leaves valid, complete files covering everything up to the
//! failure, its noise prediction included as `precision` marks.

use std::path::PathBuf;
use std::process::Command;

fn hecatec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hecatec"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/ir")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hecatec-test-{}-{name}", std::process::id()))
}

/// Structural JSONL check without a JSON dependency: every non-empty
/// line is one object with balanced braces and an even quote count.
fn assert_valid_jsonl(path: &PathBuf) -> usize {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut n = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line in {}: {line:?}",
            path.display()
        );
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "unbalanced braces in {}: {line:?}",
            path.display()
        );
        assert_eq!(
            line.matches('"').count() % 2,
            0,
            "unbalanced quotes in {}: {line:?}",
            path.display()
        );
        n += 1;
    }
    n
}

/// The `precision`-family marks (`name` = `precision` or
/// `precision-probe`) of a JSONL trace file.
fn precision_marks(path: &PathBuf, name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let tag = format!("\"kind\":\"mark\",\"name\":\"{name}\",");
    text.lines()
        .filter(|line| line.contains(&tag))
        .map(String::from)
        .collect()
}

#[test]
fn failing_run_still_writes_valid_observability_files() {
    let trace = tmp("fail.trace.jsonl");
    let metrics = tmp("fail.metrics.prom");
    // poly.heir's modeled noise spans ~2.5e-5 (fresh input) to ~1.3e-4
    // (deepest op), so a 5e-5 budget admits the first ops and then
    // trips BudgetExhausted mid-run — the exact path that used to lose
    // the buffered telemetry.
    let out = hecatec()
        .arg(example("poly.heir"))
        .args(["--run", "--quiet", "--max-rms", "5e-5"])
        .args([
            "--trace",
            trace.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ])
        .args(["--metrics", metrics.to_str().unwrap()])
        .output()
        .expect("hecatec runs");
    assert_eq!(
        out.status.code(),
        Some(5),
        "expected execution-failure exit, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("noise budget"),
        "guard failure not reported: {stderr}"
    );

    // Both files exist and are valid despite the failure.
    let trace_events = assert_valid_jsonl(&trace);
    assert!(trace_events > 0, "trace is empty on the error path");
    let precision = precision_marks(&trace, "precision");
    assert!(
        precision.len() >= 2,
        "expected the ops executed before the failure as precision marks, \
         got {}",
        precision.len()
    );
    assert!(precision.iter().all(|mark| mark.contains("margin_bits")));
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("hecate_"),
        "metrics missing on the error path: {metrics_text:?}"
    );
    for p in [trace, metrics] {
        let _ = std::fs::remove_file(p);
    }
}

/// A serve run whose workers die by injected chaos panics still exits
/// through the observability path: typed per-request failures, exit 5,
/// valid trace and metrics files, and the panic/respawn counters
/// reconciled in both the stats JSON and the Prometheus export.
#[test]
fn chaos_panic_serve_still_writes_observability_files() {
    let trace = tmp("chaos.trace.jsonl");
    let metrics = tmp("chaos.metrics.prom");
    // 4 requests on one worker, panic injected into every 2nd: the chaos
    // sequence hits requests 0 and 2, so exactly 2 panics are isolated
    // (and the worker respawns twice) while requests 1 and 3 succeed.
    let out = hecatec()
        .arg(example("poly.heir"))
        .args([
            "--serve", "--jobs", "1", "--repeat", "4", "--degree", "2048",
        ])
        .args(["--chaos", "2", "--chaos-kind", "panic"])
        .args([
            "--trace",
            trace.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ])
        .args(["--metrics", metrics.to_str().unwrap()])
        .output()
        .expect("hecatec runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(5),
        "expected execution-failure exit\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("worker panicked while serving request"),
        "panics not reported as typed failures: {stderr}"
    );
    assert!(
        stdout.contains("\"panics\":2") && stdout.contains("\"worker_respawns\":2"),
        "stats JSON missing panic accounting: {stdout}"
    );
    assert!(
        stdout.contains("\"completed\":2"),
        "surviving requests must still complete: {stdout}"
    );

    let trace_events = assert_valid_jsonl(&trace);
    assert!(trace_events > 0, "trace is empty on the panic path");
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_text.contains("panic-recovered"),
        "no panic-recovered mark in the trace"
    );
    assert!(
        trace_text.contains("worker-respawn"),
        "no worker-respawn mark in the trace"
    );
    // The surviving requests' noise predictions are in the trace.
    let precision = precision_marks(&trace, "precision");
    assert!(!precision.is_empty(), "no precision marks in the trace");
    assert!(precision.iter().all(|mark| mark.contains("margin_bits")));
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.contains("hecate_runtime_panics_total 2"),
        "metrics missing panic counter: {metrics_text:?}"
    );
    assert!(
        metrics_text.contains("hecate_runtime_worker_respawns_total 2"),
        "metrics missing respawn counter: {metrics_text:?}"
    );
    for p in [trace, metrics] {
        let _ = std::fs::remove_file(p);
    }
}

/// `--explain --bench SF` passes its audit, prints the per-op table, the
/// time residual table and the program line, and its JSONL trace carries
/// the noise prediction and the decrypt probes as marks.
#[test]
fn explain_bench_passes_and_traces_precision_marks() {
    let trace = tmp("explain.trace.jsonl");
    let out = hecatec()
        .args(["--explain", "--bench", "SF"])
        .args([
            "--trace",
            trace.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ])
        .output()
        .expect("hecatec runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "explain failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("audit PASSED"),
        "no audit verdict: {stdout}"
    );
    assert!(
        stdout.contains("tightest waterline margin"),
        "no margin summary: {stdout}"
    );
    assert!(
        stdout.contains("cost_op        primes count    Σ est µs     Σ op µs  op/est"),
        "no residual table: {stdout}"
    );
    assert!(
        stdout.contains("  program: est ") && stdout.contains("Op time excludes"),
        "no program line: {stdout}"
    );
    assert_valid_jsonl(&trace);
    assert!(!precision_marks(&trace, "precision").is_empty());
    let probes = precision_marks(&trace, "precision-probe");
    assert!(!probes.is_empty(), "no decrypt probes in the trace");
    assert!(probes.iter().all(|mark| mark.contains("measured_rms")));
    let _ = std::fs::remove_file(trace);
}

fn run_poly(args: &[&str]) -> (Option<i32>, String, String) {
    let out = hecatec()
        .arg(example("poly.heir"))
        .args(args)
        .output()
        .expect("hecatec runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A flag given in a mode that would ignore it is a usage error naming
/// the flag and what it needs — at the parent every one of these exited
/// 0 having silently done nothing.
#[test]
fn mode_scoped_flags_are_usage_errors_not_silently_ignored() {
    let plan = tmp("ignored.plan");
    let plan_s = plan.to_str().unwrap();
    let cases: [(&[&str], &str); 9] = [
        (&["--serve", "--save-plan", plan_s], "--save-plan requires"),
        (&["--jobs", "2"], "--jobs requires --serve"),
        (&["--run", "--repeat", "3"], "--repeat requires --serve"),
        // Removed with the one explain report.
        (
            &["--run", "--audit-checkpoints", "2"],
            "unknown argument '--audit-checkpoints'",
        ),
        (
            &["--run", "--trace-format", "jsonl"],
            "--trace-format requires --trace",
        ),
        (
            &["--run", "--precision-trace", plan_s],
            "unknown argument '--precision-trace'",
        ),
        (
            &["--serve", "--chaos-kind", "panic"],
            "--chaos-kind requires --chaos",
        ),
        (
            &["--serve", "--diag-interval-ms", "5"],
            "--diag-interval-ms requires --diag-out",
        ),
        // The recorder opt-out is gone: a panicked request's black box
        // can no longer be switched off by accident.
        (&["--serve", "--no-flight-recorder"], "--no-flight-recorder"),
    ];
    for (args, want) in cases {
        let (code, _, stderr) = run_poly(args);
        assert_eq!(code, Some(2), "{args:?} must be a usage error: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: hecatec"), "{args:?}: {stderr}");
    }
    assert!(!plan.exists(), "rejected flags write nothing");

    // `--bench` compiles its own programs: a plan file to reload with it
    // is a usage error, not silently ignored.
    let out = hecatec()
        .args(["--explain", "--bench", "SF", "--fallback"])
        .args(["--load-plan", tmp("missing.plan").to_str().unwrap()])
        .output()
        .expect("hecatec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--bench compiles its programs"), "{stderr}");

    // `--chaos 0` disables injection, so it must not announce any.
    let (code, stdout, stderr) = run_poly(&[
        "--serve", "--jobs", "1", "--repeat", "1", "--degree", "256", "--chaos", "0", "--quiet",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stdout.contains("chaos:"), "{stdout}");
    // `--quiet` stays legal in every mode.
    let (code, _, stderr) = run_poly(&["--quiet"]);
    assert_eq!(code, Some(0), "{stderr}");
}

fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + key.len();
    let rest = &line[start..];
    &rest[..rest.find(['"', ',', '}']).expect("field ends")]
}

/// One store, two readers: a traced serve run yields a balanced trace
/// file *and* a retained trace per request in the final diagnostics
/// snapshot, with every event recorded once.
#[test]
fn traced_serve_run_feeds_the_trace_file_and_retention_at_once() {
    use hecate::telemetry::trace::{pair_spans, Event, EventKind};
    let trace = tmp("onestore.trace.jsonl");
    let dir = tmp("onestore.diag");
    let _ = std::fs::remove_dir_all(&dir);
    let (code, stdout, stderr) = run_poly(&[
        "--serve",
        "--jobs",
        "2",
        "--repeat",
        "3",
        "--degree",
        "256",
        "--slow-ms",
        "0",
        "--trace",
        trace.to_str().unwrap(),
        "--trace-format",
        "jsonl",
        "--diag-out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event {
            kind: match json_field(line, "\"kind\":\"") {
                "begin" => EventKind::Begin,
                "end" => EventKind::End,
                "mark" => EventKind::Mark,
                "complete" => EventKind::Complete {
                    dur_ns: json_field(line, "\"dur_ns\":").parse().unwrap(),
                },
                other => panic!("unknown kind {other}"),
            },
            name: Box::leak(json_field(line, "\"name\":\"").to_string().into_boxed_str()),
            ts_ns: json_field(line, "\"ts_ns\":").parse().unwrap(),
            tid: json_field(line, "\"tid\":").parse().unwrap(),
            attrs: Vec::new(),
        })
        .collect();
    let spans = pair_spans(&events).expect("the trace file is balanced");
    assert_eq!(
        spans.iter().filter(|s| s.name == "request").count(),
        3,
        "one request span per served request"
    );
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    let total = lines.len();
    lines.dedup();
    assert_eq!(lines.len(), total, "no event was recorded twice");

    let mut dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("diag dir written")
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("diag-")
        })
        .collect();
    dumps.sort();
    let last = std::fs::read_to_string(dumps.last().expect("a final snapshot")).unwrap();
    assert_eq!(
        last.matches("\"reason\":\"slow\"").count(),
        3,
        "every request was retained out of the same store: {last}"
    );
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_dir_all(dir);
}

/// DESIGN.md's "Metrics" table lists every family a `--serve --metrics`
/// file can hold: each family in a real file is a row, and each row
/// marked "always" is in the file.
#[test]
fn serve_metrics_families_are_the_design_table() {
    let metrics = tmp("table.metrics.prom");
    let (code, stdout, stderr) = run_poly(&[
        "--serve",
        "--jobs",
        "1",
        "--repeat",
        "2",
        "--degree",
        "256",
        "--quiet",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let _ = std::fs::remove_file(&metrics);
    let families: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|family| family.split(' ').next().expect("a family name"))
        .collect();

    let design =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
            .expect("DESIGN.md readable");
    let section = design
        .split("\n## Metrics\n")
        .nth(1)
        .expect("DESIGN.md has a Metrics section");
    let rows: Vec<(&str, &str)> = section
        .lines()
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| {
            let family = row.split(['`', '{']).next().expect("a family cell");
            let present = row.trim_end().trim_end_matches('|').rsplit('|').next();
            (family, present.expect("a Present cell").trim())
        })
        .collect();
    assert!(rows.len() > 20, "the Metrics table did not parse: {rows:?}");
    for family in &families {
        assert!(
            rows.iter().any(|(row, _)| row == family),
            "{family} is in the --metrics file but not a row of DESIGN.md's Metrics table"
        );
    }
    for (row, present) in &rows {
        assert!(
            !present.starts_with("always") || families.contains(row),
            "DESIGN.md marks {row} as always present, but the --metrics file lacks it"
        );
    }
}

/// Every panicked request leaves its black box under `--diag-out`; there
/// is no longer a recorder opt-out that silently suppresses it.
#[test]
fn every_panicked_request_leaves_a_black_box() {
    let dir = tmp("blackbox.diag");
    let _ = std::fs::remove_dir_all(&dir);
    let (code, stdout, stderr) = run_poly(&[
        "--serve",
        "--jobs",
        "1",
        "--repeat",
        "4",
        "--degree",
        "256",
        "--chaos",
        "2",
        "--chaos-kind",
        "panic",
        "--diag-out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(5), "stdout: {stdout}\nstderr: {stderr}");
    let boxes: Vec<String> = std::fs::read_dir(&dir)
        .expect("diag dir written")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("blackbox-req"))
        .collect();
    assert_eq!(
        boxes.len(),
        2,
        "one black box per panicked request: {boxes:?}"
    );
    for name in &boxes {
        let body = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(body.contains("\"reason\":\"panicked\""), "{body}");
        assert!(
            body.contains("\"name\":\"request\""),
            "trace in the dump: {body}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A plan file carries no search statistics, so only the compile that
/// wrote it prints SMU, use-edge and exploration counts; the reload
/// prints none rather than counts recomputed from the scale-managed
/// program (it used to report "0 SMUs over 12 uses").
#[test]
fn a_reloaded_plan_prints_no_search_statistics() {
    let plan = tmp("stats.plan");
    let plan_arg = plan.to_str().unwrap();
    let (code, saved, stderr) = run_poly(&["--save-plan", plan_arg, "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(saved.contains("5 SMUs over 8 uses"), "{saved}");
    let (code, loaded, stderr) = run_poly(&["--load-plan", plan_arg, "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(loaded.contains("stats: 10 ops"), "{loaded}");
    assert!(
        !loaded.contains("SMUs") && !loaded.contains("plans explored"),
        "{loaded}"
    );
    let _ = std::fs::remove_file(plan);
}

/// The summary line names the waterline the plan was compiled at, not the
/// `--waterline` flag: a plan saved at 28 and reloaded under the default
/// waterline prints 2^28, and a request of 30.29 is compiled at 2^31.
#[test]
fn the_summary_line_prints_the_compiled_waterline() {
    let plan = tmp("w28.plan");
    let plan_arg = plan.to_str().unwrap();
    for (args, want) in [
        (&["--waterline", "28", "--save-plan", plan_arg][..], "2^28"),
        (&["--load-plan", plan_arg], "2^28"),
        (&["--waterline", "30.29"], "2^31"),
    ] {
        let (code, stdout, stderr) = run_poly(&[args, &["--quiet"]].concat());
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(
            stdout.contains(&format!("| waterline {want} |")),
            "{args:?}: {stdout}"
        );
    }
    let _ = std::fs::remove_file(plan);
}

/// A hand-edited plan with a scale that is not a whole number of bits (a
/// config waterline of 30.29, or an `upscale` to 2^30.5) is a typed
/// rejection from the loader and exit 3 from `--load-plan`: no panic, and
/// no run.
#[test]
fn a_plan_with_a_fractional_scale_is_refused() {
    use hecate::compiler::{deserialize_plan, PlanError};
    use hecate::ir::verify::Invariant;

    let plan = tmp("fractional.plan");
    let plan_arg = plan.to_str().unwrap();
    let (code, _, stderr) = run_poly(&["--save-plan", plan_arg, "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let saved = std::fs::read_to_string(&plan).unwrap();
    let waterline = saved.replacen("waterline=24\n", "waterline=30.29\n", 1);
    let upscale: String = saved
        .lines()
        .map(|line| match line.split_once("= upscale ") {
            Some((def, args)) => format!(
                "{def}= upscale {}, 2^30.5\n",
                &args[..args.find(',').unwrap()]
            ),
            None => format!("{line}\n"),
        })
        .collect();
    for (edit, bits) in [(waterline, "2^30.29"), (upscale, "2^30.5")] {
        assert_ne!(edit, saved, "{bits}: the saved plan has no such line");
        let e = match deserialize_plan(&edit) {
            Err(PlanError::Verify(e)) => e,
            other => panic!("{bits}: {other:?}"),
        };
        assert_eq!(e.invariant, Invariant::Typing, "{e}");
        assert!(
            e.detail
                .contains(&format!("{bits} is not a whole number of bits")),
            "{e}"
        );

        std::fs::write(&plan, &edit).unwrap();
        let (code, stdout, stderr) = run_poly(&["--load-plan", plan_arg, "--run", "--quiet"]);
        assert_eq!(code, Some(3), "{bits}: {stdout}{stderr}");
        assert!(stderr.contains("not a whole number of bits"), "{stderr}");
        assert!(!stdout.contains("encrypted run"), "{stdout}");
    }
    let _ = std::fs::remove_file(plan);
}

/// The `output` lines of a `--run`.
fn output_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("  output"))
        .collect()
}

/// The security label follows the stored degree: the poly plan's 214-bit
/// chain edited onto degree 1024 is reported as insecure.
#[test]
fn a_plan_edited_to_a_small_degree_is_labelled_insecure() {
    let plan = tmp("degree.plan");
    let plan_arg = plan.to_str().unwrap();
    let (code, saved, stderr) = run_poly(&["--save-plan", plan_arg, "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        saved.contains("degree 8192 |") && saved.contains("| 128-bit secure"),
        "{saved}"
    );
    let text = std::fs::read_to_string(&plan).unwrap();
    let edit = text.replacen(" degree=8192\n", " degree=1024\n", 1);
    assert_ne!(edit, text);
    std::fs::write(&plan, edit).unwrap();
    let (code, loaded, stderr) = run_poly(&["--load-plan", plan_arg, "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(loaded.contains("degree 1024 |"), "{loaded}");
    assert!(loaded.contains("| NOT 128-bit secure"), "{loaded}");
    let _ = std::fs::remove_file(plan);
}

/// A plan in the earlier layout (every derived field on its `config` and
/// `params` lines, then a type table) still loads, and its derived fields
/// are not read: with `rescale=59` beside `sf=60` it runs exactly like the
/// unedited plan and like a fresh compile.
#[test]
fn an_old_plan_runs_on_its_stored_chain_whatever_its_derived_fields_say() {
    let legacy = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/poly-legacy.plan"),
    )
    .unwrap();
    let edit = legacy.replacen(" rescale=60 ", " rescale=59 ", 1);
    assert_ne!(edit, legacy);
    let (code, direct, stderr) = run_poly(&["--run", "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(output_lines(&direct).len(), 1, "{direct}");
    let plan = tmp("legacy.plan");
    let plan_arg = plan.to_str().unwrap();
    for text in [&legacy, &edit] {
        std::fs::write(&plan, text).unwrap();
        let (code, stdout, stderr) = run_poly(&["--load-plan", plan_arg, "--run", "--quiet"]);
        assert_eq!(code, Some(0), "stderr: {stderr}");
        assert!(stdout.contains("| Sf 2^60\n"), "{stdout}");
        assert_eq!(output_lines(&stdout), output_lines(&direct));
    }
    let _ = std::fs::remove_file(plan);
}

/// A base prime outside the 24–60 bits parameter selection searches is a
/// typed rejection (exit 3), not a silently different chain.
#[test]
fn a_base_prime_outside_the_search_range_is_refused() {
    let plan = tmp("q0.plan");
    let plan_arg = plan.to_str().unwrap();
    let (code, _, stderr) = run_poly(&["--save-plan", plan_arg, "--quiet"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let text = std::fs::read_to_string(&plan).unwrap();
    let edit = text.replacen("params q0=34 ", "params q0=70 ", 1);
    assert_ne!(edit, text);
    std::fs::write(&plan, edit).unwrap();
    let (code, stdout, stderr) = run_poly(&["--load-plan", plan_arg, "--run", "--quiet"]);
    assert_eq!(code, Some(3), "{stdout}{stderr}");
    assert!(stderr.contains("base prime of 70 bits"), "{stderr}");
    assert!(!stdout.contains("encrypted run"), "{stdout}");
    let _ = std::fs::remove_file(plan);
}
