//! Table III — search-space reduction from scale management units.
//!
//! For each benchmark: the use–def edge count, the SMU count, and the
//! epochs/plan counts of the naïve per-use exploration versus HECATE's
//! SMU-based exploration. The naïve run is capped (the paper measured up
//! to 1.48M plans / 649 hours); capped rows are marked `≥`.
//!
//! Usage: `cargo run --release -p hecate-bench --bin table3 [--full] [--naive-budget N]`

use hecate_bench::{benchmarks, HarnessConfig};
use hecate_compiler::planner::explore;
use hecate_compiler::smu::SmuAnalysis;
use hecate_compiler::{compile, Scheme};
use std::time::Instant;

fn main() {
    let mut budget = 1500;
    let cfg = HarnessConfig::from_args(Some(&mut budget));
    let w = 24.0;
    let opts = cfg.compile_opts(w);

    println!("Table III — SMU search-space reduction (waterline {w}, naïve budget {budget} plans)");
    println!(
        "\n{:<8} {:>7} {:>5} | {:>8} {:>10} {:>8} | {:>6} {:>7} {:>8} | {:>9}",
        "bench",
        "uses",
        "SMU",
        "n.epoch",
        "n.plans",
        "n.time",
        "epoch",
        "plans",
        "time",
        "reduction"
    );

    for bench in benchmarks(&cfg) {
        let uses = hecate_ir::analysis::use_edge_count(&bench.func);

        let t0 = Instant::now();
        let hec = compile(&bench.func, Scheme::Hecate, &opts)
            .expect("HECATE compile")
            .stats;
        let hec_time = t0.elapsed().as_secs_f64();

        let canon = hecate_ir::transform::canonicalize(&bench.func);
        let naive_units = SmuAnalysis::per_value(&canon);
        let t1 = Instant::now();
        let naive = explore(&canon, &naive_units, true, &opts, Some(budget)).ok();
        let naive_time = t1.elapsed().as_secs_f64();

        let (n_epoch, n_plans, capped) = naive
            .map(|n| (n.epochs, n.plans_explored, n.capped))
            .unwrap_or((0, 0, true));
        // When capped, extrapolate the plan count the naïve climb would
        // need to reach HECATE's epochs over the edges it climbs (a lower
        // bound; the paper's measurements show the naïve scheme needs at
        // least as many).
        let n_est = if capped {
            (naive_units.edges.len() * (hec.epochs + 1) + 1).max(n_plans)
        } else {
            n_plans
        };
        let ge = if capped { "≥" } else { "" };
        println!(
            "{:<8} {:>7} {:>5} | {:>8} {:>10} {:>7.1}s | {:>6} {:>7} {:>7.1}s | {:>9}",
            bench.name,
            uses,
            hec.smu_units,
            format!("{ge}{n_epoch}"),
            format!("{ge}{n_est}"),
            naive_time,
            hec.epochs,
            hec.plans_explored,
            hec_time,
            format!("{ge}{:.1}x", n_est as f64 / hec.plans_explored as f64),
        );
    }
    println!("\npaper reference: e.g. LeNet 11735 uses → 48 SMUs; 1.48E6 naïve plans (649 h) vs 340 s for HECATE");
}
