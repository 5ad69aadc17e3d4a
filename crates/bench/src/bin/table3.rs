//! Table III — search-space reduction from scale management units.
//!
//! For each benchmark: the use–def edge count, the SMU count, and the
//! epochs/plan counts of the naïve per-use exploration versus HECATE's
//! SMU-based exploration. The naïve run is capped (the paper measured up
//! to 1.48M plans / 649 hours); capped rows are marked `≥`.
//!
//! Usage: `cargo run --release -p hecate-bench --bin table3 [--full] [--naive-budget N]`

use hecate_bench::{benchmarks, HarnessConfig};
use hecate_compiler::planner::{explore_naive, explore_smu};
use hecate_compiler::smu;
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
        let analysis = smu::analyze(&bench.func, w);

        let t0 = Instant::now();
        let hec = explore_smu(&bench.func, &analysis, true, &opts).expect("smu exploration");
        let hec_time = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let naive = explore_naive(&bench.func, true, &opts, Some(budget)).ok();
        let naive_time = t1.elapsed().as_secs_f64();

        let (n_epoch, n_plans, capped) = naive
            .map(|n| (n.epochs, n.plans_explored, n.capped))
            .unwrap_or((0, 0, true));
        // When capped, extrapolate the plan count the naïve climb would
        // need to reach HECATE's epochs (a lower bound; the paper's
        // measurements show the naïve scheme needs at least as many).
        let n_est = if capped {
            (uses * (hec.epochs + 1) + 1).max(n_plans)
        } else {
            n_plans
        };
        let n_plans_str = if capped {
            format!("≥{n_est}")
        } else {
            format!("{n_plans}")
        };
        let reduction = if hec.plans_explored > 0 {
            format!("{:.1}x", n_est as f64 / hec.plans_explored as f64)
        } else {
            "-".into()
        };
        println!(
            "{:<8} {:>7} {:>5} | {:>8} {:>10} {:>7.1}s | {:>6} {:>7} {:>7.1}s | {:>9}",
            bench.name,
            uses,
            analysis.unit_count,
            if capped {
                format!("≥{n_epoch}")
            } else {
                format!("{n_epoch}")
            },
            n_plans_str,
            naive_time,
            hec.epochs,
            hec.plans_explored,
            hec_time,
            reduction,
        );
    }
    println!("\npaper reference: e.g. LeNet 11735 uses → 48 SMUs; 1.48E6 naïve plans (649 h) vs 340 s for HECATE");
}
