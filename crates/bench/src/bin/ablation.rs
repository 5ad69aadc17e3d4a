//! Ablation study of HECATE's design choices (beyond the paper's tables).
//!
//! DESIGN.md calls out three separable mechanisms; this harness measures
//! the estimated-latency cost of removing each one:
//!
//! - SMU **operation-aware split** (Algorithm 1 phase 2),
//! - SMU **user-aware split** (Algorithm 1 phase 3),
//! - the **early-modswitch** motion inherited from EVA.
//!
//! Usage: `cargo run --release -p hecate-bench --bin ablation [--full]`

use hecate_bench::{benchmarks, HarnessConfig};
use hecate_compiler::planner::explore;
use hecate_compiler::smu::{analyze_with, SmuOptions};

fn main() {
    let cfg = HarnessConfig::from_args(None);
    let w = 24.0;

    println!("Ablations at waterline {w} (estimated latency, µs; plans explored)");
    println!(
        "\n{:<8} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6} | {:>9} {:>6}",
        "bench", "full", "plans", "no-op2", "plans", "no-user3", "plans", "no-early", "plans"
    );

    let variants: [(&str, SmuOptions, bool); 4] = [
        ("full", SmuOptions::default(), true),
        (
            "no-op-split",
            SmuOptions {
                operation_split: false,
                user_split: true,
            },
            true,
        ),
        (
            "no-user-split",
            SmuOptions {
                operation_split: true,
                user_split: false,
            },
            true,
        ),
        ("no-early-ms", SmuOptions::default(), false),
    ];

    for bench in benchmarks(&cfg) {
        // The program `compile` explores.
        let canon = hecate_ir::transform::canonicalize(&bench.func);
        let mut cells = Vec::new();
        for (_, smu_opts, early) in &variants {
            let mut opts = cfg.compile_opts(w);
            opts.early_modswitch = *early;
            let analysis = analyze_with(&canon, w, smu_opts);
            match explore(&canon, &analysis, true, &opts, None) {
                Ok(out) => cells.push((out.best.cost_us, out.plans_explored)),
                Err(_) => cells.push((f64::NAN, 0)),
            }
        }
        println!(
            "{:<8} | {:>9.0} {:>6} | {:>9.0} {:>6} | {:>9.0} {:>6} | {:>9.0} {:>6}",
            bench.name,
            cells[0].0,
            cells[0].1,
            cells[1].0,
            cells[1].1,
            cells[2].0,
            cells[2].1,
            cells[3].0,
            cells[3].1,
        );
    }
    println!(
        "\nReading: coarser units (fewer split phases) shrink the explored-plan count \
         but can miss plans; no-early equals full because on these HECATE (PARS) \
         plans the early-modswitch motion moves nothing: it matters for EVA's \
         reactive rescaling, not here."
    );
}
