//! Table II — RMS error of the compiled programs at their best waterline.
//!
//! Mirrors Fig. 7's selection procedure and reports the *measured* RMS
//! error of each winner under real encryption (the paper's point: smaller
//! error does not imply a better configuration, only the bound matters).
//!
//! Usage: `cargo run --release -p hecate-bench --bin table2 [--full]`

use hecate_bench::{benchmarks, run_benchmark, HarnessConfig};

fn main() {
    let cfg = HarnessConfig::from_args(None);
    println!(
        "Table II — RMS error at the selected configuration (bound 2^-8 = {:.2e})",
        2f64.powi(-8)
    );
    println!(
        "(preset: {:?}, degree {}, {} waterlines)\n",
        cfg.preset,
        cfg.degree,
        cfg.waterlines.len()
    );
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "bench", "EVA", "PARS", "SMSE", "HECATE"
    );
    for bench in benchmarks(&cfg) {
        // A failed run is not an infeasible `-` cell: report it and stop.
        let results = run_benchmark(&bench, &cfg).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        });
        let cells: Vec<String> = results
            .iter()
            .map(|(_, m)| {
                m.as_ref()
                    .map(|m| format!("{:.3e}", m.measured_rmse))
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12}",
            bench.name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!(
        "\n(waterline selection filtered on simulated error; cells are measured under encryption)"
    );
}
