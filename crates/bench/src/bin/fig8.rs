//! Fig. 8 — estimated vs actual latency across the sweep.
//!
//! Compiles every (benchmark × scheme × waterline) setting with a
//! *profiled* cost table (as the paper does: per-op latencies measured on
//! the execution backend, here by a calibration run through the
//! executor), executes each feasible setting under encryption, and
//! reports the relative estimation error. The paper finds a 1.3%
//! geometric-mean and 4.8% maximum error over 1152 settings.
//!
//! Usage: `cargo run --release -p hecate-bench --bin fig8 [--full]`

use hecate_backend::calibrate;
use hecate_backend::exec::BackendOptions;
use hecate_bench::{benchmarks, estimate_vs_actual, geomean, HarnessConfig};
use hecate_compiler::{CostModel, Scheme};
use std::sync::Arc;

fn main() {
    let mut cfg = HarnessConfig::from_args(None);
    // Calibrate the backend at the execution degree with a representative
    // chain, exactly as §VI-C prescribes.
    eprintln!("calibrating backend at degree {} ...", cfg.degree);
    let table = calibrate(cfg.degree, 14, 9, 11).expect("calibration");
    cfg.cost_model = CostModel::Profiled(Arc::new(table));

    println!("Fig. 8 — estimated vs actual latency");
    println!(
        "(preset: {:?}, degree {}, {} waterlines, profiled cost model)\n",
        cfg.preset,
        cfg.degree,
        cfg.waterlines.len()
    );
    println!(
        "{:<8} {:>7} {:>5} {:>12} {:>12} {:>8}",
        "bench", "scheme", "w", "estimated", "actual", "rel.err"
    );

    let backend = BackendOptions {
        degree_override: Some(cfg.degree),
        seed: 7,
        ..BackendOptions::default()
    };
    let mut rel_errors = Vec::new();
    for bench in benchmarks(&cfg) {
        let needs = cfg.effective_degree(&bench);
        if needs != cfg.degree {
            println!(
                "{:<8} skipped: needs degree {needs}, the cost table is calibrated at {}",
                bench.name, cfg.degree
            );
            continue;
        }
        for scheme in Scheme::ALL {
            for &w in &cfg.waterlines {
                // A failed run is not an infeasible waterline: report it
                // and stop.
                let cell = estimate_vs_actual(&bench, scheme, w, &cfg, &backend);
                let Some((est, act)) = cell.unwrap_or_else(|e| {
                    eprintln!("waterline {w}: {e}");
                    std::process::exit(1)
                }) else {
                    continue;
                };
                let rel = (est - act).abs() / act;
                rel_errors.push(rel);
                println!(
                    "{:<8} {:>7} {:>5} {:>11.0}µs {:>11.0}µs {:>7.1}%",
                    bench.name,
                    scheme.to_string(),
                    w,
                    est,
                    act,
                    rel * 100.0
                );
            }
        }
    }

    if rel_errors.is_empty() {
        println!("no feasible settings");
        return;
    }
    let max = rel_errors.iter().fold(0.0f64, |m, v| m.max(*v));
    // Geomean over (1 + err) − 1 keeps zero errors well-defined.
    let shifted: Vec<f64> = rel_errors.iter().map(|e| 1.0 + e).collect();
    let gm = geomean(&shifted) - 1.0;
    println!(
        "\n{} settings | geomean relative error {:.1}% | max {:.1}%",
        rel_errors.len(),
        gm * 100.0,
        max * 100.0
    );
    println!("paper reference: 1152 settings, geomean 1.3%, max 4.8%");
}
