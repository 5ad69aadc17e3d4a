//! Fig. 7 — minimum latency per benchmark for EVA / PARS / SMSE / HECATE.
//!
//! For every benchmark and scheme, sweeps the waterlines, filters
//! configurations whose (simulated) RMS error exceeds 2⁻⁸, picks the one
//! with the best estimated latency, executes it under encryption, and
//! reports measured latency plus speedup over EVA. Ends with the geometric
//! mean speedups the paper's headline 27% figure corresponds to.
//!
//! Usage: `cargo run --release -p hecate-bench --bin fig7 [--full]`

use hecate_bench::{benchmarks, fmt_us, geomean, run_benchmark, HarnessConfig};
use hecate_compiler::Scheme;

fn main() {
    let cfg = HarnessConfig::from_args(None);
    println!("Fig. 7 — minimum latency per benchmark per scheme");
    println!(
        "(preset: {:?}, degree {}, {} waterlines, error bound 2^-8)\n",
        cfg.preset,
        cfg.degree,
        cfg.waterlines.len()
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}   {:>8} {:>8} {:>8}",
        "bench", "EVA", "PARS", "SMSE", "HECATE", "PARS×", "SMSE×", "HEC×"
    );

    let mut speedups: Vec<(Scheme, Vec<f64>)> = vec![
        (Scheme::Pars, Vec::new()),
        (Scheme::Smse, Vec::new()),
        (Scheme::Hecate, Vec::new()),
    ];

    for bench in benchmarks(&cfg) {
        // A failed run is not an infeasible `-` cell: report it and stop.
        let results = run_benchmark(&bench, &cfg).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        });
        let latency = |s: Scheme| {
            results
                .iter()
                .find(|(sc, _)| *sc == s)
                .and_then(|(_, m)| m.as_ref().map(|m| m.measured_us))
        };
        let eva = latency(Scheme::Eva);
        let cols: Vec<String> = Scheme::ALL
            .iter()
            .map(|&s| latency(s).map(fmt_us).unwrap_or_else(|| "-".into()))
            .collect();
        let ratio = |s: Scheme| -> String {
            match (eva, latency(s)) {
                (Some(e), Some(v)) if v > 0.0 => format!("{:.2}", e / v),
                _ => "-".into(),
            }
        };
        for (s, acc) in speedups.iter_mut() {
            if let (Some(e), Some(v)) = (eva, latency(*s)) {
                if v > 0.0 {
                    acc.push(e / v);
                }
            }
        }
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>10}   {:>8} {:>8} {:>8}",
            bench.name,
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            ratio(Scheme::Pars),
            ratio(Scheme::Smse),
            ratio(Scheme::Hecate),
        );
    }

    println!();
    for (s, acc) in &speedups {
        if acc.is_empty() {
            continue;
        }
        let g = geomean(acc);
        println!(
            "geomean speedup {s} over EVA: {g:.2}x ({:+.1}%)",
            (g - 1.0) * 100.0
        );
    }
    println!("\npaper reference: PARS +13.38%, SMSE +21.35%, HECATE +27.38% (avg)");
}
