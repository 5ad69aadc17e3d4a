//! §II-C observation — operation latency versus rescaling level.
//!
//! Calibrates every homomorphic operation at every level of a chain and
//! prints the measured latency table (`-` where nothing was measured, e.g.
//! a rescale on the last prime) plus the level-1/level-0 multiplication
//! ratio (the paper reports 2.25× on SEAL; the exact constant is
//! backend-specific, the monotone super-linear drop is the point).
//!
//! Usage: `cargo run --release -p hecate-bench --bin oplatency [--full]`

use hecate_backend::calibrate;
use hecate_bench::HarnessConfig;
use hecate_compiler::CostOp;
use std::collections::HashMap;

fn main() {
    let cfg = HarnessConfig::from_args(None);
    let chain_len = 8;
    eprintln!("calibrating backend at degree {} ...", cfg.degree);
    let table = calibrate(cfg.degree, chain_len, 5, 3).expect("calibration");
    let measured: HashMap<(CostOp, usize), f64> = table
        .measurements()
        .map(|(op, c, us)| ((op, c), us))
        .collect();

    println!(
        "Operation latency by level (degree {}, chain of {chain_len} primes), µs\n",
        cfg.degree
    );
    print!("{:<14}", "level");
    for level in 0..chain_len {
        print!("{:>10}", level);
    }
    println!();
    print!("{:<14}", "(primes)");
    for level in 0..chain_len {
        print!("{:>10}", chain_len - level);
    }
    println!("\n");
    for op in CostOp::ALL {
        print!("{:<14}", format!("{op:?}"));
        for level in 0..chain_len {
            let c = chain_len - level;
            match measured.get(&(op, c)) {
                Some(us) => print!("{us:>10.0}"),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }

    println!("\nct×ct multiplication speedup per consumed level:");
    for c in (2..=chain_len).rev() {
        if let (Some(hi), Some(lo)) = (
            measured.get(&(CostOp::MulCC, c)),
            measured.get(&(CostOp::MulCC, c - 1)),
        ) {
            println!("  {} → {} primes: {:.2}x faster", c, c - 1, hi / lo);
        }
    }
    println!("paper reference (SEAL, i7-8700, their chain): level 1 is 2.25x faster than level 0");
}
