//! §II-C observation — operation latency versus rescaling level.
//!
//! Profiles every homomorphic operation at every level of a chain and
//! prints the latency table plus the level-1/level-0 multiplication ratio
//! (the paper reports 2.25× on SEAL; the exact constant is
//! backend-specific, the monotone super-linear drop is the point).
//!
//! Usage: `cargo run --release -p hecate-bench --bin oplatency [--full]`

use hecate_backend::profile_cost_table;
use hecate_bench::HarnessConfig;
use hecate_compiler::CostOp;

fn main() {
    let cfg = HarnessConfig::from_args(None);
    let chain_len = 8;
    eprintln!("profiling backend at degree {} ...", cfg.degree);
    let table = profile_cost_table(cfg.degree, 40, 40, chain_len, 5, 3).expect("profiling");

    println!(
        "Operation latency by level (degree {}, chain of {chain_len} primes), µs\n",
        cfg.degree
    );
    print!("{:<10}", "level");
    for level in 0..chain_len {
        print!("{:>10}", level);
    }
    println!();
    print!("{:<10}", "(primes)");
    for level in 0..chain_len {
        print!("{:>10}", chain_len - level);
    }
    println!("\n");
    for op in CostOp::ALL {
        print!("{:<10}", format!("{op:?}"));
        for level in 0..chain_len {
            let c = chain_len - level;
            match table.get(op, c) {
                Some(us) => print!("{us:>10.0}"),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }

    println!("\nct×ct multiplication speedup per consumed level:");
    for c in (2..=chain_len).rev() {
        if let (Some(hi), Some(lo)) = (table.get(CostOp::MulCC, c), table.get(CostOp::MulCC, c - 1))
        {
            println!("  {} → {} primes: {:.2}x faster", c, c - 1, hi / lo);
        }
    }
    println!("paper reference (SEAL, i7-8700, their chain): level 1 is 2.25x faster than level 0");
}
