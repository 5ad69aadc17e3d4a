//! Backend profiling: builds the measured cost table the paper's
//! performance estimator runs on (§VI-C).
//!
//! Each homomorphic operation is timed at every active-prime count of a
//! representative chain; the estimator then prices a compiled program by
//! summing table entries. The paper profiles SEAL the same way and finds
//! the per-op variance small enough for a 1.3% geomean estimation error.

use crate::exec::ExecError;
use hecate_ckks::{CkksEncoder, CkksParams, Encryptor, EvalKeys, Evaluator, KeyGenerator};
use hecate_compiler::{CostOp, CostTable};
use std::time::Instant;

/// Profiles every [`CostOp`] at every prefix of a `chain_len`-prime chain
/// at ring degree `degree`, timing each `reps` times and recording the
/// average.
///
/// # Errors
/// Returns [`ExecError`] if parameters or encodings fail.
pub fn profile_cost_table(
    degree: usize,
    q0_bits: u32,
    sf_bits: u32,
    chain_len: usize,
    reps: usize,
    seed: u64,
) -> Result<CostTable, ExecError> {
    assert!(chain_len >= 2, "profiling needs at least two primes");
    let params = CkksParams::new(degree, q0_bits, sf_bits, chain_len - 1, false)?;
    let encoder = CkksEncoder::new(&params);
    let mut kg = KeyGenerator::new(&params, seed);
    let pk = kg.public_key();
    // Keys at the top of the chain serve every level profiled below.
    let keys = EvalKeys::generate(&mut kg, &[chain_len], &[(1, chain_len)]);
    let mut encryptor = Encryptor::new(&params, pk, seed.wrapping_add(1));
    let eval = Evaluator::new(&params, keys);

    let mut table = CostTable::new(degree);
    let scale = (q0_bits.min(sf_bits) as f64 - 10.0).max(20.0);
    let data: Vec<f64> = (0..params.slots()).map(|i| (i % 7) as f64 * 0.25).collect();

    for level in 0..chain_len {
        let c = chain_len - level;
        let mut pt = encoder.encode(&data, scale, level)?;
        let ct = encryptor.encrypt(&pt);
        let ct2 = encryptor.encrypt(&pt);
        pt.poly.to_ntt(params.basis());

        let time = |f: &mut dyn FnMut()| -> f64 {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        };

        table.set(
            CostOp::AddCC,
            c,
            time(&mut || {
                eval.add(&ct, &ct2).expect("add");
            }),
        );
        table.set(
            CostOp::AddCP,
            c,
            time(&mut || {
                eval.add_plain(&ct, &pt).expect("add_plain");
            }),
        );
        table.set(
            CostOp::Negate,
            c,
            time(&mut || {
                eval.negate(&ct);
            }),
        );
        table.set(
            CostOp::MulCP,
            c,
            time(&mut || {
                eval.mul_plain(&ct, &pt).expect("mul_plain");
            }),
        );
        table.set(
            CostOp::MulCC,
            c,
            time(&mut || {
                eval.mul(&ct, &ct2).expect("mul");
            }),
        );
        table.set(
            CostOp::Rotate,
            c,
            time(&mut || {
                eval.rotate(&ct, 1).expect("rotate");
            }),
        );
        // The hoisted decomposition is paid once per fan-out group (by the
        // leader, costed as Rotate), so only the per-rotation remainder is
        // timed here.
        let hd = eval.hoist(&ct);
        table.set(
            CostOp::RotateHoisted,
            c,
            time(&mut || {
                eval.rotate_hoisted(&ct, &hd, 1).expect("rotate_hoisted");
            }),
        );
        if c >= 2 {
            // Rescale needs headroom above the waterline; time on a fresh
            // product so the scale is large enough.
            let prod = eval.mul(&ct, &ct2).expect("mul for rescale");
            table.set(
                CostOp::Rescale,
                c,
                time(&mut || {
                    eval.rescale(&prod).expect("rescale");
                }),
            );
            table.set(
                CostOp::ModSwitch,
                c,
                time(&mut || {
                    eval.mod_switch(&ct).expect("modswitch");
                }),
            );
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_table_has_level_structure() {
        let t = profile_cost_table(64, 45, 30, 4, 2, 7).unwrap();
        // Multiplication must get cheaper as primes drop.
        let c4 = t.get(CostOp::MulCC, 4).unwrap();
        let c1 = t.get(CostOp::MulCC, 1).unwrap();
        assert!(c4 > c1, "mul at 4 primes ({c4}µs) vs 1 prime ({c1}µs)");
        // Every category is present at the full prefix.
        for op in CostOp::ALL {
            if matches!(op, CostOp::Rescale | CostOp::ModSwitch) {
                continue;
            }
            assert!(t.get(op, 4).is_some(), "{op:?} missing");
        }
        assert!(t.get(CostOp::Rescale, 4).is_some());
    }
}
