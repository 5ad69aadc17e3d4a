//! Backend calibration: the measured cost table the paper's performance
//! estimator runs on (§VI-C).
//!
//! There is one timing source. A small program that exercises every
//! [`hecate_compiler::CostOp`] at every level is compiled and run through
//! the ordinary executor, and [`CostTable::from_trace`] folds its
//! `exec-op` spans — so the table prices exactly the kernels a real run
//! performs, a rotation fan-out's hoisted leader included.

use crate::exec::{execute_sequential, BackendOptions, ExecEngine};
use hecate_compiler::{compile, CompileOptions, CostTable, Scheme};
use hecate_telemetry::{recorder, trace};
use std::{collections::HashMap, error::Error, sync::Arc};

/// Measures every cost category at every prefix of a `chain_len`-prime
/// chain at ring degree `degree`: compiles a calibration program with EVA,
/// runs it `reps` times on one engine (keys from `seed`) under a
/// [`recorder::Level::Full`] hold, and folds this thread's `exec-op` spans
/// from that window. The store is read, never drained, so an enclosing
/// trace still sees the whole invocation.
///
/// At every level the program adds the previous level's value (a
/// modswitch; at level 0 the value itself), adds and multiplies a
/// plaintext, negates, rotates one value by two steps (a fan-out leader
/// and a hoisted follower) and squares it, each result an output. It then
/// descends one level: x⁵ sits one 60-bit rescale prime above the 15-bit
/// waterline, so EVA rescales it once. The last level's descent is dead
/// and compiled away, so the chain is exactly `chain_len` primes long.
///
/// # Errors
/// Returns the compile or execution error if either fails.
pub fn calibrate(
    degree: usize,
    chain_len: usize,
    reps: usize,
    seed: u64,
) -> Result<CostTable, Box<dyn Error + Send + Sync>> {
    let mut b = hecate_ir::FunctionBuilder::new("calibrate", 8);
    let (mut x, half) = (b.input_cipher("x"), b.splat(0.5));
    let mut prev = x;
    for _ in 0..chain_len {
        let sq = b.square(x);
        let ops = [b.add(x, prev), b.add(x, half), b.mul(x, half), b.neg(x)];
        let rest = [b.rotate(x, 1), b.rotate(x, 2), sq];
        ops.into_iter().chain(rest).for_each(|v| b.output(v));
        let x4 = b.square(sq);
        (prev, x) = (x, b.mul(x4, x));
    }
    let mut o = CompileOptions::with_waterline(15.0);
    o.degree = Some(degree);
    let backend = BackendOptions {
        seed,
        ..BackendOptions::default()
    };
    let engine = ExecEngine::new(Arc::new(compile(&b.finish(), Scheme::Eva, &o)?), &backend)?;
    let inputs = HashMap::from([("x".to_string(), vec![0.9, -0.7, 0.5, -0.3])]);
    let _hold = recorder::hold(recorder::Level::Full);
    let (started, tid) = (trace::now_ns(), trace::current_tid());
    (0..reps).try_for_each(|_| execute_sequential(&engine, &inputs).map(drop))?;
    let mut events = recorder::snapshot();
    events.retain(|ev| ev.ts_ns >= started && ev.tid == tid);
    Ok(CostTable::from_trace(&events, degree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_compiler::CostOp;
    use std::collections::BTreeSet;

    #[test]
    fn calibration_fills_every_cell() {
        let table = calibrate(64, 4, 1, 7).unwrap();
        let cells: BTreeSet<(CostOp, usize)> =
            table.measurements().map(|(op, c, _)| (op, c)).collect();
        let want: BTreeSet<(CostOp, usize)> = CostOp::ALL
            .into_iter()
            .flat_map(|op| {
                let lowest = match op {
                    CostOp::Rescale | CostOp::ModSwitch => 2,
                    _ => 1,
                };
                (lowest..=4).map(move |c| (op, c))
            })
            .collect();
        assert_eq!(cells, want);
    }

    #[test]
    fn calibrated_mulcc_is_nondecreasing_in_primes() {
        let table = calibrate(64, 4, 2, 7).unwrap();
        let mul: Vec<f64> = (1..=4)
            .map(|c| table.get(CostOp::MulCC, c).unwrap())
            .collect();
        assert!(mul.windows(2).all(|w| w[0] <= w[1]), "{mul:?}");
    }

    #[test]
    fn calibration_leaves_the_store_undrained() {
        let _hold = recorder::hold(recorder::Level::Full);
        trace::mark_with("before-calibrate", Vec::new);
        let tid = trace::current_tid();
        calibrate(64, 2, 1, 7).unwrap();
        let kept = recorder::snapshot();
        assert!(kept
            .iter()
            .any(|ev| ev.name == "before-calibrate" && ev.tid == tid));
    }
}
