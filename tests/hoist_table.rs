//! The hoisting table of the eight Small benchmarks under HECATE at
//! waterline 24 and degree 4096: per program, its hoist groups, the
//! rotations those groups share decompositions across, and its lone
//! rotations — read from the one lowering the estimator prices and the
//! executor runs, at solo and packed occupancies alike.

use hecate::apps::{all_benchmarks, Preset};
use hecate::compiler::{compile, CompileOptions, HoistRole, Lowering, Scheme};

#[test]
fn small_benchmarks_hoist_as_pinned() {
    // (program, hoist groups, hoisted rotations, lone rotations)
    let table = [
        ("SF", 1, 8, 0),
        ("HCD", 4, 32, 0),
        ("MLP", 2, 81, 0),
        ("LeNet", 5, 489, 0),
        ("LR E2", 0, 0, 32),
        ("LR E3", 0, 0, 48),
        ("PR E2", 0, 0, 48),
        ("PR E3", 0, 0, 72),
    ];
    let mut opts = CompileOptions::with_waterline(24.0);
    opts.degree = Some(4096);
    let benches = all_benchmarks(Preset::Small);
    assert_eq!(benches.len(), table.len());
    for (bench, &(name, groups, hoisted, lone)) in benches.iter().zip(&table) {
        assert_eq!(bench.name, name);
        let prog = compile(&bench.func, Scheme::Hecate, &opts).expect("benchmark compiles");
        for occupancy in [1, 2, 4] {
            let chain_len = prog.params.chain_len;
            let lowering = Lowering::new(&prog.func, &prog.types, chain_len, 2048, occupancy);
            let mut counts = (0, 0, 0);
            for op in lowering.ops() {
                match op.rotation {
                    None | Some((0, _)) => {}
                    Some((_, HoistRole::Leader)) => {
                        counts.0 += 1;
                        counts.1 += 1;
                    }
                    Some((_, HoistRole::Follower { .. })) => counts.1 += 1,
                    Some((_, HoistRole::Lone)) => counts.2 += 1,
                }
            }
            assert_eq!(
                counts,
                (groups, hoisted, lone),
                "{name} at occupancy {occupancy}"
            );
        }
    }
}
