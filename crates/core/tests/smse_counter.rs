//! `hecate_smse_iters_total` counts hill-climbing iterations only: EVA and
//! PARS lower one plan and leave it alone. The counter is process-global,
//! so this file holds a single test — no other compile runs beside it.

use hecate_compiler::{compile, CompileOptions, Scheme};
use hecate_ir::FunctionBuilder;

#[test]
fn only_exploring_schemes_count_smse_iterations() {
    let mut b = FunctionBuilder::new("motivating", 4);
    let x = b.input_cipher("x");
    let y = b.input_cipher("y");
    let x2 = b.square(x);
    let y2 = b.square(y);
    let z = b.add(x2, y2);
    let z2 = b.mul(z, z);
    let z3 = b.mul(z2, z);
    b.output(z3);
    let func = b.finish();
    let opts = CompileOptions::with_waterline(20.0);
    let iters = hecate_telemetry::metrics::global().counter("hecate_smse_iters_total");

    let before = iters.get();
    for scheme in [Scheme::Eva, Scheme::Pars] {
        compile(&func, scheme, &opts).unwrap();
    }
    assert_eq!(iters.get(), before, "EVA and PARS do not climb");

    let hecate = compile(&func, Scheme::Hecate, &opts).unwrap();
    assert_eq!(
        iters.get() - before,
        hecate.stats.epochs as u64 + 1,
        "one iteration per epoch plus the one that finds the hilltop"
    );
}
