//! The HECATE evaluation benchmarks (paper §VII-A) as IR builders.
//!
//! Six applications, eight benchmark configurations (the regressions run
//! at 2 and 3 epochs):
//!
//! | Name    | Module        | Paper shape                       |
//! |---------|---------------|-----------------------------------|
//! | SF      | [`sobel`]     | 64×64 image, 3×3 Sobel + √-poly   |
//! | HCD     | [`harris`]    | 64×64 image, Harris response      |
//! | MLP     | [`mlp`]       | 784×100×10, square activation     |
//! | LeNet   | [`lenet`]     | modified LeNet-5 (64-unit FC2)    |
//! | LR E2/3 | [`regression`]| 16384 samples, 2/3 GD epochs      |
//! | PR E2/3 | [`regression`]| quadratic, 2/3 GD epochs          |
//!
//! Every benchmark comes in two presets: `Paper` (the published shapes)
//! and `Small` (reduced dimensions with identical structure, so the full
//! suite runs under real encryption in CI time). Inputs are deterministic
//! synthetic workloads from [`workloads`].

#![warn(missing_docs)]

pub mod harris;
pub mod lenet;
pub mod linear;
pub mod logistic;
pub mod mlp;
pub mod regression;
pub mod sobel;
pub mod workloads;

use hecate_ir::Function;
use std::collections::HashMap;

/// Benchmark size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Reduced shapes for fast encrypted execution.
    Small,
    /// The shapes reported in the paper.
    Paper,
}

/// One runnable benchmark: a program and its input bindings.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name matching the paper ("SF", "LR E2", …).
    pub name: String,
    /// The input program.
    pub func: Function,
    /// Input bindings.
    pub inputs: HashMap<String, Vec<f64>>,
}

/// The paper's eight benchmark configurations, in presentation order.
pub fn all_benchmarks(preset: Preset) -> Vec<Benchmark> {
    let seed = 2022;
    let mk = |name: &str, (func, inputs): (Function, HashMap<String, Vec<f64>>)| Benchmark {
        name: name.to_string(),
        func,
        inputs,
    };
    type RegCfg = fn(usize, u64) -> regression::RegressionConfig;
    let (img, mlp_cfg, lenet_cfg, reg): (usize, mlp::MlpConfig, lenet::LenetConfig, RegCfg) =
        match preset {
            Preset::Small => (
                16,
                mlp::MlpConfig::small(seed),
                lenet::LenetConfig::small(seed),
                regression::RegressionConfig::small,
            ),
            Preset::Paper => (
                64,
                mlp::MlpConfig::paper(seed),
                lenet::LenetConfig::paper(seed),
                regression::RegressionConfig::paper,
            ),
        };
    vec![
        mk(
            "SF",
            sobel::build(&sobel::SobelConfig {
                h: img,
                w: img,
                seed,
            }),
        ),
        mk(
            "HCD",
            harris::build(&harris::HarrisConfig {
                h: img,
                w: img,
                seed,
            }),
        ),
        mk("MLP", mlp::build(&mlp_cfg)),
        mk("LeNet", lenet::build(&lenet_cfg)),
        mk("LR E2", regression::build_linear(&reg(2, seed))),
        mk("LR E3", regression::build_linear(&reg(3, seed))),
        mk("PR E2", regression::build_poly(&reg(2, seed))),
        mk("PR E3", regression::build_poly(&reg(3, seed))),
    ]
}

/// Looks up one benchmark by its paper name.
pub fn benchmark(name: &str, preset: Preset) -> Option<Benchmark> {
    all_benchmarks(preset).into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::interp::interpret;

    #[test]
    fn all_eight_benchmarks_build_and_interpret() {
        let benches = all_benchmarks(Preset::Small);
        assert_eq!(benches.len(), 8);
        let names: Vec<&str> = benches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(
            names,
            ["SF", "HCD", "MLP", "LeNet", "LR E2", "LR E3", "PR E2", "PR E3"]
        );
        for b in &benches {
            assert!(b.func.verify_structure().is_ok(), "{}", b.name);
            let out = interpret(&b.func, &b.inputs).unwrap();
            assert!(!out.is_empty(), "{} has outputs", b.name);
            for (name, v) in &out {
                assert!(
                    v.iter().all(|x| x.is_finite()),
                    "{}::{name} produced non-finite values",
                    b.name
                );
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("LeNet", Preset::Small).is_some());
        assert!(benchmark("LR E3", Preset::Small).is_some());
        assert!(benchmark("nope", Preset::Small).is_none());
    }

    #[test]
    fn paper_preset_uses_paper_shapes() {
        let sf = benchmark("SF", Preset::Paper).unwrap();
        assert_eq!(sf.func.vec_size, 4096);
        let lr = benchmark("LR E2", Preset::Paper).unwrap();
        assert_eq!(lr.func.vec_size, 16384);
    }

    #[test]
    fn small_benchmarks_are_within_encrypted_reach() {
        for b in all_benchmarks(Preset::Small) {
            assert!(
                b.func.vec_size <= 256,
                "{}: vec {}",
                b.name,
                b.func.vec_size
            );
        }
    }
}
