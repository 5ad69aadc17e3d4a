//! RNS parameter selection for a compiled program.
//!
//! Given the scale-managed program, selection finds the shortest modulus
//! chain satisfying C1 at every level: the available modulus at level `k`
//! is `q0 + S_f·(chain_len − 1 − k)` bits, and every value at level `k`
//! needs its scale plus a decode margin to fit. A lower cumulative scale
//! therefore yields a shorter chain — this is exactly how proactive
//! rescaling translates into latency (the paper's "cumulative scale defines
//! the initial level of the program").

use crate::options::{CompileError, CompileOptions};
use hecate_ir::types::{Type, TypeConfig};
use hecate_ir::Function;
use std::ops::RangeInclusive;

/// The base-prime search range: NTT-friendly primes must fit in a word and
/// stay clear of degenerate tiny moduli. A loaded plan's `q0` must lie here.
pub const Q0_BITS: RangeInclusive<u32> = 24..=60;

/// The rescale prime sizes (`S_f`) a loaded plan may name: those the
/// backend's `CkksParams::new` generates primes for.
pub const SF_BITS: RangeInclusive<u32> = 20..=61;

/// The largest ring degree parameter selection picks (and a loaded plan
/// may name).
pub const MAX_DEGREE: usize = 32768;

// `parse_function` refuses a program wider than the slots of the largest
// ring, so no parsed program asks the executor for more.
const _: () = assert!(hecate_ir::parse::MAX_VEC_SIZE == MAX_DEGREE / 2);

/// The selected RNS parameters for one compiled program. A plan stores
/// `q0_bits`, `sf_bits`, `chain_len` and `degree`; [`SelectedParams::new`]
/// derives the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedParams {
    /// Base prime size (bits).
    pub q0_bits: u32,
    /// Rescale prime size `S_f` (bits).
    pub sf_bits: u32,
    /// Total chain length (base + rescale primes).
    pub chain_len: usize,
    /// Highest rescaling level any value reaches.
    pub max_level: usize,
    /// Total modulus bits including the special key-switch prime.
    pub total_bits: u32,
    /// Ring degree: the configured one, or the smallest 128-bit-secure
    /// degree for `total_bits`.
    pub degree: usize,
    /// Whether (degree, total_bits) meets the 128-bit security table.
    pub secure: bool,
}

impl SelectedParams {
    /// The parameters of a `chain_len`-prime chain (`chain_len ≥ 1`) whose
    /// values reach level `max_level`: the total counts the special prime
    /// (sized like the largest chain prime), `degree: None` picks the
    /// smallest 128-bit-secure degree for it, and `secure` is read off the
    /// security table for the degree in hand.
    pub fn new(
        q0_bits: u32,
        sf_bits: u32,
        chain_len: usize,
        degree: Option<usize>,
        max_level: usize,
    ) -> SelectedParams {
        // Saturating: a loaded plan's chain length is outside input, and a
        // wrapped total could read as secure.
        let total = u64::from(sf_bits)
            .saturating_mul(chain_len as u64 - 1)
            .saturating_add(u64::from(q0_bits) + u64::from(q0_bits.max(sf_bits)));
        let total_bits = u32::try_from(total).unwrap_or(u32::MAX);
        let degree = degree.unwrap_or_else(|| min_secure_degree(total_bits).unwrap_or(MAX_DEGREE));
        SelectedParams {
            q0_bits,
            sf_bits,
            chain_len,
            max_level,
            total_bits,
            degree,
            secure: max_modulus_bits_128(degree).is_some_and(|m| total_bits <= m),
        }
    }

    /// The type environment of a plan compiled at `waterline` on this
    /// chain: `S_f` is the rescale prime size, and C1 is bound to the
    /// chain, so at level `k` scales must fit `q0 + S_f·(chain_len − 1 − k)`
    /// bits. Final verification, the plan loader and the executor all
    /// read this one config.
    pub fn type_config(&self, waterline: f64) -> TypeConfig {
        let sf = f64::from(self.sf_bits);
        TypeConfig {
            max_level: Some(self.chain_len - 1),
            modulus_bits: Some(f64::from(self.q0_bits) + sf * (self.chain_len - 1) as f64),
            ..TypeConfig::new(waterline, sf)
        }
    }
}

/// Security bound table (mirrors `hecate_ckks::params::max_modulus_bits_128`;
/// duplicated here so the compiler crate stays backend-independent).
fn max_modulus_bits_128(degree: usize) -> Option<u32> {
    match degree {
        1024 => Some(27),
        2048 => Some(54),
        4096 => Some(109),
        8192 => Some(218),
        16384 => Some(438),
        32768 => Some(881),
        _ => None,
    }
}

fn min_secure_degree(total_bits: u32) -> Option<usize> {
    [1024usize, 2048, 4096, 8192, 16384, 32768]
        .into_iter()
        .find(|&d| max_modulus_bits_128(d).is_some_and(|m| total_bits <= m))
}

/// Selects the shortest feasible modulus chain for a typed program.
///
/// # Errors
/// Returns [`CompileError::NoParameters`] if some value's scale cannot fit
/// any chain within `opts.max_chain_len`.
pub fn select_params(
    func: &Function,
    types: &[Type],
    opts: &CompileOptions,
) -> Result<SelectedParams, CompileError> {
    let sf = opts.type_config().sf_bits;
    let margin = opts.margin_bits;
    // Scale requirement per level.
    let mut need: Vec<f64> = Vec::new();
    for v in func.value_ids() {
        let t = types[v.index()];
        if let (Some(scale), Some(level)) = (t.scale(), t.level()) {
            if level >= need.len() {
                need.resize(level + 1, 0.0);
            }
            need[level] = need[level].max(scale + margin);
        }
    }
    if need.is_empty() {
        return Err(CompileError::NoParameters {
            reason: "program has no scaled values".into(),
        });
    }
    // Find the smallest chain length ≥ max_level+1 for which a base prime
    // in `Q0_BITS` covers every level's requirement.
    let max_level = need.len() - 1;
    for chain_len in (max_level + 1)..=opts.max_chain_len {
        // q0 + sf·(chain_len−1−k) ≥ need[k]  for all k.
        let q0_req = need
            .iter()
            .enumerate()
            .map(|(k, &n)| n - sf * (chain_len - 1 - k) as f64)
            .fold(f64::from(*Q0_BITS.start()), f64::max);
        if q0_req <= f64::from(*Q0_BITS.end()) {
            let q0_bits = q0_req.ceil() as u32;
            return Ok(SelectedParams::new(
                q0_bits,
                sf as u32,
                chain_len,
                opts.degree,
                max_level,
            ));
        }
    }
    Err(CompileError::NoParameters {
        reason: format!(
            "scale requirements {need:?} exceed a {}-prime chain",
            opts.max_chain_len
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::types::{infer_types, TypeConfig};
    use hecate_ir::{Function, Op};

    fn opts(w: f64, sf: f64) -> CompileOptions {
        let mut o = CompileOptions::with_waterline(w);
        o.sf_bits = sf;
        o
    }

    fn typed(f: &Function, w: f64, sf: f64) -> Vec<Type> {
        infer_types(f, &TypeConfig::new(w, sf)).unwrap()
    }

    #[test]
    fn simple_program_gets_minimal_chain() {
        // x² at scale 40, level 0, margin 22 → need 62 bits at level 0;
        // chain of 1 would need q0=62 > 60 → chain 2 with q0 = 62−60 → 24 min.
        let mut f = Function::new("p", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        f.mark_output("o", m);
        let tys = typed(&f, 20.0, 60.0);
        let p = select_params(&f, &tys, &opts(20.0, 60.0)).unwrap();
        assert_eq!(p.chain_len, 2);
        assert_eq!(p.max_level, 0);
        assert_eq!(p.q0_bits, 24);
    }

    #[test]
    fn rescaled_program_needs_shorter_chain_than_unrescaled() {
        // Same computation, with and without a rescale of the result.
        let mut raw = Function::new("raw", 4);
        let x = raw.push(Op::Input { name: "x".into() });
        let m = raw.push(Op::Mul(x, x));
        let m2 = raw.push(Op::Mul(m, m)); // scale 80 at level 0
        raw.mark_output("o", m2);

        let mut rs = Function::new("rs", 4);
        let x = rs.push(Op::Input { name: "x".into() });
        let m = rs.push(Op::Mul(x, x));
        let m2 = rs.push(Op::Mul(m, m));
        let r = rs.push(Op::Rescale(m2)); // scale 20 at level 1
        rs.mark_output("o", r);

        let o = opts(20.0, 60.0);
        let p_raw = select_params(&raw, &typed(&raw, 20.0, 60.0), &o).unwrap();
        let p_rs = select_params(&rs, &typed(&rs, 20.0, 60.0), &o).unwrap();
        assert!(p_raw.total_bits >= p_rs.total_bits);
    }

    #[test]
    fn degree_selection_follows_security_table() {
        let mut f = Function::new("p", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        f.mark_output("o", m);
        let tys = typed(&f, 20.0, 60.0);
        let p = select_params(&f, &tys, &opts(20.0, 60.0)).unwrap();
        // total = 24 + 60 + 60 = 144 bits → degree 8192.
        assert_eq!(p.total_bits, 144);
        assert_eq!(p.degree, 8192);
        assert!(p.secure);
    }

    #[test]
    fn fixed_degree_reports_security_honestly() {
        let mut f = Function::new("p", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        f.mark_output("o", m);
        let tys = typed(&f, 20.0, 60.0);
        let mut o = opts(20.0, 60.0);
        o.degree = Some(2048);
        let p = select_params(&f, &tys, &o).unwrap();
        assert_eq!(p.degree, 2048);
        assert!(!p.secure);
    }

    #[test]
    fn a_chain_too_long_to_count_is_not_secure() {
        // 34 + 60·787 410 671 + 60 bits wraps a u32 to 98, which would
        // fit degree 8192.
        let p = SelectedParams::new(34, 60, 787_410_672, Some(8192), 1);
        assert_eq!(p.total_bits, u32::MAX);
        assert!(!p.secure);
    }

    #[test]
    fn infeasible_scales_rejected() {
        let mut f = Function::new("p", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let mut cur = x;
        // 2^5 squarings without rescaling: scale 20·32 = 640 bits at level 0.
        for _ in 0..5 {
            cur = f.push(Op::Mul(cur, cur));
        }
        f.mark_output("o", cur);
        let tys = typed(&f, 20.0, 60.0);
        let mut o = opts(20.0, 60.0);
        o.max_chain_len = 4;
        assert!(matches!(
            select_params(&f, &tys, &o),
            Err(CompileError::NoParameters { .. })
        ));
    }
}
