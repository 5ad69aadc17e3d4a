//! (De)serialization of compiled plans.
//!
//! A [`CompiledProgram`] is the *compile once* artifact the serving layer
//! amortizes. This module renders it as a line-oriented text document
//! (`HECATE-PLAN v1`) holding only what cannot be derived:
//!
//! ```text
//! HECATE-PLAN v1
//! scheme hecate
//! config waterline=24
//! params q0=39 sf=60 chain=3 degree=4096
//! estimate latency_us=… noise_bits=…
//! source hash=…
//! <the function, in the canonical re-parsable print form>
//! ```
//!
//! The waterline and the chain (`q0`, `S_f`, length, degree) are the plan's
//! whole type environment ([`SelectedParams::type_config`]); the type
//! table, the highest level, the total modulus and the security label
//! follow from them. Floats use Rust's shortest round-trip rendering, so a
//! round trip is exact.
//!
//! A loaded plan is untrusted input, so [`deserialize_plan`] returns only
//! a verified plan: it rejects a chain parameter selection never builds
//! (a base prime outside [`Q0_BITS`], an `S_f` the backend has no primes
//! for, a chain longer than [`CompileOptions::max_chain_len`]'s default,
//! a degree that is not a power of two in 8..=[`MAX_DEGREE`]), then
//! infers the types with [`hecate_ir::verify::verify_plan`] on the plan's
//! own chain. The bounds keep an edited plan from asking key generation
//! for gigabytes. The recorded source hash lets a caller detect a plan being
//! replayed against a different source program.
//!
//! Plans saved by earlier versions still load: the derived fields of their
//! `config` and `params` lines are ignored, and their `slot footprint=`
//! line and `types N` table are skipped.
//!
//! Exploration statistics (epochs, plans explored, SMU counts) and the
//! use-edge count of the *source* program describe the compilation, not
//! the artifact; they are not serialized and read 0 after a reload.
//! Deserialization recomputes the op histogram and restores the recorded
//! latency/noise estimates, so a reloaded plan is executable and
//! reportable without rerunning the explorer.

use crate::options::{CompileOptions, CompileStats, CompiledProgram, Scheme};
use crate::params::{SelectedParams, MAX_DEGREE, Q0_BITS, SF_BITS};
use hecate_ir::analysis::op_histogram;
use hecate_ir::parse::parse_function;
use hecate_ir::print::print_function_full;
use hecate_ir::types::Type;
use hecate_ir::verify::{verify_plan, VerifyError};
use std::num::NonZeroUsize;

/// The format tag on the first line of every serialized plan.
pub const PLAN_HEADER: &str = "HECATE-PLAN v1";

/// Why a serialized plan was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The text is not a well-formed plan document.
    Format(String),
    /// The base prime size lies outside [`Q0_BITS`], the range parameter
    /// selection searches.
    BasePrime(u32),
    /// The rescale prime size `S_f` lies outside [`SF_BITS`], the prime
    /// sizes the backend generates.
    ScaleFactor(u32),
    /// The chain is longer than parameter selection builds
    /// ([`CompileOptions::max_chain_len`]'s default).
    ChainLength(usize),
    /// The ring degree is not a power of two in 8..=[`MAX_DEGREE`].
    Degree(usize),
    /// The function does not verify on the plan's own chain.
    Verify(VerifyError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Format(message) => write!(f, "malformed plan: {message}"),
            PlanError::BasePrime(q0) => write!(
                f,
                "base prime of {q0} bits is outside the {}–{} bits parameter selection uses",
                Q0_BITS.start(),
                Q0_BITS.end()
            ),
            PlanError::ScaleFactor(sf) => write!(
                f,
                "rescale prime of {sf} bits is outside the {}–{} bits the backend supports",
                SF_BITS.start(),
                SF_BITS.end()
            ),
            PlanError::ChainLength(len) => write!(
                f,
                "a chain of {len} primes is longer than the {} parameter selection builds",
                CompileOptions::default().max_chain_len
            ),
            PlanError::Degree(degree) => write!(
                f,
                "ring degree {degree} is not one of the powers of two 8..={MAX_DEGREE}"
            ),
            PlanError::Verify(e) => write!(f, "plan failed verification: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

fn bad(message: impl Into<String>) -> PlanError {
    PlanError::Format(message.into())
}

fn scheme_tag(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Eva => "eva",
        Scheme::Pars => "pars",
        Scheme::Smse => "smse",
        Scheme::Hecate => "hecate",
    }
}

fn parse_scheme(tag: &str) -> Result<Scheme, PlanError> {
    match tag {
        "eva" => Ok(Scheme::Eva),
        "pars" => Ok(Scheme::Pars),
        "smse" => Ok(Scheme::Smse),
        "hecate" => Ok(Scheme::Hecate),
        other => Err(bad(format!("unknown scheme '{other}'"))),
    }
}

/// Renders a compiled plan as the `HECATE-PLAN v1` text form.
pub fn serialize_plan(prog: &CompiledProgram) -> String {
    let p = &prog.params;
    format!(
        "{PLAN_HEADER}\nscheme {}\nconfig waterline={}\nparams q0={} sf={} chain={} degree={}\n\
         estimate latency_us={} noise_bits={}\nsource hash={:016x}\n{}",
        scheme_tag(prog.scheme),
        prog.waterline,
        p.q0_bits,
        p.sf_bits,
        p.chain_len,
        p.degree,
        prog.stats.estimated_latency_us,
        prog.stats.estimated_noise_bits,
        prog.source_hash,
        print_function_full(&prog.func),
    )
}

/// One `key=value` field from a header line.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, PlanError> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| bad(format!("missing field '{key}' in '{line}'")))
}

fn parsed<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, PlanError> {
    s.parse()
        .map_err(|_| bad(format!("bad {what} value '{s}'")))
}

/// Reconstructs a verified plan from its `HECATE-PLAN v1` text form.
///
/// # Errors
/// [`PlanError::Format`] if the header lines or the function body are
/// malformed; [`PlanError::BasePrime`], [`PlanError::ScaleFactor`],
/// [`PlanError::ChainLength`] or [`PlanError::Degree`] for a chain
/// outside the bounds in the module docs; and [`PlanError::Verify`] if the
/// function does not verify on the plan's own chain.
pub fn deserialize_plan(text: &str) -> Result<CompiledProgram, PlanError> {
    let mut lines = text.lines().peekable();
    let header = lines.next().ok_or_else(|| bad("empty document"))?;
    if header.trim() != PLAN_HEADER {
        return Err(bad(format!("expected '{PLAN_HEADER}', got '{header}'")));
    }

    let scheme_line = lines.next().ok_or_else(|| bad("missing scheme line"))?;
    let scheme = parse_scheme(
        scheme_line
            .strip_prefix("scheme ")
            .ok_or_else(|| bad("missing 'scheme' line"))?
            .trim(),
    )?;

    let cfg_line = lines.next().ok_or_else(|| bad("missing config line"))?;
    let waterline: f64 = parsed(field(cfg_line, "waterline")?, "waterline")?;

    let params_line = lines.next().ok_or_else(|| bad("missing params line"))?;
    let q0_bits: u32 = parsed(field(params_line, "q0")?, "q0")?;
    if !Q0_BITS.contains(&q0_bits) {
        return Err(PlanError::BasePrime(q0_bits));
    }
    let sf_bits: u32 = parsed(field(params_line, "sf")?, "sf")?;
    if !SF_BITS.contains(&sf_bits) {
        return Err(PlanError::ScaleFactor(sf_bits));
    }
    let chain_len: NonZeroUsize = parsed(field(params_line, "chain")?, "chain")?;
    if chain_len.get() > CompileOptions::default().max_chain_len {
        return Err(PlanError::ChainLength(chain_len.get()));
    }
    let degree: usize = parsed(field(params_line, "degree")?, "degree")?;
    if !degree.is_power_of_two() || !(8..=MAX_DEGREE).contains(&degree) {
        return Err(PlanError::Degree(degree));
    }

    let est_line = lines.next().ok_or_else(|| bad("missing estimate line"))?;
    let estimated_latency_us: f64 = parsed(field(est_line, "latency_us")?, "latency_us")?;
    let estimated_noise_bits: f64 = parsed(field(est_line, "noise_bits")?, "noise_bits")?;

    let source_line = lines.next().ok_or_else(|| bad("missing source line"))?;
    let source_hash = u64::from_str_radix(field(source_line, "hash")?, 16)
        .map_err(|_| bad(format!("bad source hash in '{source_line}'")))?;

    // Earlier versions also saved a `slot footprint=` line and a `types N`
    // table; slot reaches and types are derived here, so both are skipped.
    lines.next_if(|l| l.starts_with("slot footprint"));
    if let Some(count) = lines.next_if(|l| l.starts_with("types ")) {
        let n: usize = parsed(&count["types ".len()..], "type count")?;
        for _ in 0..n {
            lines.next();
        }
    }

    let body: String = lines.collect::<Vec<_>>().join("\n");
    let func = parse_function(&body).map_err(|e| bad(format!("function body: {e}")))?;
    let chain = SelectedParams::new(q0_bits, sf_bits, chain_len.get(), Some(degree), 0);
    let types =
        verify_plan(&func, &chain.type_config(waterline), "reload").map_err(PlanError::Verify)?;
    let params = SelectedParams {
        max_level: types.iter().filter_map(Type::level).max().unwrap_or(0),
        ..chain
    };

    let stats = CompileStats {
        estimated_latency_us,
        estimated_noise_bits,
        op_counts: op_histogram(&func),
        ..CompileStats::default()
    };
    Ok(CompiledProgram {
        func,
        types,
        waterline,
        scheme,
        params,
        source_hash,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompileOptions;
    use crate::pipeline::compile;
    use hecate_ir::FunctionBuilder;

    fn compiled(scheme: Scheme) -> CompiledProgram {
        let mut b = FunctionBuilder::new("motivating", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let z = b.add(x2, y2);
        let c = b.splat(0.25);
        let z2 = b.mul(z, c);
        let z3 = b.mul(z2, z);
        b.output(z3);
        let mut opts = CompileOptions::with_waterline(20.0);
        opts.degree = Some(4096);
        compile(&b.finish(), scheme, &opts).unwrap()
    }

    /// The plan as the previous format saved it: every derived field on
    /// the `config` and `params` lines, then the type table.
    fn legacy_format(prog: &CompiledProgram) -> String {
        let text = serialize_plan(prog);
        let (head, body) = text.split_at(text.find("\nfunc").unwrap() + 1);
        let p = &prog.params;
        let cfg = p.type_config(prog.waterline);
        let mut types = format!("types {}\n", prog.types.len());
        for t in &prog.types {
            types += &match t {
                Type::Free => "free\n".to_string(),
                Type::Plain { scale, level } => format!("plain {scale} {level}\n"),
                Type::Cipher { scale, level } => format!("cipher {scale} {level}\n"),
            };
        }
        let head = head
            .replacen(
                "\nparams ",
                &format!(
                    "\nparams max_level={} total={} secure={} ",
                    p.max_level, p.total_bits, p.secure
                ),
                1,
            )
            .replacen(
                &format!("waterline={}", prog.waterline),
                &format!(
                    "waterline={} rescale={} max_level={} modulus_bits={}",
                    cfg.waterline,
                    cfg.sf_bits,
                    cfg.max_level.unwrap(),
                    cfg.modulus_bits.unwrap()
                ),
                1,
            );
        format!("{head}{types}{body}")
    }

    #[test]
    fn roundtrip_preserves_the_artifact() {
        for scheme in Scheme::ALL {
            let prog = compiled(scheme);
            let text = serialize_plan(&prog);
            assert!(
                !text
                    .lines()
                    .any(|l| l.starts_with("types ") || l.starts_with("cipher ")),
                "{scheme}: a saved plan has no type table"
            );
            let back = deserialize_plan(&text).unwrap();
            assert_eq!(back.func, prog.func, "{scheme}");
            assert_eq!(back.types, prog.types, "{scheme}");
            assert_eq!(back.waterline, prog.waterline, "{scheme}");
            assert_eq!(back.params, prog.params, "{scheme}");
            assert_eq!(back.scheme, prog.scheme);
            assert_eq!(back.source_hash, prog.source_hash, "{scheme}");
            assert_eq!(
                back.stats.estimated_latency_us,
                prog.stats.estimated_latency_us
            );
            assert_eq!(back.stats.op_counts, prog.stats.op_counts);
            // Serialization is deterministic.
            assert_eq!(text, serialize_plan(&back));
        }
    }

    #[test]
    fn reloaded_plan_passes_bound_verification() {
        // The loader's types are those the final verification infers on the
        // plan's own chain.
        let prog = compiled(Scheme::Hecate);
        let back = deserialize_plan(&serialize_plan(&prog)).unwrap();
        let cfg = back.params.type_config(back.waterline);
        assert_eq!(cfg.max_level, Some(back.params.chain_len - 1));
        let tys = hecate_ir::verify::verify_plan(&back.func, &cfg, "reload").unwrap();
        assert_eq!(tys, back.types);
    }

    #[test]
    fn source_hash_names_the_submitted_function() {
        // Deep enough that scale management must insert operations, so
        // the compiled body provably differs from the source.
        let mut b = FunctionBuilder::new("pow8", 4);
        let x = b.input_cipher("x");
        let mut acc = x;
        for _ in 0..3 {
            acc = b.square(acc);
        }
        b.output(acc);
        let func = b.finish();
        let mut opts = CompileOptions::with_waterline(20.0);
        opts.degree = Some(4096);
        let prog = compile(&func, Scheme::Hecate, &opts).unwrap();
        assert_eq!(prog.source_hash, hecate_ir::hash::function_hash(&func));
        // The scale-managed body differs from the source — which is why
        // the source identity must be recorded explicitly.
        assert_ne!(hecate_ir::hash::function_hash(&prog.func), prog.source_hash);
        let back = deserialize_plan(&serialize_plan(&prog)).unwrap();
        assert_eq!(back.source_hash, prog.source_hash);
    }

    #[test]
    fn v1_plans_without_footprint_line_still_load() {
        // Plans saved by earlier versions carry derived header fields, a
        // type table and (earlier still) a `slot footprint=` line; with or
        // without them, the plan is the same.
        for scheme in Scheme::ALL {
            let prog = compiled(scheme);
            let text = serialize_plan(&prog);
            assert!(!text.contains("slot footprint"));
            let old_layout = legacy_format(&prog);
            let footprint = old_layout.replacen("\ntypes ", "\nslot footprint=4:0:0:6\ntypes ", 1);
            for legacy in [&old_layout, &footprint] {
                assert_ne!(*legacy, text);
                let old = deserialize_plan(legacy).unwrap();
                assert_eq!(old.func, prog.func, "{scheme}");
                assert_eq!(old.types, prog.types, "{scheme}");
                assert_eq!(old.params, prog.params, "{scheme}");
                assert_eq!(old.source_hash, prog.source_hash, "{scheme}");
                assert_eq!(serialize_plan(&old), text, "{scheme}");
            }
        }
    }

    #[test]
    fn derived_fields_of_an_old_plan_are_ignored() {
        // An earlier-layout plan whose derived fields contradict its chain
        // loads as the chain says: `S_f`, the level budget and the
        // security label all come from `q0 sf chain degree`.
        let prog = compiled(Scheme::Hecate);
        let p = prog.params;
        let edited = legacy_format(&prog)
            .replacen(
                &format!("rescale={} ", p.sf_bits),
                &format!("rescale={} ", p.sf_bits - 1),
                1,
            )
            .replacen(
                &format!("secure={}", p.secure),
                &format!("secure={}", !p.secure),
                1,
            )
            .replacen("\nplain ", "\nplain 7", 1);
        let back = deserialize_plan(&edited).unwrap();
        assert_eq!(back.types, prog.types);
        assert_eq!(back.params, prog.params);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(deserialize_plan("").is_err());
        assert!(deserialize_plan("NOT-A-PLAN").is_err());
        let prog = compiled(Scheme::Eva);
        let good = serialize_plan(&prog);
        // Wrong header version.
        let bad_hdr = good.replacen("v1", "v9", 1);
        assert!(deserialize_plan(&bad_hdr).is_err());
        // Truncated body.
        let cut: String = good.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(deserialize_plan(&cut).is_err());
        // An old plan whose type count disagrees with its type table.
        let miscounted = legacy_format(&prog).replacen("types ", "types 1 // was ", 1);
        assert!(matches!(
            deserialize_plan(&miscounted),
            Err(PlanError::Format(_))
        ));
        // A chain of no primes, and base primes parameter selection never
        // picks.
        let q0 = format!("q0={} ", prog.params.q0_bits);
        let chain = format!("chain={} ", prog.params.chain_len);
        assert!(matches!(
            deserialize_plan(&good.replacen(&chain, "chain=0 ", 1)),
            Err(PlanError::Format(_))
        ));
        for bits in [23, 61] {
            assert_eq!(
                deserialize_plan(&good.replacen(&q0, &format!("q0={bits} "), 1)).unwrap_err(),
                PlanError::BasePrime(bits)
            );
        }
        // Chains parameter selection never builds: an `S_f` the backend
        // has no primes for, more primes than selection ever uses, and
        // degrees that are not a power of two in 8..=32768.
        let sf = format!("sf={} ", prog.params.sf_bits);
        for bits in [19, 62] {
            assert_eq!(
                deserialize_plan(&good.replacen(&sf, &format!("sf={bits} "), 1)).unwrap_err(),
                PlanError::ScaleFactor(bits)
            );
        }
        let max_chain = CompileOptions::default().max_chain_len;
        for len in [max_chain + 1, 2000] {
            assert_eq!(
                deserialize_plan(&good.replacen(&chain, &format!("chain={len} "), 1)).unwrap_err(),
                PlanError::ChainLength(len)
            );
        }
        let degree = format!("degree={}\n", prog.params.degree);
        for d in [0, 4, 1000, 65536, 1 << 30] {
            assert_eq!(
                deserialize_plan(&good.replacen(&degree, &format!("degree={d}\n"), 1)).unwrap_err(),
                PlanError::Degree(d)
            );
        }
        // The largest chain and degree selection builds still load.
        let widest = good
            .replacen(&chain, &format!("chain={max_chain} "), 1)
            .replacen(&degree, "degree=32768\n", 1);
        let loaded = deserialize_plan(&widest).unwrap();
        assert_eq!((loaded.params.chain_len, loaded.params.degree), (24, 32768));
    }
}
