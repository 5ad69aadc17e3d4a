//! (De)serialization of compiled plans.
//!
//! A [`CompiledProgram`] is the *compile once* artifact the serving layer
//! amortizes: the scale-managed function, its types, the type-system
//! environment, the selected RNS parameters, and the content hash of the
//! source function it was compiled from. This module renders all of that
//! as a line-oriented text document (`HECATE-PLAN v1`) that survives a
//! round trip exactly — the function via the canonical re-parsable print
//! form, floats in Rust's shortest round-trip rendering.
//!
//! A reloaded plan is untrusted input: callers should re-verify it with
//! [`hecate_ir::verify::verify_plan`] against
//! [`CompiledProgram::bound_config`] before executing it (as `hecatec
//! --load-plan` does), and can use the recorded source hash to detect a
//! plan being replayed against a different source program.
//!
//! Exploration statistics (epochs, plans explored, SMU counts) and the
//! use-edge count of the *source* program describe the compilation, not
//! the artifact; they are not serialized and read 0 after a reload.
//! Deserialization recomputes the op histogram and restores the recorded
//! latency/noise estimates, so a reloaded plan is executable and
//! reportable without rerunning the explorer.

use crate::options::{CompileStats, CompiledProgram, Scheme};
use crate::params::SelectedParams;
use hecate_ir::analysis::op_histogram;
use hecate_ir::parse::parse_function;
use hecate_ir::print::print_function_full;
use hecate_ir::types::{Type, TypeConfig};
use std::fmt::Write as _;

/// The format tag on the first line of every serialized plan.
pub const PLAN_HEADER: &str = "HECATE-PLAN v1";

/// A malformed serialized plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFormatError {
    /// What was wrong, with enough context to locate it.
    pub message: String,
}

impl std::fmt::Display for PlanFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed plan: {}", self.message)
    }
}

impl std::error::Error for PlanFormatError {}

fn bad(message: impl Into<String>) -> PlanFormatError {
    PlanFormatError {
        message: message.into(),
    }
}

fn scheme_tag(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Eva => "eva",
        Scheme::Pars => "pars",
        Scheme::Smse => "smse",
        Scheme::Hecate => "hecate",
    }
}

fn parse_scheme(tag: &str) -> Result<Scheme, PlanFormatError> {
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
    let mut s = String::new();
    let _ = writeln!(s, "{PLAN_HEADER}");
    let _ = writeln!(s, "scheme {}", scheme_tag(prog.scheme));
    let _ = writeln!(
        s,
        "config waterline={} rescale={} max_level={} modulus_bits={}",
        prog.cfg.waterline,
        prog.cfg.rescale_bits,
        opt_to_str(prog.cfg.max_level.map(|v| v as f64)),
        opt_to_str(prog.cfg.modulus_bits),
    );
    let p = &prog.params;
    let _ = writeln!(
        s,
        "params q0={} sf={} chain={} max_level={} total={} degree={} secure={}",
        p.q0_bits, p.sf_bits, p.chain_len, p.max_level, p.total_bits, p.degree, p.secure
    );
    let _ = writeln!(
        s,
        "estimate latency_us={} noise_bits={}",
        prog.stats.estimated_latency_us, prog.stats.estimated_noise_bits
    );
    let _ = writeln!(s, "source hash={:016x}", prog.source_hash);
    let _ = writeln!(s, "types {}", prog.types.len());
    for t in &prog.types {
        match t {
            Type::Free => {
                let _ = writeln!(s, "free");
            }
            Type::Plain { scale, level } => {
                let _ = writeln!(s, "plain {scale} {level}");
            }
            Type::Cipher { scale, level } => {
                let _ = writeln!(s, "cipher {scale} {level}");
            }
        }
    }
    s.push_str(&print_function_full(&prog.func));
    s
}

fn opt_to_str(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "-".to_string(),
    }
}

fn parse_opt_f64(s: &str) -> Result<Option<f64>, PlanFormatError> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse()
            .map(Some)
            .map_err(|_| bad(format!("bad optional float '{s}'")))
    }
}

/// One `key=value` field from a header line.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, PlanFormatError> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| bad(format!("missing field '{key}' in '{line}'")))
}

fn parsed<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, PlanFormatError> {
    s.parse()
        .map_err(|_| bad(format!("bad {what} value '{s}'")))
}

/// Reconstructs a compiled plan from its `HECATE-PLAN v1` text form.
///
/// # Errors
/// Returns [`PlanFormatError`] if the header, types, or function body are
/// malformed, or if the type count disagrees with the function length.
pub fn deserialize_plan(text: &str) -> Result<CompiledProgram, PlanFormatError> {
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
    let cfg = TypeConfig {
        waterline: parsed(field(cfg_line, "waterline")?, "waterline")?,
        rescale_bits: parsed(field(cfg_line, "rescale")?, "rescale")?,
        max_level: parse_opt_f64(field(cfg_line, "max_level")?)?.map(|v| v as usize),
        modulus_bits: parse_opt_f64(field(cfg_line, "modulus_bits")?)?,
    };

    let params_line = lines.next().ok_or_else(|| bad("missing params line"))?;
    let params = SelectedParams {
        q0_bits: parsed(field(params_line, "q0")?, "q0")?,
        sf_bits: parsed(field(params_line, "sf")?, "sf")?,
        chain_len: parsed(field(params_line, "chain")?, "chain")?,
        max_level: parsed(field(params_line, "max_level")?, "max_level")?,
        total_bits: parsed(field(params_line, "total")?, "total")?,
        degree: parsed(field(params_line, "degree")?, "degree")?,
        secure: parsed(field(params_line, "secure")?, "secure")?,
    };

    let est_line = lines.next().ok_or_else(|| bad("missing estimate line"))?;
    let estimated_latency_us: f64 = parsed(field(est_line, "latency_us")?, "latency_us")?;
    let estimated_noise_bits: f64 = parsed(field(est_line, "noise_bits")?, "noise_bits")?;

    let source_line = lines.next().ok_or_else(|| bad("missing source line"))?;
    let source_hash = u64::from_str_radix(field(source_line, "hash")?, 16)
        .map_err(|_| bad(format!("bad source hash in '{source_line}'")))?;

    // Plans saved by earlier versions carry a `slot footprint=` line; the
    // executor derives slot reaches from the function, so it is skipped.
    lines.next_if(|l| l.starts_with("slot footprint"));

    let count_line = lines.next().ok_or_else(|| bad("missing types line"))?;
    let n_types: usize = parsed(
        count_line
            .strip_prefix("types ")
            .ok_or_else(|| bad("missing 'types N' line"))?,
        "type count",
    )?;
    let mut types = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let line = lines.next().ok_or_else(|| bad("truncated type list"))?;
        let mut toks = line.split_whitespace();
        let ty = match toks.next() {
            Some("free") => Type::Free,
            Some(kind @ ("plain" | "cipher")) => {
                let scale: f64 = parsed(
                    toks.next().ok_or_else(|| bad("type missing scale"))?,
                    "scale",
                )?;
                let level: usize = parsed(
                    toks.next().ok_or_else(|| bad("type missing level"))?,
                    "level",
                )?;
                if kind == "plain" {
                    Type::Plain { scale, level }
                } else {
                    Type::Cipher { scale, level }
                }
            }
            other => return Err(bad(format!("unknown type line {other:?}"))),
        };
        types.push(ty);
    }

    let body: String = lines.collect::<Vec<_>>().join("\n");
    let func = parse_function(&body).map_err(|e| bad(format!("function body: {e}")))?;
    if func.len() != types.len() {
        return Err(bad(format!(
            "{} types for {} operations",
            types.len(),
            func.len()
        )));
    }

    let stats = CompileStats {
        estimated_latency_us,
        estimated_noise_bits,
        op_counts: op_histogram(&func),
        ..CompileStats::default()
    };
    Ok(CompiledProgram {
        func,
        types,
        cfg,
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

    #[test]
    fn roundtrip_preserves_the_artifact() {
        for scheme in Scheme::ALL {
            let prog = compiled(scheme);
            let text = serialize_plan(&prog);
            let back = deserialize_plan(&text).unwrap();
            assert_eq!(back.func, prog.func, "{scheme}");
            assert_eq!(back.types, prog.types, "{scheme}");
            assert_eq!(back.cfg, prog.cfg, "{scheme}");
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
        let prog = compiled(Scheme::Hecate);
        let back = deserialize_plan(&serialize_plan(&prog)).unwrap();
        let tys =
            hecate_ir::verify::verify_plan(&back.func, &back.bound_config(), "reload").unwrap();
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
        // Plans saved by earlier versions carry a `slot footprint=` line
        // after the source hash; with or without it, the plan is the same.
        let prog = compiled(Scheme::Hecate);
        let text = serialize_plan(&prog);
        assert!(!text.contains("slot footprint"));
        let legacy = text.replacen("\ntypes ", "\nslot footprint=4:0:0:6\ntypes ", 1);
        assert_ne!(legacy, text);
        let (old, new) = (
            deserialize_plan(&legacy).unwrap(),
            deserialize_plan(&text).unwrap(),
        );
        assert_eq!(old.func, new.func);
        assert_eq!(old.types, new.types);
        assert_eq!(old.params, new.params);
        assert_eq!(old.source_hash, new.source_hash);
        assert_eq!(serialize_plan(&old), text);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(deserialize_plan("").is_err());
        assert!(deserialize_plan("NOT-A-PLAN").is_err());
        let good = serialize_plan(&compiled(Scheme::Eva));
        // Wrong header version.
        let bad_hdr = good.replacen("v1", "v9", 1);
        assert!(deserialize_plan(&bad_hdr).is_err());
        // Truncated body.
        let cut: String = good.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(deserialize_plan(&cut).is_err());
        // Type count disagreeing with the function.
        let miscounted = good.replacen("types ", "types 1 // was ", 1);
        assert!(deserialize_plan(&miscounted).is_err());
    }
}
