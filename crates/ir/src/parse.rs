//! Parsing of the textual IR form.
//!
//! Accepts the syntax produced by [`crate::print::print_function`] (with
//! full constant payloads, as printed by
//! [`crate::print::print_function_full`]), enabling file-based workflows:
//! write a program, inspect it, feed it to the `hecatec` driver. Type
//! annotations (after `:`) are ignored on input — types are always
//! re-inferred.

use crate::ir::{ConstData, Function, Op, ValueId};
use std::collections::HashMap;

/// A parse failure with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The widest `vec` [`parse_function`] accepts: the slot count of the
/// largest ring degree parameter selection picks (`hecate_compiler`'s
/// `params::MAX_DEGREE`, which asserts the relation). A wider program can
/// never run, and its inputs alone would be terabytes.
pub const MAX_VEC_SIZE: usize = 16_384;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a function from its textual form.
///
/// # Errors
/// Returns a [`ParseError`] describing the first offending line.
///
/// # Example
/// ```
/// use hecate_ir::parse::parse_function;
/// let src = r#"
/// func @square(vec 8) {
///   %0 = input "x"
///   %1 = mul %0, %0
///   output "out" = %1
/// }
/// "#;
/// let f = parse_function(src)?;
/// assert_eq!(f.len(), 2);
/// # Ok::<(), hecate_ir::parse::ParseError>(())
/// ```
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let mut func: Option<Function> = None;
    let mut ids: HashMap<u32, ValueId> = HashMap::new();
    let mut done = false;

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments and type annotations.
        let text = raw.split("//").next().unwrap_or("");
        let text = text.split(" : ").next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if done {
            return Err(err(line, "content after closing '}'"));
        }
        if let Some(rest) = text.strip_prefix("func @") {
            if func.is_some() {
                return Err(err(line, "nested function"));
            }
            // func @name(vec N) {
            let (name, rest) = rest
                .split_once("(vec ")
                .ok_or_else(|| err(line, "expected '(vec N)'"))?;
            let (vec_str, _) = rest
                .split_once(')')
                .ok_or_else(|| err(line, "unterminated '(vec N)'"))?;
            // A zero width would make every rotation step `% 0`.
            let vec_size: usize = (vec_str.trim().parse().ok())
                .filter(|n| (1..=MAX_VEC_SIZE).contains(n))
                .ok_or_else(|| err(line, "bad vector size"))?;
            func = Some(Function::new(name.trim(), vec_size));
            continue;
        }
        let Some(f) = func.as_mut() else {
            return Err(err(line, "statement before 'func'"));
        };
        if text == "}" {
            done = true;
            continue;
        }
        if let Some(rest) = text.strip_prefix("output ") {
            // output "name" = %v
            let (name, v) = parse_output(rest).ok_or_else(|| err(line, "bad output"))?;
            if f.outputs().iter().any(|(earlier, _)| *earlier == name) {
                return Err(err(line, format!("output \"{name}\" declared twice")));
            }
            let vid = *ids
                .get(&v)
                .ok_or_else(|| err(line, format!("unknown value %{v}")))?;
            f.mark_output(name, vid);
            continue;
        }
        // %N = op ...
        let (lhs, rhs) = text
            .split_once('=')
            .ok_or_else(|| err(line, "expected '%N = op ...'"))?;
        let def: u32 = lhs
            .trim()
            .strip_prefix('%')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(line, "bad value id"))?;
        if ids.contains_key(&def) {
            return Err(err(line, format!("value %{def} defined twice")));
        }
        let rhs = rhs.trim();
        let (mnemonic, args) = rhs.split_once(' ').unwrap_or((rhs, ""));
        let args = args.trim();
        let resolve = |tok: &str| -> Result<ValueId, ParseError> {
            let id: u32 = tok
                .trim()
                .strip_prefix('%')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(line, format!("bad operand '{tok}'")))?;
            ids.get(&id)
                .copied()
                .ok_or_else(|| err(line, format!("unknown value %{id}")))
        };
        let two = |args: &str| -> Result<(ValueId, ValueId), ParseError> {
            let (a, b) = args
                .split_once(',')
                .ok_or_else(|| err(line, "expected two operands"))?;
            Ok((resolve(a)?, resolve(b)?))
        };
        let op = match mnemonic {
            "input" => Op::Input {
                name: parse_quoted(args).ok_or_else(|| err(line, "expected \"name\""))?,
            },
            "const" => Op::Const {
                data: parse_const(args).ok_or_else(|| err(line, "bad constant payload"))?,
            },
            "encode" => {
                // %v, scale=2^S, level=L
                let mut parts = args.split(',').map(str::trim);
                let v = resolve(parts.next().unwrap_or(""))?;
                let scale = parts
                    .next()
                    .and_then(|p| p.strip_prefix("scale=2^"))
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| err(line, "expected scale=2^S"))?;
                let level = parts
                    .next()
                    .and_then(|p| p.strip_prefix("level="))
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| err(line, "expected level=L"))?;
                Op::Encode {
                    value: v,
                    scale_bits: scale,
                    level,
                }
            }
            "add" => {
                let (a, b) = two(args)?;
                Op::Add(a, b)
            }
            "sub" => {
                let (a, b) = two(args)?;
                Op::Sub(a, b)
            }
            "mul" => {
                let (a, b) = two(args)?;
                Op::Mul(a, b)
            }
            "negate" => Op::Negate(resolve(args)?),
            "rotate" => {
                let (v, s) = args
                    .split_once(',')
                    .ok_or_else(|| err(line, "expected '%v, step'"))?;
                Op::Rotate {
                    value: resolve(v)?,
                    step: s
                        .trim()
                        .parse()
                        .map_err(|_| err(line, "bad rotation step"))?,
                }
            }
            "rescale" => Op::Rescale(resolve(args)?),
            "modswitch" => Op::ModSwitch(resolve(args)?),
            "upscale" => {
                let (v, t) = args
                    .split_once(',')
                    .ok_or_else(|| err(line, "expected '%v, 2^T'"))?;
                Op::Upscale {
                    value: resolve(v)?,
                    target_bits: t
                        .trim()
                        .strip_prefix("2^")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(line, "bad upscale target"))?,
                }
            }
            "downscale" => Op::Downscale(resolve(args)?),
            other => return Err(err(line, format!("unknown operation '{other}'"))),
        };
        let vid = f.push(op);
        ids.insert(def, vid);
    }
    let func = func.ok_or_else(|| err(0, "no function found"))?;
    func.verify_structure()
        .map_err(|e| err(0, format!("malformed function: {e}")))?;
    Ok(func)
}

fn parse_quoted(s: &str) -> Option<String> {
    let s = s.trim();
    s.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

fn parse_const(s: &str) -> Option<ConstData> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let values: Option<Vec<f64>> = inner
            .split(',')
            .map(|v| v.trim().parse::<f64>().ok())
            .collect();
        Some(ConstData::vector(values?))
    } else {
        s.parse::<f64>().ok().map(ConstData::splat)
    }
}

/// Parses `"name" = %v`.
fn parse_output(s: &str) -> Option<(String, u32)> {
    let (name, v) = s.split_once('=')?;
    let name = parse_quoted(name)?;
    let id = v.trim().strip_prefix('%')?.parse().ok()?;
    Some((name, id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::print::print_function_full;

    #[test]
    fn parses_the_motivating_example() {
        let src = r#"
        func @motivating(vec 4) {
          %0 = input "x"
          %1 = input "y"
          %2 = mul %0, %0
          %3 = mul %1, %1
          %4 = add %2, %3
          %5 = mul %4, %4
          %6 = mul %5, %4
          output "result" = %6
        }
        "#;
        let f = parse_function(src).unwrap();
        assert_eq!(f.len(), 7);
        assert_eq!(f.vec_size, 4);
        assert_eq!(f.outputs()[0].0, "result");
    }

    #[test]
    fn roundtrips_through_the_printer() {
        let mut b = FunctionBuilder::new("round", 8);
        let x = b.input_cipher("x");
        let c = b.vector(vec![1.0, -2.5, 3.0]);
        let r = b.rotate(x, 3);
        let m = b.mul(r, c);
        let n = b.neg(m);
        let s = b.sub(n, x);
        b.output_named("res", s);
        let f = b.finish();
        let text = print_function_full(&f);
        let g = parse_function(&text).unwrap();
        assert_eq!(f, g, "print → parse must be the identity:\n{text}");
    }

    #[test]
    fn roundtrips_scale_management_ops() {
        use crate::ir::Op;
        let mut f = Function::new("sm", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let c = f.push(Op::Const {
            data: ConstData::splat(2.0),
        });
        let e = f.push(Op::Encode {
            value: c,
            scale_bits: 20.0,
            level: 1,
        });
        let m = f.push(Op::Mul(x, x));
        let m2 = f.push(Op::Mul(m, m));
        let r = f.push(Op::Rescale(m2));
        let ms = f.push(Op::ModSwitch(x));
        let u = f.push(Op::Upscale {
            value: ms,
            target_bits: 40.0,
        });
        let d = f.push(Op::Downscale(m));
        let _ = (e, u, d, r);
        f.mark_output("o", r);
        let text = print_function_full(&f);
        let g = parse_function(&text).unwrap();
        assert_eq!(f, g, "{text}");
    }

    #[test]
    fn type_annotations_and_comments_ignored() {
        let src = r#"
        // a comment
        func @t(vec 4) {
          %0 = input "x" : cipher(20,0)
          %1 = mul %0, %0 : cipher(40,0)  // another
          output "o" = %1
        }
        "#;
        assert_eq!(parse_function(src).unwrap().len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "func @t(vec 4) {\n  %0 = input \"x\"\n  %1 = frobnicate %0\n}";
        let e = parse_function(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));

        let e2 = parse_function("func @t(vec 4) {\n  %1 = mul %0, %0\n}").unwrap_err();
        assert_eq!(e2.line, 2);
        assert!(e2.message.contains("unknown value"));

        let e3 = parse_function("func @t(vec 0) {\n  %0 = input \"x\"\n}").unwrap_err();
        assert_eq!(e3.line, 1);
        assert!(e3.message.contains("bad vector size"));

        let body = "  %0 = input \"x\"\n  output \"y\" = %0\n}";
        let widest = format!("func @t(vec {MAX_VEC_SIZE}) {{\n{body}");
        assert_eq!(parse_function(&widest).unwrap().vec_size, MAX_VEC_SIZE);
        let wide = format!("func @t(vec {}) {{\n{body}", MAX_VEC_SIZE + 1);
        let e4 = parse_function(&wide).unwrap_err();
        assert_eq!(e4.line, 1);
        assert!(e4.message.contains("bad vector size"));

        let e5 = parse_function(
            "func @t(vec 4) {\n  %0 = input \"x\"\n  %0 = mul %0, %0\n  output \"y\" = %0\n}",
        )
        .unwrap_err();
        assert_eq!(e5.line, 3);
        assert!(e5.message.contains("%0 defined twice"), "{}", e5.message);

        let e6 = parse_function(
            "func @t(vec 4) {\n  %0 = input \"x\"\n  %1 = mul %0, %0\n  \
             output \"y\" = %1\n  output \"y\" = %0\n}",
        )
        .unwrap_err();
        assert_eq!(e6.line, 5);
        assert!(
            e6.message.contains("\"y\" declared twice"),
            "{}",
            e6.message
        );
    }

    #[test]
    fn missing_output_rejected() {
        let e = parse_function("func @t(vec 4) {\n  %0 = input \"x\"\n}").unwrap_err();
        assert!(e.message.contains("malformed"));
    }
}
