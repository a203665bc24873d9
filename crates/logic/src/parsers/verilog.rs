//! Structural-Verilog subset reader.
//!
//! Supports the gate-level netlists a synthesis flow emits: one
//! `module` with `input`/`output`/`wire` declarations and primitive
//! gate instances (`and`, `or`, `nand`, `nor`, `xor`, `xnor`, `not`,
//! `buf`), each listing its output net first:
//!
//! ```text
//! module example (a, b, y);
//!   input a, b;
//!   output y;
//!   wire t;
//!   nand #(1.2) g1 (t, a, b);
//!   not        g2 (y, t);
//! endmodule
//! ```
//!
//! An optional `#(d)` delay gives fixed bounds of `d` time units; the
//! two-value form `#(dmin, dmax)` gives an interval (this reader's one
//! extension over the standard `#(rise, fall)` reading — the paper's
//! delay model is a min/max interval per gate, not a rise/fall pair).
//! Gates without an annotation get bounds from the delay callback.
//! `//` and `/* … */` comments are stripped. Everything behavioral or
//! vectored — `assign`, `always`, buses (`[3:0]`), parameters, multiple
//! modules — is rejected with a typed error.

use super::{assemble, Declarations, Def, Gate, Wording};
use crate::delay::{DelayBounds, Time};
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError};

/// Replaces comments with whitespace, preserving line numbers.
fn strip_comments(text: &str) -> Result<String, NetlistError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut line = 1usize;
    while let Some(c) = chars.next() {
        match c {
            '\n' => {
                line += 1;
                out.push('\n');
            }
            '/' if chars.peek() == Some(&'/') => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        out.push('\n');
                        break;
                    }
                }
            }
            '/' if chars.peek() == Some(&'*') => {
                chars.next();
                let open_line = line;
                let mut prev = ' ';
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        out.push('\n');
                    }
                    if prev == '*' && c == '/' {
                        closed = true;
                        break;
                    }
                    prev = c;
                }
                if !closed {
                    return Err(NetlistError::Parse {
                        line: open_line,
                        message: "unterminated /* comment".into(),
                    });
                }
                out.push(' ');
            }
            other => out.push(other),
        }
    }
    Ok(out)
}

/// A net name: identifier characters only; `[` flags a bus subscript.
fn check_net_name(name: &str, line: usize) -> Result<(), NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    if name.is_empty() {
        return Err(err("empty net name".into()));
    }
    if name.contains(['[', ']']) {
        return Err(err(format!(
            "bus `{name}` not supported (structural scalar subset)"
        )));
    }
    let mut chars = name.chars();
    let first = chars.next().unwrap_or(' ');
    if !(first.is_ascii_alphabetic() || first == '_' || first == '\\') {
        return Err(err(format!("invalid net name `{name}`")));
    }
    // Escaped identifiers (`\foo!bar `) pass anything after the
    // backslash; plain identifiers stick to word characters and `$`.
    if first != '\\' && !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$') {
        return Err(err(format!("invalid net name `{name}`")));
    }
    Ok(())
}

fn parse_delay_spec(spec: &str, line: usize) -> Result<DelayBounds, NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    let mut values = Vec::new();
    for part in spec.split(',') {
        let v: f64 = part
            .trim()
            .parse()
            .map_err(|_| err(format!("bad delay value `{}`", part.trim())))?;
        if !v.is_finite() || v < 0.0 {
            return Err(err(format!("delay value `{v}` out of range")));
        }
        values.push(v);
    }
    match values.as_slice() {
        [d] => Ok(DelayBounds::fixed(Time::from_units(*d))),
        [min, max] if min <= max => Ok(DelayBounds::new(
            Time::from_units(*min),
            Time::from_units(*max),
        )),
        [min, max] => Err(err(format!("delay interval ({min}, {max}) has min > max"))),
        _ => Err(err(format!(
            "delay spec `#({spec})` needs one or two values"
        ))),
    }
}

/// Parses a structural-Verilog module into a [`Netlist`], assigning
/// un-annotated gates delay bounds via `delay_fn(kind, fanin_count)`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for anything outside the structural
/// subset (no module, multiple modules, `assign`/behavioral constructs,
/// buses, malformed instances, bad delay specs), and the builder's
/// typed errors for duplicate drivers, cycles and dangling nets.
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::{verilog::parse_verilog, unit_delays};
///
/// let src = "
/// module half_adder (a, b, s, c);
///   input a, b;
///   output s, c;
///   xor #(1.8) g1 (s, a, b);
///   and #(1.2, 1.4) g2 (c, a, b);
/// endmodule
/// ";
/// let n = parse_verilog(src, unit_delays)?;
/// assert_eq!(n.evaluate_outputs(&[true, true]), vec![false, true]);
/// assert_eq!(n.evaluate_outputs(&[true, false]), vec![true, false]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn parse_verilog(
    text: &str,
    mut delay_fn: impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<Netlist, NetlistError> {
    let stripped = strip_comments(text)?;

    // Split into `;`-terminated statements, tracking each one's first
    // line; `endmodule` closes the module without a semicolon.
    let mut statements: Vec<(usize, String)> = Vec::new();
    let mut acc = String::new();
    let mut acc_line = 0usize;
    let mut line = 1usize;
    let mut it = stripped.chars().peekable();
    while let Some(c) = it.next() {
        if c == '\n' {
            line += 1;
        }
        if c == ';' {
            statements.push((acc_line, std::mem::take(&mut acc)));
            acc_line = 0;
        } else {
            if acc_line == 0 && !c.is_whitespace() {
                acc_line = line;
            }
            acc.push(c);
            // `endmodule` terminates a statement without a semicolon;
            // only at an identifier boundary (not inside `endmodulex`).
            if acc.trim() == "endmodule" {
                let at_boundary = match it.peek() {
                    None => true,
                    Some(&n) => !(n.is_ascii_alphanumeric() || n == '_' || n == '$'),
                };
                if at_boundary {
                    statements.push((acc_line, std::mem::take(&mut acc)));
                    acc_line = 0;
                }
            }
        }
    }
    if !acc.trim().is_empty() {
        return Err(NetlistError::Parse {
            line: acc_line,
            message: format!("unterminated statement `{}`", acc.trim()),
        });
    }

    let mut decls = Declarations::<Gate>::default();
    let mut in_module = false;
    let mut module_done = false;

    for (lineno, stmt) in &statements {
        let lineno = *lineno;
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::Parse {
            line: lineno,
            message,
        };
        // The leading keyword runs to the first non-identifier char, so
        // `not(f, a)` and `and #(2) (f, a, b)` both dispatch correctly.
        let keyword = {
            let head = stmt.split_whitespace().next().unwrap_or_default();
            let cut = head
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'))
                .unwrap_or(head.len());
            &head[..cut]
        };
        if module_done {
            return Err(err(format!(
                "`{keyword}` after endmodule (one module per file)"
            )));
        }
        match keyword {
            "module" => {
                if in_module {
                    return Err(err("nested module".into()));
                }
                in_module = true;
                // `module name (ports…)` — the port list is redundant
                // with the input/output declarations; validate shape only.
                let rest = stmt["module".len()..].trim();
                let name = rest.split(['(', ' ', '\t', '\n']).next().unwrap_or("");
                check_net_name(name, lineno)?;
            }
            "endmodule" => {
                if !in_module {
                    return Err(err("endmodule without module".into()));
                }
                module_done = true;
            }
            "input" | "output" | "wire" => {
                if !in_module {
                    return Err(err(format!("`{keyword}` outside a module")));
                }
                let rest = stmt[keyword.len()..].trim();
                if rest.starts_with('[') {
                    return Err(err(format!(
                        "bus `{keyword} {rest}` not supported (structural scalar subset)"
                    )));
                }
                for name in rest.split(',') {
                    let name = name.trim();
                    check_net_name(name, lineno)?;
                    match keyword {
                        "input" => decls.inputs.push((name.to_owned(), lineno)),
                        "output" => decls.outputs.push((name.to_owned(), lineno)),
                        // Wires are implicit; the declaration is allowed
                        // but carries no information we need.
                        _ => {}
                    }
                }
            }
            "assign" | "always" | "initial" | "reg" | "parameter" | "specify" => {
                return Err(err(format!(
                    "`{keyword}` not supported (structural gate-level subset)"
                )));
            }
            kind_str => {
                if !in_module {
                    return Err(err(format!("`{kind_str}` outside a module")));
                }
                let kind = match kind_str {
                    "and" => GateKind::And,
                    "or" => GateKind::Or,
                    "nand" => GateKind::Nand,
                    "nor" => GateKind::Nor,
                    "xor" => GateKind::Xor,
                    "xnor" => GateKind::Xnor,
                    "not" => GateKind::Not,
                    "buf" => GateKind::Buf,
                    other => return Err(err(format!("unknown statement or primitive `{other}`"))),
                };
                let mut rest = stmt[kind_str.len()..].trim();
                // Optional `#(delay)` or `#(dmin, dmax)`.
                let mut delay = None;
                if let Some(after_hash) = rest.strip_prefix('#') {
                    let after_hash = after_hash.trim_start();
                    let inner = after_hash
                        .strip_prefix('(')
                        .and_then(|r| r.split_once(')'))
                        .ok_or_else(|| err("malformed delay spec after `#`".into()))?;
                    delay = Some(parse_delay_spec(inner.0, lineno)?);
                    rest = inner.1.trim();
                }
                // Optional instance name, then the terminal list.
                let open = rest
                    .find('(')
                    .ok_or_else(|| err(format!("missing terminal list in `{stmt}`")))?;
                let inst = rest[..open].trim();
                if !inst.is_empty() {
                    check_net_name(inst, lineno)?;
                }
                let close = rest
                    .rfind(')')
                    .ok_or_else(|| err(format!("missing `)` in `{stmt}`")))?;
                if close < open {
                    return Err(err(format!("missing `)` in `{stmt}`")));
                }
                if !rest[close + 1..].trim().is_empty() {
                    return Err(err(format!(
                        "trailing text after terminal list in `{stmt}`"
                    )));
                }
                let mut terminals = Vec::new();
                for t in rest[open + 1..close].split(',') {
                    let t = t.trim();
                    check_net_name(t, lineno)?;
                    terminals.push(t.to_owned());
                }
                let (target, fanins) = terminals
                    .split_first()
                    .map(|(t, f)| (t.clone(), f.to_vec()))
                    .ok_or_else(|| err("instance with no terminals".into()))?;
                if fanins.is_empty() {
                    return Err(err(format!("`{kind_str}` instance with no inputs")));
                }
                if matches!(kind, GateKind::Not | GateKind::Buf) && fanins.len() != 1 {
                    // Verilog allows multi-output not/buf; our netlist
                    // model does not.
                    return Err(err(format!(
                        "`{kind_str}` must have exactly one output and one input here"
                    )));
                }
                decls.defs.push(Def {
                    name: target,
                    fanins,
                    line: lineno,
                    payload: Gate { kind, delay },
                });
            }
        }
    }
    if !in_module {
        return Err(NetlistError::Parse {
            line: 1,
            message: "no module found".into(),
        });
    }
    if !module_done {
        return Err(NetlistError::Parse {
            line: statements.last().map(|(l, _)| *l).unwrap_or(1),
            message: "missing endmodule".into(),
        });
    }

    assemble(&decls, &WORDING, |builder, def, fanins| {
        def.payload.build(builder, &def.name, fanins, &mut delay_fn)
    })
}

/// How Verilog words its name-resolution errors.
pub(super) const WORDING: Wording = Wording {
    input: "input",
    output: "output",
    clash: "declared input and driven by a gate",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsers::unit_delays;
    use crate::{Time, TIME_SCALE};

    const HALF_ADDER: &str = "
module half_adder (a, b, s, c);
  input a, b;
  output s, c;
  xor #(1.8) g1 (s, a, b);
  and #(1.2, 1.4) g2 (c, a, b);
endmodule
";

    #[test]
    fn parses_half_adder_with_delays() {
        let n = parse_verilog(HALF_ADDER, unit_delays).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 2);
        let s = n.node(n.outputs()[0].1);
        let c = n.node(n.outputs()[1].1);
        assert_eq!(s.delay(), DelayBounds::fixed(Time::from_units(1.8)));
        assert_eq!(c.delay().min.scaled(), (1.2 * TIME_SCALE as f64) as i64);
        assert_eq!(c.delay().max.scaled(), (1.4 * TIME_SCALE as f64) as i64);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false, true]);
    }

    #[test]
    fn instances_resolve_in_any_order() {
        let src = "
module m (a, y);
  input a;
  output y;
  not g2 (y, t); // uses t before its driver appears
  not g1 (t, a);
endmodule
";
        let n = parse_verilog(src, unit_delays).unwrap();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.evaluate_outputs(&[true]), vec![true]);
    }

    #[test]
    fn comments_are_stripped() {
        let src = "
// leading comment
module m (a, y); /* inline
   spanning lines */ input a;
  output y;
  buf g (y, a); // trailing
endmodule
";
        let n = parse_verilog(src, unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[true]), vec![true]);
    }

    #[test]
    fn primitive_without_space_before_paren() {
        let src = "module m(a, f); input a; output f; not(f, a); endmodule\n";
        let n = parse_verilog(src, unit_delays).unwrap();
        assert_eq!(n.gate_count(), 1);
        assert_eq!(n.evaluate_outputs(&[true]), vec![false]);
    }

    #[test]
    fn anonymous_instances_and_callback_delays() {
        let src = "module m (a, b, y);\ninput a, b;\noutput y;\nnand (y, a, b);\nendmodule\n";
        let mut seen = Vec::new();
        let n = parse_verilog(src, |kind, arity| {
            seen.push((kind, arity));
            unit_delays(kind, arity)
        })
        .unwrap();
        assert_eq!(seen, vec![(GateKind::Nand, 2)]);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
    }

    #[test]
    fn wide_gates_parse() {
        let src = "module m (a, b, c, d, y);\ninput a, b, c, d;\noutput y;\nor g (y, a, b, c, d);\nendmodule\n";
        let n = parse_verilog(src, unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[false, false, false, true]), vec![true]);
        assert_eq!(n.evaluate_outputs(&[false; 4]), vec![false]);
    }

    #[test]
    fn hostile_inputs_yield_typed_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "no module"),
            ("module m (a);\ninput a;\n", "missing endmodule"),
            ("input a;\n", "outside a module"),
            (
                "module m (y);\noutput y;\nendmodule\nmodule n (z);\nendmodule\n",
                "after endmodule",
            ),
            ("module m;\nmodule n;\nendmodule\n", "nested module"),
            (
                "module m (a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n",
                "assign",
            ),
            (
                "module m (a, y);\ninput [3:0] a;\noutput y;\nendmodule\n",
                "bus",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nfrob g (y, a);\nendmodule\n",
                "unknown statement",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot g (y);\nendmodule\n",
                "no inputs",
            ),
            (
                "module m (a, b, y);\ninput a, b;\noutput y;\nnot g (y, a, b);\nendmodule\n",
                "exactly one output",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot #(x) g (y, a);\nendmodule\n",
                "bad delay value",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot #(2, 1) g (y, a);\nendmodule\n",
                "min > max",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot #(1, 2, 3) g (y, a);\nendmodule\n",
                "one or two values",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot #(-1) g (y, a);\nendmodule\n",
                "out of range",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot g y, a;\nendmodule\n",
                "missing terminal list",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot g (y, a\nendmodule\n",
                "unterminated statement",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot g (y, ghost);\nendmodule\n",
                "ghost",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot a (a, y);\nendmodule\n",
                "declared input and driven",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot g (y, z);\nnot h (z, y);\nendmodule\n",
                "cycle",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\nnot g (y, a);\nnot h (y, a);\nendmodule\n",
                "duplicate node name",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\noutput y;\nnot g (y, a);\nendmodule\n",
                "duplicate output",
            ),
            (
                "module m (a, y);\ninput a;\noutput y;\n/* unterminated\nnot g (y, a);\nendmodule\n",
                "unterminated /*",
            ),
        ];
        for (src, needle) in cases {
            let err = parse_verilog(src, unit_delays).expect_err(src);
            assert!(
                err.to_string().contains(needle),
                "source {src:?}: expected error mentioning {needle:?}, got `{err}`"
            );
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "module m (a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n";
        let err = parse_verilog(src, unit_delays).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 4, .. }),
            "{err:?}"
        );
    }
}
