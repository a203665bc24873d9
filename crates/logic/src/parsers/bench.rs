//! ISCAS-85 `.bench` parser.
//!
//! The format used by the benchmark circuits of the paper's evaluation:
//!
//! ```text
//! # c17
//! INPUT(1)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Definitions may appear in any order: forward references resolve and
//! combinational cycles are rejected, by the name resolution all four
//! readers share (see the [`parsers`](super) module). Sequential
//! elements (`DFF`) are rejected — the paper treats purely
//! combinational logic.
//!
//! Two `@tbf` comment pragmas (see `FORMATS.md`) make the format
//! self-contained for round-tripping: `# @tbf delay <min> <max>` on a
//! gate line pins that gate's delay bounds (scaled fixed-point
//! integers, overriding the delay callback), and a standalone
//! `# @tbf output <name> <driver>` line re-binds a declared output to a
//! differently-named driver node. Plain comments are ignored as always.

use super::{
    assemble, check_inputs_first, check_writable_name, delay_pragma, parse_delay_pragma,
    parse_output_pragma, split_pragma, Declarations, Def, Gate, Rebind, Wording,
};
use crate::delay::DelayBounds;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError};

/// Parses `.bench` text into a [`Netlist`], assigning each gate delay
/// bounds via `delay_fn(kind, fanin_count)`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines, unknown gate
/// types, `DFF`s, cycles or dangling references, and the builder's own
/// errors for arity/name problems.
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::{bench::parse_bench, unit_delays};
///
/// let src = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// y = NAND(a, b)
/// ";
/// let n = parse_bench(src, unit_delays)?;
/// assert_eq!(n.inputs().len(), 2);
/// assert_eq!(n.gate_count(), 1);
/// assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn parse_bench(
    text: &str,
    mut delay_fn: impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<Netlist, NetlistError> {
    let mut decls = Declarations::<Gate>::default();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let (code, pragma) = split_pragma(raw);
        let line = code.trim();
        let err = |message: String| NetlistError::Parse {
            line: lineno,
            message,
        };
        if line.is_empty() {
            if let Some(body) = pragma {
                let (output, driver) = parse_output_pragma(body, lineno)?
                    .ok_or_else(|| err(format!("pragma `{body}` must annotate a gate line")))?;
                decls.rebinds.push(Rebind {
                    output,
                    driver,
                    line: lineno,
                });
            }
            continue;
        }
        // A pragma attached to a non-empty line must be a delay pragma on
        // a gate definition; stash it for the definition branch below.
        let mut pragma_delay = None;
        if let Some(body) = pragma {
            pragma_delay = parse_delay_pragma(body, lineno)?;
            if pragma_delay.is_none() {
                return Err(err(format!(
                    "only `@tbf delay` pragmas may annotate a line, got `{body}`"
                )));
            }
            if !line.contains('=') {
                return Err(err("delay pragma must annotate a gate definition".into()));
            }
        }
        if let Some(rest) = strip_directive(line, "INPUT") {
            decls.inputs.push((rest.map_err(&err)?, lineno));
        } else if let Some(rest) = strip_directive(line, "OUTPUT") {
            decls.outputs.push((rest.map_err(&err)?, lineno));
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let rhs = rhs.trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err(format!("expected GATE(...) after `=`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(err(format!("missing `)` in `{rhs}`")));
            }
            let kind_str = rhs[..open].trim().to_ascii_uppercase();
            let kind = match kind_str.as_str() {
                "AND" => GateKind::And,
                "OR" => GateKind::Or,
                "NAND" => GateKind::Nand,
                "NOR" => GateKind::Nor,
                "XOR" => GateKind::Xor,
                "XNOR" => GateKind::Xnor,
                "NOT" | "INV" => GateKind::Not,
                "BUF" | "BUFF" => GateKind::Buf,
                "MAJ" => GateKind::Maj,
                "MUX" => GateKind::Mux,
                "DFF" => {
                    return Err(err("sequential element DFF not supported".into()));
                }
                other => return Err(err(format!("unknown gate type `{other}`"))),
            };
            let fanins: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect();
            decls.defs.push(Def {
                name: lhs.trim().to_owned(),
                fanins,
                line: lineno,
                payload: Gate {
                    kind,
                    delay: pragma_delay,
                },
            });
        } else {
            return Err(err(format!("unrecognized line `{line}`")));
        }
    }
    assemble(&decls, &WORDING, |builder, def, fanins| {
        def.payload.build(builder, &def.name, fanins, &mut delay_fn)
    })
}

/// How `.bench` words its name-resolution errors.
pub(super) const WORDING: Wording = Wording {
    input: "INPUT",
    output: "OUTPUT",
    clash: "declared INPUT and defined as a gate",
};

/// Recognizes `KEYWORD(name)` directives. A line merely *starting* with
/// the keyword is not a directive — `output22 = AND(a, b)` is a gate
/// named `output22`, so anything without a `(` right after the keyword
/// (or containing an `=`) falls through to the definition branch.
fn strip_directive(line: &str, keyword: &str) -> Option<Result<String, String>> {
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    if !rest.starts_with('(') || line.contains('=') {
        return None;
    }
    if let Some(inner) = rest.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        let name = inner.trim();
        if name.is_empty() {
            Some(Err(format!("empty {keyword} directive: `{line}`")))
        } else {
            Some(Ok(name.to_owned()))
        }
    } else {
        Some(Err(format!("malformed {keyword} directive: `{line}`")))
    }
}

/// Serializes a netlist back to self-contained `.bench` text.
///
/// Gate kinds map to the standard `.bench` mnemonics (plus the `MAJ` and
/// `MUX` extensions this parser reads back); constants are not
/// representable in `.bench` and are rejected.
///
/// The output is canonical and round-trips *exactly*: every gate line
/// carries a `# @tbf delay` pragma pinning its scaled delay bounds, an
/// output whose name differs from its driver gets a `# @tbf output`
/// pragma (no alias buffer is inserted), and gates are emitted in node
/// order with all inputs first — so `parse_bench(&write_bench(n)?, _)`
/// reproduces `n`'s `structural_signature` and every `cone_signature`
/// byte for byte, regardless of the delay callback used on reparse.
///
/// # Errors
///
/// Returns [`NetlistError::BadArity`] if the netlist contains a constant
/// node (no `.bench` encoding exists), and [`NetlistError::Unwritable`]
/// if a name cannot survive reparse as a `.bench` token or the inputs do
/// not occupy the first node ids.
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::bench::{parse_bench, write_bench};
/// use tbf_logic::parsers::{mcnc_like_delays, unit_delays};
///
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let n = parse_bench(src, unit_delays)?;
/// // The emitted delay pragmas override the reparse callback, so even a
/// // different delay assignment reproduces the signature exactly.
/// let round = parse_bench(&write_bench(&n)?, mcnc_like_delays)?;
/// assert_eq!(round.structural_signature(), n.structural_signature());
/// assert_eq!(round.evaluate_outputs(&[true]), vec![false]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn write_bench(netlist: &Netlist) -> Result<String, NetlistError> {
    use std::fmt::Write as _;
    check_inputs_first(netlist)?;
    let mut out = String::new();
    for &id in netlist.inputs() {
        let name = netlist.node(id).name();
        check_writable_name(name, ".bench")?;
        let _ = writeln!(out, "INPUT({name})");
    }
    for (name, id) in netlist.outputs() {
        check_writable_name(name, ".bench")?;
        let _ = writeln!(out, "OUTPUT({name})");
        let driver = netlist.node(*id).name();
        if driver != name {
            let _ = writeln!(out, "# @tbf output {name} {driver}");
        }
    }
    for (_, node) in netlist.nodes() {
        let mnemonic = match node.kind() {
            GateKind::Input => continue,
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
            GateKind::Maj => "MAJ",
            GateKind::Mux => "MUX",
            kind @ (GateKind::Const0 | GateKind::Const1) => {
                return Err(NetlistError::BadArity {
                    name: node.name().to_owned(),
                    kind,
                    arity: 0,
                })
            }
        };
        check_writable_name(node.name(), ".bench")?;
        let fanins: Vec<&str> = node
            .fanins()
            .iter()
            .map(|f| netlist.node(*f).name())
            .collect();
        let _ = writeln!(
            out,
            "{} = {mnemonic}({}) {}",
            node.name(),
            fanins.join(", "),
            delay_pragma(node.delay())
        );
    }
    Ok(out)
}

/// The genuine ISCAS-85 `c17` benchmark (6 NAND gates), embedded for
/// out-of-the-box use.
pub const C17_BENCH: &str = "\
# c17 — ISCAS-85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

/// Parses the embedded [`C17_BENCH`] with the given delay assignment.
///
/// # Panics
///
/// Never — the embedded text is valid; errors from user delay callbacks
/// cannot occur (the callback is infallible).
pub fn c17(delay_fn: impl FnMut(GateKind, usize) -> DelayBounds) -> Netlist {
    parse_bench(C17_BENCH, delay_fn).expect("embedded c17 is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsers::unit_delays;
    use crate::{Netlist, Time};

    #[test]
    fn parses_c17() {
        let n = c17(unit_delays);
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.gate_count(), 6);
        assert_eq!(n.topological_delay(), Time::from_int(3));
        // Spot-check function: inputs (1,2,3,6,7) all true.
        // 10 = !(1·3) = 0; 11 = !(3·6) = 0; 16 = !(2·11) = 1;
        // 19 = !(11·7) = 1; 22 = !(10·16) = 1; 23 = !(16·19) = 0.
        assert_eq!(n.evaluate_outputs(&[true; 5]), vec![true, false]);
    }

    #[test]
    fn forward_references_resolve() {
        let src = "
OUTPUT(y)
y = AND(g, a)
g = NOT(a)
INPUT(a)
";
        let n = parse_bench(src, unit_delays).unwrap();
        assert_eq!(n.gate_count(), 2);
        // y = !a · a = 0 always.
        assert_eq!(n.evaluate_outputs(&[true]), vec![false]);
        assert_eq!(n.evaluate_outputs(&[false]), vec![false]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "
# header comment

INPUT(a)  # trailing comment
OUTPUT(y)
y = BUFF(a)
";
        let n = parse_bench(src, unit_delays).unwrap();
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn cycle_detected() {
        let src = "
INPUT(a)
OUTPUT(y)
y = AND(a, z)
z = NOT(y)
";
        let err = parse_bench(src, unit_delays).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn dff_rejected() {
        let src = "
INPUT(a)
OUTPUT(q)
q = DFF(a)
";
        let err = parse_bench(src, unit_delays).unwrap_err();
        assert!(err.to_string().contains("DFF"), "{err}");
    }

    #[test]
    fn unknown_gate_rejected() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", unit_delays).unwrap_err();
        assert!(err.to_string().contains("FROB"), "{err}");
    }

    #[test]
    fn dangling_output_rejected() {
        let err = parse_bench("INPUT(a)\nOUTPUT(nope)\n", unit_delays).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNode("nope".into()));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let err = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", unit_delays).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNode(n) if n == "ghost"));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n";
        let err = parse_bench(src, unit_delays).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("y".into()));
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = parse_bench("INPUT(a)\ngibberish here\n", unit_delays).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }), "{err}");
        let err2 = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a\n", unit_delays).unwrap_err();
        assert!(err2.to_string().contains("missing"), "{err2}");
    }

    #[test]
    fn hostile_inputs_yield_typed_errors() {
        // (source, substring the error must mention) — every case must
        // fail with a typed `NetlistError`, never a panic or a silently
        // wrong netlist.
        let cases: &[(&str, &str)] = &[
            (
                "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n",
                "duplicate OUTPUT",
            ),
            (
                "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
                "duplicate INPUT",
            ),
            ("INPUT(a)\na = NOT(a)\nOUTPUT(a)\n", "declared INPUT"),
            ("OUTPUT(y)\ny = NOT(b)\nINPUT(y)\n", "declared INPUT"),
            ("INPUT()\nOUTPUT(y)\ny = NOT(a)\n", "empty INPUT"),
            ("INPUT(a)\nOUTPUT()\n", "empty OUTPUT"),
            ("INPUT(a)\nINPUT\nOUTPUT(y)\ny = NOT(a)\n", "unrecognized"),
            ("INPUT(a)\nOUTPUT(y)\ny = AND a, b)\n", "expected GATE"),
        ];
        for (src, needle) in cases {
            let err = parse_bench(src, unit_delays).expect_err(src);
            assert!(
                err.to_string().contains(needle),
                "source {src:?}: expected error mentioning {needle:?}, got `{err}`"
            );
        }
    }

    #[test]
    fn directive_errors_carry_line_numbers() {
        let err = parse_bench("INPUT(a)\nINPUT(\nOUTPUT(y)\n", unit_delays).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 2, .. }),
            "{err:?}"
        );
        let err =
            parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n", unit_delays).unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 3, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn gate_names_starting_with_directive_keywords_parse() {
        // `output22` is a gate name, not a malformed OUTPUT directive.
        let src = "INPUT(a)\nOUTPUT(output22)\noutput22 = NOT(a)\ninput9 = BUFF(a)\n";
        let n = parse_bench(src, unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[true]), vec![false]);
    }

    #[test]
    fn output_may_alias_an_input() {
        let src = "INPUT(a)\nOUTPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        let n = parse_bench(src, unit_delays).unwrap();
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.evaluate_outputs(&[true]), vec![true, false]);
        assert_eq!(n.evaluate_outputs(&[false]), vec![false, true]);
    }

    #[test]
    fn crlf_and_trailing_whitespace_accepted() {
        let src = "INPUT(a)\r\nINPUT(b)  \r\nOUTPUT(y)\t\r\ny = NAND(a, b)   \r\n";
        let n = parse_bench(src, unit_delays).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
    }

    #[test]
    fn write_bench_round_trips_c17() {
        let n = c17(unit_delays);
        let text = write_bench(&n).unwrap();
        let round = parse_bench(&text, unit_delays).unwrap();
        assert_eq!(round.gate_count(), n.gate_count());
        assert_eq!(round.inputs().len(), n.inputs().len());
        assert_eq!(round.structural_signature(), n.structural_signature());
        for bits in 0..32u32 {
            let a: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(round.evaluate_outputs(&a), n.evaluate_outputs(&a));
        }
    }

    #[test]
    fn write_bench_round_trips_generators() {
        use crate::generators::adders::paper_bypass_adder;
        let n = paper_bypass_adder();
        let text = write_bench(&n).unwrap();
        // The `cout` output aliases driver `g5` via an output pragma, so
        // no extra buffer appears and the signature is preserved even
        // under a different reparse delay callback.
        let round = parse_bench(&text, crate::parsers::mcnc_like_delays).unwrap();
        assert_eq!(round.gate_count(), n.gate_count());
        assert_eq!(round.structural_signature(), n.structural_signature());
        for (i, _) in n.outputs().iter().enumerate() {
            assert_eq!(round.cone_signature(i), n.cone_signature(i));
        }
        for bits in 0..512u32 {
            let a: Vec<bool> = (0..9).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(round.evaluate_outputs(&a), n.evaluate_outputs(&a));
        }
    }

    #[test]
    fn delay_pragma_overrides_callback() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a) # @tbf delay 9000 12500\n";
        let n = parse_bench(src, unit_delays).unwrap();
        let y = n.outputs()[0].1;
        assert_eq!(n.node(y).delay().min.scaled(), 9000);
        assert_eq!(n.node(y).delay().max.scaled(), 12500);
    }

    #[test]
    fn pragma_errors_are_typed() {
        let cases: &[(&str, &str)] = &[
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a) # @tbf delay 5\n",
                "delay pragma",
            ),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a) # @tbf delay 9 5\n",
                "invalid delay pragma",
            ),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a) # @tbf delay x y\n",
                "delay pragma",
            ),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n# @tbf output y\n",
                "output pragma",
            ),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n# @tbf output z y\n",
                "undeclared OUTPUT",
            ),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n# @tbf frobnicate\n",
                "pragma",
            ),
            (
                "INPUT(a) # @tbf delay 1 2\nOUTPUT(y)\ny = NOT(a)\n",
                "gate definition",
            ),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n# @tbf output y a\n# @tbf output y a\n",
                "duplicate output pragma",
            ),
        ];
        for (src, needle) in cases {
            let err = parse_bench(src, unit_delays).expect_err(src);
            assert!(
                err.to_string().contains(needle),
                "source {src:?}: expected error mentioning {needle:?}, got `{err}`"
            );
        }
    }

    #[test]
    fn plain_comments_with_at_signs_are_not_pragmas() {
        let src = "INPUT(a) # written by @tbf-tools\nOUTPUT(y)\ny = NOT(a) # @tbfdelay 1 2\n";
        let n = parse_bench(src, unit_delays).unwrap();
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn write_bench_rejects_unwritable_names() {
        let mut b = Netlist::builder();
        let x = b.input("a b");
        let y = b
            .gate(GateKind::Not, "y", vec![x], unit_delays(GateKind::Not, 1))
            .unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        assert!(matches!(
            write_bench(&n).unwrap_err(),
            NetlistError::Unwritable { .. }
        ));
    }

    #[test]
    fn write_bench_rejects_constants() {
        let mut b = Netlist::builder();
        let _x = b.input("x");
        let c = b
            .gate(GateKind::Const1, "one", vec![], crate::DelayBounds::ZERO)
            .unwrap();
        b.output("y", c);
        let n = b.finish().unwrap();
        assert!(write_bench(&n).is_err());
    }

    #[test]
    fn delay_fn_receives_kind_and_arity() {
        let mut seen = Vec::new();
        let _ = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
            |kind, arity| {
                seen.push((kind, arity));
                unit_delays(kind, arity)
            },
        )
        .unwrap();
        assert_eq!(seen, vec![(GateKind::Nand, 2)]);
    }
}
