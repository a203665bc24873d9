//! A combinational BLIF subset parser.
//!
//! Supports the output of a SIS-style mapping flow: `.model`, `.inputs`,
//! `.outputs`, single-output `.names` cover tables, a `.gate` cell
//! subset and `.end`. Each cover is synthesized as a two-level
//! NOT/AND/OR network; latches and subcircuits are rejected (the paper
//! treats combinational logic).
//!
//! ```text
//! .model example
//! .inputs a b c
//! .outputs f
//! .names a b c f
//! 11- 1
//! --1 1
//! .end
//! ```
//!
//! `.gate` lines use the TBF cell library documented in `FORMATS.md`
//! (`inv`, `buf`, `and{n}`, `or{n}`, `nand{n}`, `nor{n}`, `xor{n}`,
//! `xnor{n}`, `maj3`, `mux`; formal pins `i0..i{n-1}` and `O`), mapping
//! one-to-one onto [`GateKind`] so structure survives a round trip:
//!
//! ```text
//! .gate nand2 i0=a i1=b O=f # @tbf delay 10800 12000
//! ```
//!
//! The same `@tbf` pragmas as in `.bench` apply: `# @tbf delay <min>
//! <max>` on a `.gate` line pins scaled delay bounds, and a standalone
//! `# @tbf output <name> <driver>` re-binds a declared output to a
//! differently-named driver.

use super::{
    assemble, check_inputs_first, check_writable_name, delay_pragma, parse_delay_pragma,
    parse_output_pragma, split_pragma, Declarations, Def, Gate, Rebind, Wording,
};
use crate::delay::DelayBounds;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, NetlistError, NodeId};

/// The payload of a BLIF definition.
enum Body {
    /// A `.names` cover table: one row of input literals (`None` for
    /// `-`) and its output value per line, synthesized as a two-level
    /// network.
    Cover(Vec<(Vec<Option<bool>>, bool)>),
    /// A `.gate` cell instance, mapping directly onto one gate node.
    Cell(Gate),
}

/// How BLIF words its name-resolution errors.
pub(super) const WORDING: Wording = Wording {
    input: "input",
    output: "output",
    clash: "declared in .inputs and defined as a gate",
};

/// Maps a TBF cell-library name to its gate kind and expected arity.
fn cell_kind(cell: &str) -> Result<(GateKind, usize), String> {
    match cell {
        "inv" => return Ok((GateKind::Not, 1)),
        "buf" => return Ok((GateKind::Buf, 1)),
        "maj3" => return Ok((GateKind::Maj, 3)),
        "mux" => return Ok((GateKind::Mux, 3)),
        _ => {}
    }
    let split = cell
        .find(|c: char| c.is_ascii_digit())
        .unwrap_or(cell.len());
    let kind = match &cell[..split] {
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        _ => return Err(format!("unknown cell `{cell}`")),
    };
    let arity: usize = cell[split..]
        .parse()
        .map_err(|_| format!("cell `{cell}` needs a fanin-count suffix"))?;
    if arity == 0 {
        return Err(format!("cell `{cell}` has zero fanins"));
    }
    Ok((kind, arity))
}

/// The cell-library name for a gate kind (`None` for inputs/constants).
fn kind_cell(kind: GateKind, arity: usize) -> Option<String> {
    Some(match kind {
        GateKind::Not => "inv".into(),
        GateKind::Buf => "buf".into(),
        GateKind::Maj => "maj3".into(),
        GateKind::Mux => "mux".into(),
        GateKind::And => format!("and{arity}"),
        GateKind::Or => format!("or{arity}"),
        GateKind::Nand => format!("nand{arity}"),
        GateKind::Nor => format!("nor{arity}"),
        GateKind::Xor => format!("xor{arity}"),
        GateKind::Xnor => format!("xnor{arity}"),
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => return None,
    })
}

/// Parses BLIF text into a [`Netlist`], assigning the derived gates delay
/// bounds via `delay_fn(kind, fanin_count)`.
///
/// Cover tables mix on-set (`... 1`) and off-set (`... 0`) rows; a table
/// must be single-phase (all rows the same output value), which is what
/// SIS emits.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for unsupported constructs (latches,
/// subcircuits, multi-phase covers), malformed rows, cycles and dangling
/// references.
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::{blif::parse_blif, unit_delays};
///
/// let src = "
/// .model mux
/// .inputs s a b
/// .outputs f
/// .names s a b f
/// 01- 1
/// 1-1 1
/// .end
/// ";
/// let n = parse_blif(src, unit_delays)?;
/// assert_eq!(n.evaluate_outputs(&[false, true, false]), vec![true]);
/// assert_eq!(n.evaluate_outputs(&[true, true, false]), vec![false]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn parse_blif(
    text: &str,
    mut delay_fn: impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<Netlist, NetlistError> {
    let mut decls = Declarations::<Body>::default();

    // Logical lines (backslash continuation), keeping 1-based numbers and
    // any `@tbf` pragma found on a constituent physical line.
    let mut logical: Vec<(usize, String, Option<String>)> = Vec::new();
    let mut pending: Option<(usize, String, Option<String>)> = None;
    for (i, raw) in text.lines().enumerate() {
        let (code, pragma) = split_pragma(raw);
        let line = code.trim_end();
        let (start, mut acc, mut prag) = pending.take().unwrap_or((i + 1, String::new(), None));
        if prag.is_none() {
            prag = pragma.map(str::to_owned);
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            acc.push_str(stripped);
            acc.push(' ');
            pending = Some((start, acc, prag));
        } else {
            acc.push_str(line);
            logical.push((start, acc, prag));
        }
    }
    if let Some((start, acc, prag)) = pending {
        logical.push((start, acc, prag));
    }

    let mut idx = 0usize;
    while idx < logical.len() {
        let (lineno, line, pragma) = (
            logical[idx].0,
            logical[idx].1.trim().to_owned(),
            logical[idx].2.clone(),
        );
        idx += 1;
        let err = |message: String| NetlistError::Parse {
            line: lineno,
            message,
        };
        if line.is_empty() {
            if let Some(body) = pragma {
                let (output, driver) = parse_output_pragma(&body, lineno)?
                    .ok_or_else(|| err(format!("pragma `{body}` must annotate a .gate line")))?;
                decls.rebinds.push(Rebind {
                    output,
                    driver,
                    line: lineno,
                });
            }
            continue;
        }
        // A pragma attached to a directive must be a delay pragma on a
        // `.gate` line; stash it for that branch below.
        let mut pragma_delay = None;
        if let Some(body) = &pragma {
            pragma_delay = parse_delay_pragma(body, lineno)?;
            if pragma_delay.is_none() {
                return Err(err(format!(
                    "only `@tbf delay` pragmas may annotate a line, got `{body}`"
                )));
            }
            if !line.starts_with(".gate") {
                return Err(err("delay pragma must annotate a .gate line".into()));
            }
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap_or_default();
        match head {
            ".model" => {}
            ".inputs" => decls
                .inputs
                .extend(tokens.map(|name| (name.to_owned(), lineno))),
            ".outputs" => decls
                .outputs
                .extend(tokens.map(|name| (name.to_owned(), lineno))),
            ".names" => {
                let mut signals: Vec<String> = tokens.map(str::to_owned).collect();
                let target = signals
                    .pop()
                    .ok_or_else(|| err(".names with no signals".into()))?;
                let n_in = signals.len();
                let mut rows = Vec::new();
                while idx < logical.len() {
                    let (rl, row) = (logical[idx].0, logical[idx].1.trim().to_owned());
                    if row.is_empty() || row.starts_with('.') {
                        break;
                    }
                    idx += 1;
                    let parts: Vec<&str> = row.split_whitespace().collect();
                    let (pattern, value) = match (n_in, parts.as_slice()) {
                        (0, [v]) => ("", *v),
                        (_, [p, v]) => (*p, *v),
                        _ => {
                            return Err(NetlistError::Parse {
                                line: rl,
                                message: format!("malformed cover row `{row}`"),
                            })
                        }
                    };
                    if pattern.len() != n_in {
                        return Err(NetlistError::Parse {
                            line: rl,
                            message: format!(
                                "cover row has {} literals, expected {n_in}",
                                pattern.len()
                            ),
                        });
                    }
                    let lits: Vec<Option<bool>> = pattern
                        .chars()
                        .map(|c| match c {
                            '0' => Ok(Some(false)),
                            '1' => Ok(Some(true)),
                            '-' => Ok(None),
                            other => Err(NetlistError::Parse {
                                line: rl,
                                message: format!("bad literal `{other}`"),
                            }),
                        })
                        .collect::<Result<_, _>>()?;
                    let out = match value {
                        "1" => true,
                        "0" => false,
                        other => {
                            return Err(NetlistError::Parse {
                                line: rl,
                                message: format!("bad output value `{other}`"),
                            })
                        }
                    };
                    rows.push((lits, out));
                }
                decls.defs.push(Def {
                    name: target,
                    fanins: signals,
                    line: lineno,
                    payload: Body::Cover(rows),
                });
            }
            ".gate" => {
                let cell = tokens
                    .next()
                    .ok_or_else(|| err(".gate with no cell name".into()))?;
                let (kind, arity) = cell_kind(cell).map_err(&err)?;
                let mut fanins: Vec<String> = Vec::new();
                let mut target: Option<String> = None;
                for tok in tokens {
                    let (formal, actual) = tok
                        .split_once('=')
                        .ok_or_else(|| err(format!("malformed pin binding `{tok}`")))?;
                    if actual.is_empty() {
                        return Err(err(format!("empty actual in pin binding `{tok}`")));
                    }
                    if formal == "O" {
                        if target.replace(actual.to_owned()).is_some() {
                            return Err(err(format!("duplicate output pin on cell `{cell}`")));
                        }
                    } else if formal == format!("i{}", fanins.len()) {
                        fanins.push(actual.to_owned());
                    } else {
                        return Err(err(format!(
                            "unexpected pin `{formal}` (expected i{} or O)",
                            fanins.len()
                        )));
                    }
                }
                let target = target.ok_or_else(|| err(format!("cell `{cell}` has no O pin")))?;
                if fanins.len() != arity {
                    return Err(err(format!(
                        "cell `{cell}` expects {arity} fanins, got {}",
                        fanins.len()
                    )));
                }
                decls.defs.push(Def {
                    name: target,
                    fanins,
                    line: lineno,
                    payload: Body::Cell(Gate {
                        kind,
                        delay: pragma_delay,
                    }),
                });
            }
            ".end" => break,
            ".latch" | ".subckt" | ".mlatch" => {
                return Err(err(format!("unsupported BLIF construct `{head}`")));
            }
            other => return Err(err(format!("unrecognized directive `{other}`"))),
        }
    }

    assemble(&decls, &WORDING, |builder, def, fanins| {
        match &def.payload {
            Body::Cover(rows) => {
                synth_cover(builder, &def.name, def.line, rows, &fanins, &mut delay_fn)
            }
            Body::Cell(gate) => gate.build(builder, &def.name, fanins, &mut delay_fn),
        }
    })
}

fn synth_cover(
    builder: &mut NetlistBuilder,
    name: &str,
    line: usize,
    rows: &[(Vec<Option<bool>>, bool)],
    fanins: &[NodeId],
    delay_fn: &mut impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<NodeId, NetlistError> {
    // Constant covers.
    if rows.is_empty() {
        return builder.gate(GateKind::Const0, name, vec![], DelayBounds::ZERO);
    }
    let phase = rows[0].1;
    if rows.iter().any(|(_, p)| *p != phase) {
        return Err(NetlistError::Parse {
            line,
            message: format!("mixed-phase cover for `{name}`"),
        });
    }
    if fanins.is_empty() {
        let kind = if phase {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        return builder.gate(kind, name, vec![], DelayBounds::ZERO);
    }

    // Build one product per row, OR them, invert for off-set covers.
    let mut products = Vec::new();
    for (r, (lits, _)) in rows.iter().enumerate() {
        let mut terms = Vec::new();
        for (i, (lit, &src)) in lits.iter().zip(fanins).enumerate() {
            match lit {
                None => {}
                Some(true) => terms.push(src),
                Some(false) => terms.push(builder.gate(
                    GateKind::Not,
                    &format!("{name}__r{r}_n{i}"),
                    vec![src],
                    delay_fn(GateKind::Not, 1),
                )?),
            }
        }
        let product = match terms.len() {
            0 => builder.gate(
                GateKind::Const1,
                &format!("{name}__r{r}"),
                vec![],
                DelayBounds::ZERO,
            )?,
            1 => terms[0],
            n => builder.gate(
                GateKind::And,
                &format!("{name}__r{r}"),
                terms,
                delay_fn(GateKind::And, n),
            )?,
        };
        products.push(product);
    }
    let sum = match products.len() {
        1 => products[0],
        n => builder.gate(
            GateKind::Or,
            &format!("{name}__sum"),
            products,
            delay_fn(GateKind::Or, n),
        )?,
    };
    if phase {
        // Name the node: if `sum` already is a reused node (single product
        // single literal), add a zero-delay buffer carrying the name.
        builder.gate(GateKind::Buf, name, vec![sum], DelayBounds::ZERO)
    } else {
        builder.gate(GateKind::Not, name, vec![sum], delay_fn(GateKind::Not, 1))
    }
}

/// Serializes a netlist to self-contained combinational BLIF.
///
/// Every gate becomes a `.gate` cell-library instance (the subset this
/// parser reads back) carrying a `# @tbf delay` pragma with its scaled
/// delay bounds; constants become constant `.names` covers; an output
/// whose name differs from its driver gets a `# @tbf output` pragma
/// instead of an alias cover. Gates are emitted in node order with all
/// inputs first, so `parse_blif(&write_blif(n, m)?, _)` reproduces `n`'s
/// `structural_signature` and every `cone_signature` byte for byte,
/// regardless of the delay callback used on reparse.
///
/// # Errors
///
/// Returns [`NetlistError::Unwritable`] if a name cannot survive reparse
/// as a BLIF token, the inputs do not occupy the first node ids, or a
/// constant node carries a nonzero delay (constant covers cannot carry a
/// delay pragma).
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::blif::{parse_blif, write_blif};
/// use tbf_logic::parsers::{mcnc_like_delays, unit_delays};
///
/// let src = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
/// let n = parse_blif(src, unit_delays)?;
/// let round = parse_blif(&write_blif(&n, "m")?, mcnc_like_delays)?;
/// assert_eq!(round.structural_signature(), n.structural_signature());
/// assert_eq!(round.evaluate_outputs(&[true, true]), vec![true]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn write_blif(netlist: &Netlist, model: &str) -> Result<String, NetlistError> {
    use std::fmt::Write as _;
    check_inputs_first(netlist)?;
    let mut out = String::new();
    let _ = writeln!(out, ".model {model}");
    let mut input_names: Vec<&str> = Vec::new();
    for &i in netlist.inputs() {
        let name = netlist.node(i).name();
        check_writable_name(name, "BLIF")?;
        input_names.push(name);
    }
    let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    let output_names: Vec<&str> = netlist.outputs().iter().map(|(n, _)| n.as_str()).collect();
    for name in &output_names {
        check_writable_name(name, "BLIF")?;
    }
    let _ = writeln!(out, ".outputs {}", output_names.join(" "));
    // Output-alias pragmas directly after the declarations they re-bind.
    for (alias, id) in netlist.outputs() {
        let driver = netlist.node(*id).name();
        if driver != alias {
            let _ = writeln!(out, "# @tbf output {alias} {driver}");
        }
    }

    for (_, node) in netlist.nodes() {
        let kind = node.kind();
        let name = node.name();
        if kind == GateKind::Input {
            continue;
        }
        check_writable_name(name, "BLIF")?;
        match kind_cell(kind, node.fanins().len()) {
            Some(cell) => {
                let pins: Vec<String> = node
                    .fanins()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| format!("i{i}={}", netlist.node(*f).name()))
                    .collect();
                let _ = writeln!(
                    out,
                    ".gate {cell} {} O={name} {}",
                    pins.join(" "),
                    delay_pragma(node.delay())
                );
            }
            None => {
                // Constants: trivial covers, which reparse to the same
                // single node. They cannot carry a delay pragma, so a
                // nonzero delay would not survive the round trip.
                if node.delay() != DelayBounds::ZERO {
                    return Err(NetlistError::Unwritable {
                        name: name.to_owned(),
                        detail: "constant node with nonzero delay has no BLIF encoding".into(),
                    });
                }
                if kind == GateKind::Const0 {
                    let _ = writeln!(out, ".names {name}");
                } else {
                    let _ = writeln!(out, ".names {name}\n1");
                }
            }
        }
    }
    let _ = writeln!(out, ".end");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsers::unit_delays;

    #[test]
    fn parses_two_level_cover() {
        let src = "
.model m
.inputs a b c
.outputs f
.names a b c f
11- 1
--1 1
.end
";
        let n = parse_blif(src, unit_delays).unwrap();
        for i in 0..8u8 {
            let a = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let expect = (a[0] && a[1]) || a[2];
            assert_eq!(n.evaluate_outputs(&a), vec![expect], "{a:?}");
        }
    }

    #[test]
    fn off_set_cover_inverts() {
        let src = "
.model m
.inputs a b
.outputs f
.names a b f
11 0
.end
";
        let n = parse_blif(src, unit_delays).unwrap();
        // f = !(a·b) = NAND.
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
        assert_eq!(n.evaluate_outputs(&[true, false]), vec![true]);
    }

    #[test]
    fn negative_literals() {
        let src = "
.model m
.inputs a b
.outputs f
.names a b f
01 1
.end
";
        let n = parse_blif(src, unit_delays).unwrap();
        // f = !a · b.
        assert_eq!(n.evaluate_outputs(&[false, true]), vec![true]);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
    }

    #[test]
    fn constant_covers() {
        let src = "
.model m
.inputs a
.outputs one zero buf
.names one
1
.names zero
.names a buf
1 1
.end
";
        let n = parse_blif(src, unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[false]), vec![true, false, false]);
        assert_eq!(n.evaluate_outputs(&[true]), vec![true, false, true]);
    }

    #[test]
    fn chained_covers_resolve_in_any_order() {
        let src = "
.model m
.inputs a
.outputs f
.names g f
1 1
.names a g
0 1
.end
";
        let n = parse_blif(src, unit_delays).unwrap();
        // f = g = !a.
        assert_eq!(n.evaluate_outputs(&[false]), vec![true]);
        assert_eq!(n.evaluate_outputs(&[true]), vec![false]);
    }

    #[test]
    fn continuation_lines() {
        let src = ".model m\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
        let n = parse_blif(src, unit_delays).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![true]);
    }

    #[test]
    fn latch_rejected() {
        let src = ".model m\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n";
        let err = parse_blif(src, unit_delays).unwrap_err();
        assert!(err.to_string().contains(".latch"), "{err}");
    }

    #[test]
    fn mixed_phase_cover_rejected() {
        let src = "
.model m
.inputs a
.outputs f
.names a f
1 1
0 0
.end
";
        let err = parse_blif(src, unit_delays).unwrap_err();
        assert!(err.to_string().contains("mixed-phase"), "{err}");
    }

    #[test]
    fn cycle_rejected() {
        let src = "
.model m
.inputs a
.outputs f
.names g f
1 1
.names f g
1 1
.end
";
        let err = parse_blif(src, unit_delays).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn dangling_reference_rejected() {
        let src = "
.model m
.inputs a
.outputs f
.names ghost f
1 1
.end
";
        let err = parse_blif(src, unit_delays).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNode(n) if n == "ghost"));
    }

    #[test]
    fn hostile_inputs_yield_typed_errors() {
        // (source, substring the error must mention) — every case must
        // fail with a typed `NetlistError`, never a panic or a silently
        // wrong netlist.
        let cases: &[(&str, &str)] = &[
            (
                ".model m\n.inputs a\n.outputs f f\n.names a f\n1 1\n.end\n",
                "duplicate output",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.outputs f\n.names a f\n1 1\n.end\n",
                "duplicate output",
            ),
            (
                ".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n",
                ".inputs and defined",
            ),
            (
                ".model m\n.outputs a\n.names a\n1\n.inputs a\n.end\n",
                ".inputs and defined",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.names f\n1\n.names f\n0\n.end\n",
                "duplicate node name",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.names\n.end\n",
                "no signals",
            ),
            // A signal named like a cover's inverter is not that inverter.
            (
                ".model m\n.inputs a\n.outputs g\n.names g__r0_n0\n1\n.names a g\n0 1\n.end\n",
                "duplicate node name `g__r0_n0`",
            ),
        ];
        for (src, needle) in cases {
            let err = parse_blif(src, unit_delays).expect_err(src);
            assert!(
                err.to_string().contains(needle),
                "source {src:?}: expected error mentioning {needle:?}, got `{err}`"
            );
        }
    }

    #[test]
    fn output_may_alias_an_input() {
        let src = ".model m\n.inputs a\n.outputs a f\n.names a f\n0 1\n.end\n";
        let n = parse_blif(src, unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[true]), vec![true, false]);
        assert_eq!(n.evaluate_outputs(&[false]), vec![false, true]);
    }

    #[test]
    fn crlf_and_trailing_whitespace_accepted() {
        let src = ".model m\r\n.inputs a b  \r\n.outputs f\t\r\n.names a b f\r\n11 1  \r\n.end\r\n";
        let n = parse_blif(src, unit_delays).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![true]);
    }

    #[test]
    fn write_blif_round_trips() {
        use crate::generators::adders::paper_bypass_adder;
        let n = paper_bypass_adder();
        let text = write_blif(&n, "bypass").unwrap();
        // Delay pragmas override the reparse callback, so the signature
        // survives even under a different delay assignment.
        let round = parse_blif(&text, crate::parsers::mcnc_like_delays).unwrap();
        assert_eq!(round.structural_signature(), n.structural_signature());
        for (i, _) in n.outputs().iter().enumerate() {
            assert_eq!(round.cone_signature(i), n.cone_signature(i));
        }
        for bits in 0..512u32 {
            let v: Vec<bool> = (0..9).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(
                round.evaluate_outputs(&v),
                n.evaluate_outputs(&v),
                "{bits:#b}"
            );
        }
    }

    #[test]
    fn gate_cells_parse() {
        let src = "
.model m
.inputs a b c
.outputs f g
.gate nand2 i0=a i1=b O=t # @tbf delay 10800 12000
.gate mux i0=c i1=t i2=a O=f
.gate inv i0=f O=g
.end
";
        let n = parse_blif(src, unit_delays).unwrap();
        assert_eq!(n.gate_count(), 3);
        let t = n.node(n.outputs()[0].1); // f = mux(c, t, a)
        assert_eq!(t.kind(), GateKind::Mux);
        // The pragma pinned t's delay; the others got the callback's.
        let nand = n
            .nodes()
            .find(|(_, nd)| nd.kind() == GateKind::Nand)
            .unwrap()
            .1;
        assert_eq!(nand.delay().min.scaled(), 10800);
        assert_eq!(nand.delay().max.scaled(), 12000);
        // mux(s=c, d0=t, d1=a): c=0 selects t = !(a·b).
        assert_eq!(n.evaluate_outputs(&[true, true, false]), vec![false, true]);
    }

    #[test]
    fn hostile_gate_lines_yield_typed_errors() {
        let cases: &[(&str, &str)] = &[
            (".model m\n.inputs a\n.outputs f\n.gate\n.end\n", "no cell"),
            (
                ".model m\n.inputs a\n.outputs f\n.gate frob i0=a O=f\n.end\n",
                "unknown cell",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate nand i0=a O=f\n.end\n",
                "fanin-count suffix",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate and0 O=f\n.end\n",
                "zero fanins",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate inv i0=a\n.end\n",
                "no O pin",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate inv i1=a O=f\n.end\n",
                "unexpected pin",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate inv bogus O=f\n.end\n",
                "malformed pin",
            ),
            (
                ".model m\n.inputs a b\n.outputs f\n.gate inv i0=a i1=b O=f\n.end\n",
                "expects 1 fanins",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate and2 i0=a O=f\n.end\n",
                "expects 2 fanins",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate inv i0=a O=f O=f\n.end\n",
                "duplicate output pin",
            ),
            (
                ".model m\n.inputs a\n.outputs a\n.gate inv i0=a O=a\n.end\n",
                ".inputs and defined",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.names a f # @tbf delay 1 2\n1 1\n.end\n",
                ".gate line",
            ),
            (
                ".model m\n.inputs a\n.outputs f\n.gate inv i0=a O=f\n# @tbf output g f\n.end\n",
                "undeclared output",
            ),
        ];
        for (src, needle) in cases {
            let err = parse_blif(src, unit_delays).expect_err(src);
            assert!(
                err.to_string().contains(needle),
                "source {src:?}: expected error mentioning {needle:?}, got `{err}`"
            );
        }
    }

    #[test]
    fn write_blif_handles_all_kinds() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let y = b.input("y");
        let z = b.input("z");
        let d = crate::DelayBounds::fixed(crate::Time::from_int(1));
        let gates = [
            (GateKind::And, vec![x, y]),
            (GateKind::Or, vec![x, y, z]),
            (GateKind::Nand, vec![x, y]),
            (GateKind::Nor, vec![x, z]),
            (GateKind::Xor, vec![x, y, z]),
            (GateKind::Xnor, vec![x, y]),
            (GateKind::Not, vec![x]),
            (GateKind::Buf, vec![z]),
            (GateKind::Maj, vec![x, y, z]),
            (GateKind::Mux, vec![x, y, z]),
        ];
        let mut ids = Vec::new();
        for (i, (k, f)) in gates.iter().enumerate() {
            ids.push(b.gate(*k, &format!("k{i}"), f.clone(), d).unwrap());
        }
        let c0 = b
            .gate(GateKind::Const0, "c0", vec![], crate::DelayBounds::ZERO)
            .unwrap();
        let c1 = b
            .gate(GateKind::Const1, "c1", vec![], crate::DelayBounds::ZERO)
            .unwrap();
        ids.extend([c0, c1]);
        for (i, id) in ids.iter().enumerate() {
            b.output(&format!("o{i}"), *id);
        }
        let n = b.finish().unwrap();
        let round = parse_blif(&write_blif(&n, "kinds").unwrap(), unit_delays).unwrap();
        assert_eq!(round.structural_signature(), n.structural_signature());
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(round.evaluate_outputs(&v), n.evaluate_outputs(&v));
        }
    }

    #[test]
    fn write_blif_rejects_unwritable() {
        let d = crate::DelayBounds::fixed(crate::Time::from_int(1));
        // Format-significant character in a name.
        let mut b = Netlist::builder();
        let x = b.input(".x");
        let y = b.gate(GateKind::Not, "y", vec![x], d).unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        assert!(matches!(
            write_blif(&n, "m").unwrap_err(),
            NetlistError::Unwritable { .. }
        ));
        // Constant with a nonzero delay cannot carry a pragma.
        let mut b = Netlist::builder();
        let c = b.gate(GateKind::Const1, "one", vec![], d).unwrap();
        b.output("f", c);
        let n = b.finish().unwrap();
        assert!(matches!(
            write_blif(&n, "m").unwrap_err(),
            NetlistError::Unwritable { .. }
        ));
    }

    #[test]
    fn malformed_rows_rejected() {
        let src = ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1 1\n.end\n";
        assert!(parse_blif(src, unit_delays).is_err());
        let src2 = ".model m\n.inputs a b\n.outputs f\n.names a b f\n1x 1\n.end\n";
        assert!(parse_blif(src2, unit_delays).is_err());
        let src3 = ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n";
        assert!(parse_blif(src3, unit_delays).is_err());
    }
}
