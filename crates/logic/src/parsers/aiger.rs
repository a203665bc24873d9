//! AIGER and-inverter-graph reader (ASCII `aag` and binary `aig`).
//!
//! AIGER encodes a combinational (or sequential) circuit as an
//! and-inverter graph: variables are numbered `1..=M`, literal `2v`
//! means variable `v`, literal `2v+1` its negation, and literals `0`/`1`
//! the constants. The ASCII header is `aag M I L O A` followed by one
//! line per input literal, latch, output literal and AND definition
//! (`lhs rhs0 rhs1`); the binary format (`aig M I L O A`) makes inputs
//! implicit and delta-compresses each AND as two LEB128 varints
//! (`lhs − rhs0`, `rhs0 − rhs1`) with `lhs` implied by position. An
//! optional symbol table (`i0 name`, `o2 name`, …) and a comment section
//! after a lone `c` close the file.
//!
//! This reader is combinational-only (`L > 0` is rejected), materializes
//! one shared [`GateKind::Not`] node per negated literal, and assigns
//! delays via the callback (AIGER carries no timing data). There is no
//! AIGER writer: the format cannot carry delays, so it cannot honor the
//! exact round-trip guarantee the `.bench`/BLIF writers provide.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use super::{walk, Fanin};
use crate::delay::DelayBounds;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, NetlistError, NodeId};

/// Variable-count cap: headers promising more variables than any real
/// benchmark carries are rejected before any allocation happens, so a
/// hostile 30-byte file cannot request gigabytes of nodes.
const MAX_VARS: u64 = 1 << 24;

/// An AND definition: its variable, its two fanin literals and the
/// line it was read at.
struct AndDef {
    var: u64,
    rhs: [u64; 2],
    line: usize,
}

/// What a variable is defined as: a primary input, or the AND at this
/// index of the definition list.
enum Slot {
    Input,
    And(usize),
}

/// Line-oriented cursor over the byte stream; AIGER mixes ASCII lines
/// with a raw binary AND section, so this tracks both.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: String) -> NetlistError {
        NetlistError::Parse {
            line: self.line,
            message,
        }
    }

    /// Reads one `\n`-terminated ASCII line (CR tolerated), or `None` at
    /// end of input.
    fn read_line(&mut self) -> Result<Option<&'a str>, NetlistError> {
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        self.line += 1;
        let rest = &self.bytes[self.pos..];
        let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        self.pos += end + 1;
        let line = std::str::from_utf8(&rest[..end])
            .map_err(|_| self.err("non-UTF-8 text line".into()))?;
        Ok(Some(line.strip_suffix('\r').unwrap_or(line)))
    }

    fn expect_line(&mut self, what: &str) -> Result<&'a str, NetlistError> {
        self.read_line()?
            .ok_or_else(|| self.err(format!("unexpected end of file, expected {what}")))
    }

    /// Decodes one LEB128 varint from the binary AND section.
    fn read_varint(&mut self) -> Result<u64, NetlistError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("truncated binary AND section".into()))?;
            self.pos += 1;
            if shift >= 63 && byte > 1 {
                return Err(self.err("varint overflows 64 bits".into()));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

fn parse_literal(tok: &str, cursor: &Cursor<'_>, max_var: u64) -> Result<u64, NetlistError> {
    let lit: u64 = tok
        .parse()
        .map_err(|_| cursor.err(format!("bad literal `{tok}`")))?;
    if lit / 2 > max_var {
        return Err(cursor.err(format!("literal {lit} exceeds header variable count")));
    }
    Ok(lit)
}

/// Parses AIGER bytes (sniffing ASCII `aag` vs binary `aig` from the
/// magic) into a [`Netlist`], assigning gate delays via
/// `delay_fn(kind, fanin_count)` — negations become [`GateKind::Not`]
/// nodes, conjunctions [`GateKind::And`] nodes.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed headers, latches
/// (`L > 0`), out-of-range or redefined literals, truncated binary
/// sections, combinational cycles and malformed symbol tables, and
/// [`NetlistError::DuplicateName`] when symbol names collide.
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::{aiger::parse_aiger, unit_delays};
///
/// // o = a AND NOT b, with named symbols.
/// let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 a\ni1 b\no0 o\n";
/// let n = parse_aiger(src.as_bytes(), unit_delays)?;
/// assert_eq!(n.inputs().len(), 2);
/// assert_eq!(n.evaluate_outputs(&[true, false]), vec![true]);
/// assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn parse_aiger(
    bytes: &[u8],
    mut delay_fn: impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<Netlist, NetlistError> {
    let mut cursor = Cursor {
        bytes,
        pos: 0,
        line: 0,
    };
    let header = cursor.expect_line("an AIGER header")?;
    let toks: Vec<&str> = header.split_whitespace().collect();
    let (&magic, counts) = toks
        .split_first()
        .ok_or_else(|| cursor.err("empty header".into()))?;
    let binary = match magic {
        "aag" => false,
        "aig" => true,
        other => return Err(cursor.err(format!("bad magic `{other}`, expected `aag` or `aig`"))),
    };
    if counts.len() < 5 {
        return Err(cursor.err(format!(
            "header needs `M I L O A`, got {} fields",
            counts.len()
        )));
    }
    let mut nums = [0u64; 5];
    for (slot, tok) in nums.iter_mut().zip(counts) {
        *slot = tok
            .parse()
            .map_err(|_| cursor.err(format!("bad header count `{tok}`")))?;
    }
    // AIGER 1.9 extensions (B C J F) are fine when zero.
    for extra in &counts[5..] {
        if extra.parse::<u64>() != Ok(0) {
            return Err(cursor.err(format!("unsupported nonzero extension count `{extra}`")));
        }
    }
    let [max_var, n_inputs, n_latches, n_outputs, n_ands] = nums;
    if n_latches > 0 {
        return Err(cursor.err(format!(
            "{n_latches} latches present; only combinational AIGs are supported"
        )));
    }
    if max_var > MAX_VARS {
        return Err(cursor.err(format!(
            "header promises {max_var} variables (cap {MAX_VARS})"
        )));
    }
    match n_inputs.checked_add(n_ands) {
        Some(used) if used <= max_var => {}
        _ => {
            return Err(cursor.err(format!(
                "header counts inconsistent: I={n_inputs} + A={n_ands} > M={max_var}"
            )))
        }
    }

    // Input variables: explicit literal lines in ASCII, implicit 2..2I in
    // binary. `slots` indexes every explicitly defined variable once.
    let mut input_vars: Vec<u64> = Vec::new();
    let mut slots: HashMap<u64, Slot> = HashMap::new();
    if binary {
        input_vars.extend(1..=n_inputs);
    } else {
        for _ in 0..n_inputs {
            let line = cursor.expect_line("an input literal")?;
            let lit = parse_literal(line.trim(), &cursor, max_var)?;
            if lit < 2 || lit % 2 != 0 {
                return Err(cursor.err(format!("input literal {lit} must be even and nonzero")));
            }
            if slots.insert(lit / 2, Slot::Input).is_some() {
                return Err(cursor.err(format!("input literal {lit} defined twice")));
            }
            input_vars.push(lit / 2);
        }
    }

    // Output literals (ASCII lines in both formats).
    let mut output_lits: Vec<u64> = Vec::new();
    for _ in 0..n_outputs {
        let line = cursor.expect_line("an output literal")?;
        output_lits.push(parse_literal(line.trim(), &cursor, max_var)?);
    }

    // AND definitions, in file order.
    let mut ands: Vec<AndDef> = Vec::new();
    if binary {
        for i in 0..n_ands {
            let lhs = 2 * (n_inputs + i + 1);
            let delta0 = cursor.read_varint()?;
            let delta1 = cursor.read_varint()?;
            let rhs0 = lhs
                .checked_sub(delta0)
                .filter(|&r| r < lhs)
                .ok_or_else(|| {
                    cursor.err(format!("AND {lhs}: delta {delta0} puts rhs0 out of range"))
                })?;
            let rhs1 = rhs0.checked_sub(delta1).ok_or_else(|| {
                cursor.err(format!("AND {lhs}: delta {delta1} puts rhs1 out of range"))
            })?;
            slots.insert(lhs / 2, Slot::And(ands.len()));
            ands.push(AndDef {
                var: lhs / 2,
                rhs: [rhs0, rhs1],
                line: cursor.line,
            });
        }
    } else {
        for _ in 0..n_ands {
            let line = cursor.expect_line("an AND definition")?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            let [lhs, rhs0, rhs1] = toks.as_slice() else {
                return Err(cursor.err(format!("AND needs `lhs rhs0 rhs1`, got `{line}`")));
            };
            let lhs = parse_literal(lhs, &cursor, max_var)?;
            let rhs0 = parse_literal(rhs0, &cursor, max_var)?;
            let rhs1 = parse_literal(rhs1, &cursor, max_var)?;
            if lhs < 2 || lhs % 2 != 0 {
                return Err(cursor.err(format!("AND lhs {lhs} must be even and nonzero")));
            }
            match slots.entry(lhs / 2) {
                Entry::Occupied(slot) => {
                    return Err(cursor.err(match slot.get() {
                        Slot::Input => format!("AND lhs {lhs} redefines an input"),
                        Slot::And(_) => format!("AND lhs {lhs} defined twice"),
                    }))
                }
                Entry::Vacant(slot) => {
                    slot.insert(Slot::And(ands.len()));
                }
            }
            ands.push(AndDef {
                var: lhs / 2,
                rhs: [rhs0, rhs1],
                line: cursor.line,
            });
        }
    }

    // Symbol table and comment section.
    let mut input_syms: HashMap<usize, String> = HashMap::new();
    let mut output_syms: HashMap<usize, String> = HashMap::new();
    while let Some(line) = cursor.read_line()? {
        let line = line.trim_end();
        if line == "c" {
            break; // comment section follows; ignore the rest
        }
        if line.is_empty() {
            continue;
        }
        let Some(kind) = line.get(..1) else {
            return Err(cursor.err(format!("unrecognized symbol line `{line}`")));
        };
        let rest = &line[1..];
        let (pos_str, name) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| cursor.err(format!("malformed symbol line `{line}`")))?;
        let pos: usize = pos_str
            .parse()
            .map_err(|_| cursor.err(format!("bad symbol position `{pos_str}`")))?;
        let name = name.trim().to_owned();
        if name.is_empty() {
            return Err(cursor.err(format!("empty symbol name in `{line}`")));
        }
        let table = match kind {
            "i" if (pos as u64) < n_inputs => &mut input_syms,
            "o" if (pos as u64) < n_outputs => &mut output_syms,
            "i" | "o" => {
                return Err(cursor.err(format!("symbol position {pos} out of range in `{line}`")))
            }
            _ => return Err(cursor.err(format!("unrecognized symbol line `{line}`"))),
        };
        if table.insert(pos, name).is_some() {
            return Err(cursor.err(format!("duplicate symbol for `{}{pos}`", kind)));
        }
    }

    // Build the netlist: inputs first (symbol name or `i{pos}`), then
    // AND/NOT nodes in the shared walk's order (ASCII files may order
    // definitions arbitrarily).
    let mut builder = Netlist::builder();
    let mut lit2node: HashMap<u64, NodeId> = HashMap::new();
    for (pos, &var) in input_vars.iter().enumerate() {
        let name = input_syms
            .get(&pos)
            .cloned()
            .unwrap_or_else(|| format!("i{pos}"));
        let id = builder.try_input(&name)?;
        lit2node.insert(2 * var, id);
    }
    walk(
        ands.len(),
        |i| &ands[i].rhs[..],
        |&lit| match slots.get(&(lit / 2)) {
            Some(&Slot::And(j)) => Ok(Fanin::Def(j)),
            // Inputs (in a binary file the variables 1..=I), and the
            // constants 0 and 1 (variable 0).
            Some(Slot::Input) => Ok(Fanin::Bound(())),
            None if lit < 2 || (binary && lit / 2 <= n_inputs) => Ok(Fanin::Bound(())),
            None => Err(cursor.err(format!("literal {lit} is neither input nor AND"))),
        },
        |i, _| {
            let def = &ands[i];
            let f0 = node_for_lit(&mut builder, &mut lit2node, def.rhs[0], &mut delay_fn)?;
            let f1 = node_for_lit(&mut builder, &mut lit2node, def.rhs[1], &mut delay_fn)?;
            let delay = delay_fn(GateKind::And, 2);
            let lit = 2 * def.var;
            let id = builder.gate(GateKind::And, &format!("n{lit}"), vec![f0, f1], delay)?;
            lit2node.insert(lit, id);
            Ok(())
        },
        |j| NetlistError::Parse {
            line: ands[j].line,
            message: format!("combinational cycle through literal {}", 2 * ands[j].var),
        },
    )?;

    for (pos, &lit) in output_lits.iter().enumerate() {
        if lit >= 2 && !lit2node.contains_key(&(2 * (lit / 2))) {
            return Err(cursor.err(format!("output literal {lit} is neither input nor AND")));
        }
        let id = node_for_lit(&mut builder, &mut lit2node, lit, &mut delay_fn)?;
        let name = output_syms
            .get(&pos)
            .cloned()
            .unwrap_or_else(|| format!("o{pos}"));
        builder.try_output(&name, id)?;
    }
    builder.finish()
}

/// The node for a literal, materializing shared constant and NOT nodes
/// on first use (`n{lit}` for the negation of an existing node).
fn node_for_lit(
    builder: &mut NetlistBuilder,
    lit2node: &mut HashMap<u64, NodeId>,
    lit: u64,
    delay_fn: &mut impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<NodeId, NetlistError> {
    if let Some(&id) = lit2node.get(&lit) {
        return Ok(id);
    }
    let id = match lit {
        0 => builder.gate(GateKind::Const0, "const0", vec![], DelayBounds::ZERO)?,
        1 => builder.gate(GateKind::Const1, "const1", vec![], DelayBounds::ZERO)?,
        _ => {
            let pos = lit2node
                .get(&(lit & !1))
                .copied()
                .ok_or_else(|| NetlistError::UnknownNode(format!("literal {}", lit & !1)))?;
            let delay = delay_fn(GateKind::Not, 1);
            builder.gate(GateKind::Not, &format!("n{lit}"), vec![pos], delay)?
        }
    };
    lit2node.insert(lit, id);
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsers::unit_delays;
    use crate::Time;

    /// Hand-encoded binary file: `aig 3 2 0 1 1`, output 6, AND
    /// 6 = 5 & 2 (i.e. `!b & a`; rhs0 ≥ rhs1 as the binary format
    /// requires), so delta0 = 6−5 = 1 and delta1 = 5−2 = 3.
    fn binary_and_not() -> Vec<u8> {
        let mut v = b"aig 3 2 0 1 1\n6\n".to_vec();
        v.extend([1u8, 3u8]); // the single AND, LEB128 deltas
        v.extend_from_slice(b"i0 a\ni1 b\no0 o\n");
        v
    }

    #[test]
    fn parses_ascii_and_not() {
        let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 a\ni1 b\no0 o\n";
        let n = parse_aiger(src.as_bytes(), unit_delays).unwrap();
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        // o = a & !b: one AND + one NOT.
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.evaluate_outputs(&[true, false]), vec![true]);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
        assert_eq!(n.evaluate_outputs(&[false, false]), vec![false]);
    }

    #[test]
    fn parses_binary_and_not() {
        let n = parse_aiger(&binary_and_not(), unit_delays).unwrap();
        assert_eq!(n.inputs().len(), 2);
        // 6 = 5 & 2 = !b & a.
        assert_eq!(n.evaluate_outputs(&[true, false]), vec![true]);
        assert_eq!(n.evaluate_outputs(&[true, true]), vec![false]);
        assert_eq!(n.evaluate_outputs(&[false, false]), vec![false]);
    }

    #[test]
    fn binary_and_ascii_encode_same_function() {
        let ascii = "aag 3 2 0 1 1\n2\n4\n6\n6 5 2\ni0 a\ni1 b\no0 o\n";
        let a = parse_aiger(ascii.as_bytes(), unit_delays).unwrap();
        let b = parse_aiger(&binary_and_not(), unit_delays).unwrap();
        assert_eq!(a.structural_signature(), b.structural_signature());
        for bits in 0..4u32 {
            let v: Vec<bool> = (0..2).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(a.evaluate_outputs(&v), b.evaluate_outputs(&v));
        }
    }

    #[test]
    fn negated_literals_share_one_not_node() {
        // Both ANDs consume !a (literal 3): only one NOT node appears.
        let src = "aag 4 2 0 2 2\n2\n4\n6\n8\n6 3 4\n8 3 4\n";
        let n = parse_aiger(src.as_bytes(), unit_delays).unwrap();
        assert_eq!(n.gate_count(), 3); // 1 NOT + 2 ANDs
    }

    #[test]
    fn constants_and_inverted_outputs() {
        // Outputs: constant false, constant true, !a.
        let src = "aag 1 1 0 3 0\n2\n0\n1\n3\n";
        let n = parse_aiger(src.as_bytes(), unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[false]), vec![false, true, true]);
        assert_eq!(n.evaluate_outputs(&[true]), vec![false, true, false]);
    }

    #[test]
    fn forward_references_resolve() {
        // AND 6 references AND 8 defined later (legal in ASCII AIGER).
        let src = "aag 4 1 0 1 2\n2\n6\n6 8 8\n8 2 2\n";
        let n = parse_aiger(src.as_bytes(), unit_delays).unwrap();
        assert_eq!(n.evaluate_outputs(&[true]), vec![true]);
        assert_eq!(n.evaluate_outputs(&[false]), vec![false]);
    }

    #[test]
    fn multi_fanout_symbols_and_delays() {
        let src = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 left\ni1 right\no0 conj\n";
        let mut seen = Vec::new();
        let n = parse_aiger(src.as_bytes(), |kind, arity| {
            seen.push((kind, arity));
            unit_delays(kind, arity)
        })
        .unwrap();
        assert_eq!(seen, vec![(GateKind::And, 2)]);
        assert_eq!(n.outputs()[0].0, "conj");
        assert_eq!(n.topological_delay(), Time::from_int(1));
    }

    #[test]
    fn hostile_inputs_yield_typed_errors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "unexpected end of file"),
            (b"avg 1 1 0 1 0\n", "bad magic"),
            (b"aag 1 1 0\n", "header needs"),
            (b"aag x 1 0 1 0\n", "bad header count"),
            (b"aag 2 1 1 1 0\n2\n", "latches"),
            (b"aag 1 1 0 1 0\n2\n9\n", "exceeds header"),
            (b"aag 1 2 0 1 0\n2\n4\n2\n", "inconsistent"),
            (b"aag 3 1 0 1 2\n2\n4\n4 2 2\n4 2 2\n", "defined twice"),
            (b"aag 2 1 0 1 1\n2\n4\n2 2 2\n", "redefines an input"),
            (b"aag 2 1 0 1 1\n2\n4\n4 4 4\n", "cycle"),
            (b"aag 3 1 0 1 1\n2\n4\n4 6 6\n", "neither input nor AND"),
            (b"aag 2 1 0 1 1\n2\n6\n4 2 2\n", "exceeds header"),
            (b"aag 1 1 0 1 0\n3\n2\n", "must be even"),
            (b"aag 2 2 0 1 0\n2\n2\n2\n", "defined twice"),
            (b"aag 1 1 0 1 0\n2\n2\nq0 name\n", "unrecognized symbol"),
            (b"aag 1 1 0 1 0\n2\n2\ni4 name\n", "out of range"),
            (b"aag 1 1 0 1 0\n2\n2\ni0 a\ni0 b\n", "duplicate symbol"),
            (b"aig 1 1 0 1 1\n2\n", "inconsistent"),
            (b"aig 2 1 0 1 1\n2\n", "truncated"),
            (
                b"aig 2 1 0 1 1\n2\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
                "overflows",
            ),
            (b"aig 2 1 0 1 1\n2\n\x05\x00", "out of range"),
            (b"aag 99999999999 0 0 0 0\n", "cap"),
            (b"aag 1 1 0 1 0\n2\n2\n\xff\xff\n", "non-UTF-8"),
        ];
        for (bytes, needle) in cases {
            let err = parse_aiger(bytes, unit_delays).expect_err(&format!("{bytes:?}"));
            assert!(
                err.to_string().contains(needle),
                "input {bytes:?}: expected error mentioning {needle:?}, got `{err}`"
            );
        }
    }

    #[test]
    fn symbol_name_collisions_are_typed() {
        let src = "aag 2 2 0 1 0\n2\n4\n2\ni0 same\ni1 same\n";
        let err = parse_aiger(src.as_bytes(), unit_delays).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::Parse { .. } | NetlistError::DuplicateName(_)
        ));
    }

    #[test]
    fn comment_section_is_ignored() {
        // Comment bytes after the `c` marker are never read, so even
        // invalid UTF-8 there is fine.
        let mut bytes = b"aag 1 1 0 1 0\n2\n2\nc\nanything at all\n".to_vec();
        bytes.extend([0xc3u8, 0x28, b'\n']);
        let n = parse_aiger(&bytes, unit_delays).unwrap();
        assert_eq!(n.outputs().len(), 1);
    }
}
