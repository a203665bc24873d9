//! Netlist file-format front end.
//!
//! Four readers behind one [`Format`]-dispatching entry point
//! ([`load_netlist`] for paths, [`parse_netlist`] for bytes):
//!
//! * [`bench`](mod@bench) — the ISCAS-85 `.bench` format the paper's evaluation
//!   circuits ship in; real benchmark files drop in unchanged.
//! * [`blif`] — a combinational subset of Berkeley's BLIF (the format SIS
//!   emitted after the paper's technology mapping step), plus a `.gate`
//!   cell subset for structure-exact round trips.
//! * [`aiger`] — and-inverter graphs, ASCII `aag` and binary `aig`.
//! * [`verilog`] — a structural gate-level Verilog subset.
//!
//! `.bench` and BLIF also have writers ([`bench::write_bench`],
//! [`blif::write_blif`]) whose output reparses to a byte-identical
//! `structural_signature` — see `FORMATS.md` for the grammar subsets,
//! the `@tbf` delay/alias pragmas and the round-trip guarantees.
//!
//! Every reader resolves names the same way. A text reader keeps only
//! its line grammar and hands its inputs, definitions, outputs and
//! output re-bindings to one assembly routine; AIGER takes its
//! emission order from the same walk. Forward references resolve, and
//! nodes follow depth-first post-order from declaration order, so a
//! topologically sorted file keeps its node ids and any file resolves
//! in time linear in its size.
//!
//! None of the base formats carry interval delay data, so every parser
//! takes a delay assignment callback (gate kind + fanin count →
//! [`DelayBounds`]), with [`unit_delays`] and [`mcnc_like_delays`]
//! provided; `@tbf delay` pragmas and Verilog `#(…)` annotations
//! override the callback per gate.

pub mod aiger;
pub mod bench;
pub mod blif;
pub mod verilog;

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::delay::{DelayBounds, Time};
use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, NetlistError, NodeId};

/// The netlist file formats the front end reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// ISCAS-85 `.bench`.
    Bench,
    /// Combinational BLIF subset (covers + `.gate` cells).
    Blif,
    /// AIGER and-inverter graphs; ASCII `aag` and binary `aig` are
    /// distinguished by the file's own magic, not the format tag.
    Aiger,
    /// Structural gate-level Verilog subset.
    Verilog,
}

impl Format {
    /// All formats, in canonical order.
    pub const ALL: [Format; 4] = [Format::Bench, Format::Blif, Format::Aiger, Format::Verilog];

    /// The canonical lowercase name (`bench`, `blif`, `aiger`,
    /// `verilog`).
    pub fn name(self) -> &'static str {
        match self {
            Format::Bench => "bench",
            Format::Blif => "blif",
            Format::Aiger => "aiger",
            Format::Verilog => "verilog",
        }
    }

    /// Resolves a user-supplied format name (CLI flag, protocol field);
    /// accepts the canonical names plus the extension spellings.
    pub fn from_name(name: &str) -> Option<Format> {
        match name.to_ascii_lowercase().as_str() {
            "bench" => Some(Format::Bench),
            "blif" => Some(Format::Blif),
            "aiger" | "aag" | "aig" => Some(Format::Aiger),
            "verilog" | "v" => Some(Format::Verilog),
            _ => None,
        }
    }

    /// Infers the format from a path's extension (`.bench`, `.blif`,
    /// `.aag`, `.aig`, `.v`).
    pub fn from_extension(path: &std::path::Path) -> Option<Format> {
        let ext = path.extension()?.to_str()?;
        match ext.to_ascii_lowercase().as_str() {
            "bench" => Some(Format::Bench),
            "blif" => Some(Format::Blif),
            "aag" | "aig" => Some(Format::Aiger),
            "v" => Some(Format::Verilog),
            _ => None,
        }
    }

    /// Sniffs the format from file content: the AIGER magic, then the
    /// first substantive line (`.`-directive → BLIF, `module` → Verilog,
    /// anything `.bench`-shaped → bench).
    pub fn sniff(bytes: &[u8]) -> Option<Format> {
        if bytes.starts_with(b"aag ") || bytes.starts_with(b"aig ") {
            return Some(Format::Aiger);
        }
        let text = std::str::from_utf8(bytes).ok()?;
        for raw in text.lines() {
            let line = raw.trim_start();
            if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
                continue;
            }
            if line.starts_with('.') {
                return Some(Format::Blif);
            }
            if line == "module"
                || line
                    .strip_prefix("module")
                    .is_some_and(|r| r.starts_with(char::is_whitespace))
            {
                return Some(Format::Verilog);
            }
            let upper = line.to_ascii_uppercase();
            if upper.starts_with("INPUT") || upper.starts_with("OUTPUT") || line.contains('=') {
                return Some(Format::Bench);
            }
            return None;
        }
        None
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses netlist bytes in the given format, assigning delays via
/// `delay_fn` wherever the file itself carries none.
///
/// Text formats reject invalid UTF-8 with a typed error; AIGER accepts
/// raw bytes (the binary AND section is not text).
///
/// # Errors
///
/// Whatever the format's parser returns — see [`bench::parse_bench`],
/// [`blif::parse_blif`], [`aiger::parse_aiger`],
/// [`verilog::parse_verilog`].
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::{parse_netlist, Format, unit_delays};
///
/// let n = parse_netlist(
///     Format::Bench,
///     b"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
///     unit_delays,
/// )?;
/// assert_eq!(n.evaluate_outputs(&[false]), vec![true]);
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn parse_netlist(
    format: Format,
    bytes: &[u8],
    delay_fn: impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<Netlist, NetlistError> {
    let text = |bytes: &[u8]| -> Result<String, NetlistError> {
        String::from_utf8(bytes.to_vec()).map_err(|e| NetlistError::Parse {
            line: 1,
            message: format!("{format} input is not UTF-8: {e}"),
        })
    };
    match format {
        Format::Bench => bench::parse_bench(&text(bytes)?, delay_fn),
        Format::Blif => blif::parse_blif(&text(bytes)?, delay_fn),
        Format::Aiger => aiger::parse_aiger(bytes, delay_fn),
        Format::Verilog => verilog::parse_verilog(&text(bytes)?, delay_fn),
    }
}

/// Loads a netlist file, inferring its format from the extension and
/// falling back to content sniffing, then `.bench` (the historical
/// default for extension-less benchmark files).
///
/// # Errors
///
/// [`NetlistError::Io`] if the file cannot be read, otherwise whatever
/// [`parse_netlist`] returns for the resolved format.
///
/// # Example
///
/// ```
/// use tbf_logic::parsers::{load_netlist, unit_delays};
///
/// let path = std::env::temp_dir().join("tbf_doc_load.blif");
/// std::fs::write(&path, ".model m\n.inputs a\n.outputs f\n.gate inv i0=a O=f\n.end\n").unwrap();
/// let n = load_netlist(&path, unit_delays)?;
/// assert_eq!(n.evaluate_outputs(&[false]), vec![true]);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), tbf_logic::NetlistError>(())
/// ```
pub fn load_netlist(
    path: impl AsRef<std::path::Path>,
    delay_fn: impl FnMut(GateKind, usize) -> DelayBounds,
) -> Result<Netlist, NetlistError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| NetlistError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let format = Format::from_extension(path)
        .or_else(|| Format::sniff(&bytes))
        .unwrap_or(Format::Bench);
    parse_netlist(format, &bytes, delay_fn)
}

/// One named definition a text reader hands to [`assemble`]: the node
/// it drives, the names it reads in pin order, its source line and the
/// reader's own payload (gate kind and delay, a BLIF cover).
pub(crate) struct Def<T> {
    pub(crate) name: String,
    pub(crate) fanins: Vec<String>,
    pub(crate) line: usize,
    pub(crate) payload: T,
}

/// A `@tbf output <output> <driver>` re-binding and its line.
pub(crate) struct Rebind {
    pub(crate) output: String,
    pub(crate) driver: String,
    pub(crate) line: usize,
}

/// What a text reader's line grammar yields, each list in file order:
/// `(name, line)` inputs and outputs, definitions and re-bindings.
pub(crate) struct Declarations<T> {
    pub(crate) inputs: Vec<(String, usize)>,
    pub(crate) defs: Vec<Def<T>>,
    pub(crate) outputs: Vec<(String, usize)>,
    pub(crate) rebinds: Vec<Rebind>,
}

impl<T> Default for Declarations<T> {
    fn default() -> Self {
        Declarations {
            inputs: Vec::new(),
            defs: Vec::new(),
            outputs: Vec::new(),
            rebinds: Vec::new(),
        }
    }
}

/// How a format words the resolution errors [`assemble`] reports.
pub(crate) struct Wording {
    /// The input keyword: `duplicate {input} `a``.
    pub(crate) input: &'static str,
    /// The output keyword: `duplicate {output} `y``.
    pub(crate) output: &'static str,
    /// A name both declared an input and defined: `` `a` is {clash}``.
    pub(crate) clash: &'static str,
}

/// The payload of a gate definition: its kind and the delay bounds the
/// file pins, if any.
pub(crate) struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) delay: Option<DelayBounds>,
}

impl Gate {
    /// Adds the gate, with the file's delay or else `delay_fn`'s.
    pub(crate) fn build(
        &self,
        builder: &mut NetlistBuilder,
        name: &str,
        fanins: Vec<NodeId>,
        delay_fn: &mut impl FnMut(GateKind, usize) -> DelayBounds,
    ) -> Result<NodeId, NetlistError> {
        let delay = self
            .delay
            .unwrap_or_else(|| delay_fn(self.kind, fanins.len()));
        builder.gate(self.kind, name, fanins, delay)
    }
}

/// How a fanin resolves during [`walk`].
pub(crate) enum Fanin<Id> {
    /// Bound before the walk: a primary input or a constant.
    Bound(Id),
    /// The definition at this index.
    Def(usize),
}

/// Emits definitions `0..count` in depth-first post-order from
/// declaration order, so every definition follows its fanins and a
/// topologically sorted file is emitted as declared.
///
/// `fanins(i)` is asked once per definition and `resolve` once per
/// fanin; `emit(i, ids)` receives the ids of definition `i`'s fanins in
/// pin order and returns its own. A fanin that reaches a definition
/// still on the walk's stack closes a combinational cycle, reported as
/// `cycle(j)` for that definition. Returns every definition's id, by
/// index. The first fault the walk meets is the one reported.
pub(crate) fn walk<'a, K: 'a, Id: Copy>(
    count: usize,
    fanins: impl Fn(usize) -> &'a [K],
    mut resolve: impl FnMut(&K) -> Result<Fanin<Id>, NetlistError>,
    mut emit: impl FnMut(usize, Vec<Id>) -> Result<Id, NetlistError>,
    cycle: impl Fn(usize) -> NetlistError,
) -> Result<Vec<Id>, NetlistError> {
    #[derive(Clone, Copy)]
    enum Mark<Id> {
        New,
        Open,
        Done(Id),
    }
    /// A definition on the stack: its fanins and the ids resolved so
    /// far, whose count is the position of the next fanin.
    struct Frame<'a, K, Id> {
        def: usize,
        fanins: &'a [K],
        ids: Vec<Id>,
    }
    let mut marks = vec![Mark::New; count];
    let mut stack: Vec<Frame<'a, K, Id>> = Vec::new();
    let open = |def: usize, marks: &mut [Mark<Id>]| {
        marks[def] = Mark::Open;
        let fanins = fanins(def);
        Frame {
            def,
            fanins,
            ids: Vec::with_capacity(fanins.len()),
        }
    };
    for root in 0..count {
        if let Mark::Done(_) = marks[root] {
            continue;
        }
        stack.push(open(root, &mut marks));
        while let Some(top) = stack.last_mut() {
            let pending = top.fanins;
            if let Some(fanin) = pending.get(top.ids.len()) {
                match resolve(fanin)? {
                    Fanin::Bound(id) => top.ids.push(id),
                    Fanin::Def(j) => match marks[j] {
                        Mark::Done(id) => top.ids.push(id),
                        Mark::Open => return Err(cycle(j)),
                        Mark::New => stack.push(open(j, &mut marks)),
                    },
                }
                continue;
            }
            let Frame { def, ids, .. } = stack.pop().expect("the loop holds a top frame");
            let id = emit(def, ids)?;
            marks[def] = Mark::Done(id);
            if let Some(parent) = stack.last_mut() {
                parent.ids.push(id);
            }
        }
    }
    Ok(marks
        .into_iter()
        .map(|mark| match mark {
            Mark::Done(id) => id,
            Mark::New | Mark::Open => unreachable!("the walk emits every definition"),
        })
        .collect())
}

/// Builds a text reader's declarations into a netlist: the one place
/// that decides in which order definitions become nodes and which name
/// faults are errors.
///
/// Inputs become the first nodes, in order. Definition names are
/// indexed once: a name defined twice is [`NetlistError::DuplicateName`],
/// a name both declared an input and defined is a parse error at the
/// later of the two lines. Definitions then become nodes in [`walk`]
/// order, each through `build` with its fanins' node ids; a fanin
/// naming nothing is [`NetlistError::UnknownNode`]. Last, outputs bind
/// to their drivers, re-bound by `@tbf output` pragmas, and every
/// pragma must name a declared output. Errors use the format's
/// `wording`.
pub(crate) fn assemble<T>(
    decls: &Declarations<T>,
    wording: &Wording,
    mut build: impl FnMut(&mut NetlistBuilder, &Def<T>, Vec<NodeId>) -> Result<NodeId, NetlistError>,
) -> Result<Netlist, NetlistError> {
    #[derive(Clone, Copy)]
    enum Slot {
        Input { id: NodeId, line: usize },
        Def(usize),
    }
    let parse = |line: usize, message: String| NetlistError::Parse { line, message };
    // The builder's duplicate-name error, at the reader's line and in
    // its words.
    let duplicate = |line: usize, what: &'static str| {
        move |e: NetlistError| match e {
            NetlistError::DuplicateName(n) => parse(line, format!("duplicate {what} `{n}`")),
            other => other,
        }
    };
    let Declarations {
        inputs,
        defs,
        outputs,
        rebinds,
    } = decls;

    let mut builder = Netlist::builder();
    let mut slots: HashMap<&str, Slot> = HashMap::with_capacity(inputs.len() + defs.len());
    for (name, line) in inputs {
        let id = builder
            .try_input(name)
            .map_err(duplicate(*line, wording.input))?;
        slots.insert(name, Slot::Input { id, line: *line });
    }
    for (i, def) in defs.iter().enumerate() {
        match slots.entry(&def.name) {
            Entry::Vacant(slot) => {
                slot.insert(Slot::Def(i));
            }
            Entry::Occupied(slot) => {
                return Err(match *slot.get() {
                    Slot::Def(_) => NetlistError::DuplicateName(def.name.clone()),
                    Slot::Input { line, .. } => parse(
                        def.line.max(line),
                        format!("`{}` is {}", def.name, wording.clash),
                    ),
                })
            }
        }
    }

    let ids = walk(
        defs.len(),
        |i| &defs[i].fanins[..],
        |name| match slots.get(name.as_str()) {
            Some(&Slot::Input { id, .. }) => Ok(Fanin::Bound(id)),
            Some(&Slot::Def(j)) => Ok(Fanin::Def(j)),
            None => Err(NetlistError::UnknownNode(name.clone())),
        },
        |i, fanin_ids| build(&mut builder, &defs[i], fanin_ids),
        |j| {
            parse(
                defs[j].line,
                format!("combinational cycle through `{}`", defs[j].name),
            )
        },
    )?;

    let mut drivers: HashMap<&str, &str> = HashMap::with_capacity(rebinds.len());
    for rebind in rebinds {
        if drivers.insert(&rebind.output, &rebind.driver).is_some() {
            return Err(parse(
                rebind.line,
                format!("duplicate output pragma for `{}`", rebind.output),
            ));
        }
    }
    for (name, line) in outputs {
        let driver = drivers.get(name.as_str()).copied().unwrap_or(name);
        let id = match slots.get(driver) {
            Some(&Slot::Input { id, .. }) => id,
            Some(&Slot::Def(j)) => ids[j],
            None => return Err(NetlistError::UnknownNode(driver.to_owned())),
        };
        builder
            .try_output(name, id)
            .map_err(duplicate(*line, wording.output))?;
    }
    if let Some(rebind) = rebinds.iter().find(|r| !builder.has_output(&r.output)) {
        return Err(parse(
            rebind.line,
            format!(
                "output pragma for undeclared {} `{}`",
                wording.output, rebind.output
            ),
        ));
    }
    builder.finish()
}

/// Splits a raw source line into its code part and an optional `@tbf`
/// pragma carried by the trailing comment.
///
/// Pragmas are the delay/alias annotation convention shared by the
/// `.bench` and BLIF writers (see `FORMATS.md`): a comment of the form
/// `# @tbf <body>` is returned as `Some(body)`; every other comment is
/// discarded exactly as before.
pub(crate) fn split_pragma(raw: &str) -> (&str, Option<&str>) {
    match raw.split_once('#') {
        None => (raw, None),
        Some((code, comment)) => match comment.trim().strip_prefix("@tbf") {
            Some(body) if body.starts_with(char::is_whitespace) => (code, Some(body.trim())),
            _ => (code, None),
        },
    }
}

/// Parses the body of a `@tbf delay <min> <max>` pragma (scaled
/// fixed-point integers, [`crate::TIME_SCALE`] sub-units per unit) into
/// delay bounds. Returns `Ok(None)` if `body` is not a delay pragma.
pub(crate) fn parse_delay_pragma(
    body: &str,
    line: usize,
) -> Result<Option<DelayBounds>, NetlistError> {
    let Some(rest) = body.strip_prefix("delay") else {
        return Ok(None);
    };
    let err = |message: String| NetlistError::Parse { line, message };
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let [min, max] = parts.as_slice() else {
        return Err(err(format!(
            "delay pragma needs two scaled integers, got `{rest}`"
        )));
    };
    let min: i64 = min
        .parse()
        .map_err(|e| err(format!("delay pragma min: {e}")))?;
    let max: i64 = max
        .parse()
        .map_err(|e| err(format!("delay pragma max: {e}")))?;
    if min < 0 || min > max {
        return Err(err(format!("invalid delay pragma bounds [{min}, {max}]")));
    }
    Ok(Some(DelayBounds::new(
        Time::from_scaled(min),
        Time::from_scaled(max),
    )))
}

/// Parses the body of a `@tbf output <name> <driver>` pragma, which
/// re-binds a declared primary output to a differently-named driver
/// node. Returns `Ok(None)` if `body` is not an output pragma.
pub(crate) fn parse_output_pragma(
    body: &str,
    line: usize,
) -> Result<Option<(String, String)>, NetlistError> {
    let Some(rest) = body.strip_prefix("output") else {
        return Ok(None);
    };
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let [name, driver] = parts.as_slice() else {
        return Err(NetlistError::Parse {
            line,
            message: format!("output pragma needs `<name> <driver>`, got `{rest}`"),
        });
    };
    Ok(Some(((*name).to_owned(), (*driver).to_owned())))
}

/// The `@tbf delay` pragma text for one gate's bounds (scaled integers).
pub(crate) fn delay_pragma(delay: DelayBounds) -> String {
    format!("# @tbf delay {} {}", delay.min.scaled(), delay.max.scaled())
}

/// Checks that every name a writer would emit survives a reparse as a
/// single token: non-empty, no whitespace, none of the characters the
/// line grammars assign meaning to, and (for BLIF) no leading `.`.
pub(crate) fn check_writable_name(name: &str, format: &'static str) -> Result<(), NetlistError> {
    let bad_char = |c: char| c.is_whitespace() || matches!(c, '#' | '(' | ')' | ',' | '=' | '\\');
    if name.is_empty() || name.contains(bad_char) || name.starts_with('.') {
        return Err(NetlistError::Unwritable {
            name: name.to_owned(),
            detail: format!("name is not representable as a {format} token"),
        });
    }
    Ok(())
}

/// Checks the writer precondition that primary inputs occupy the first
/// node ids: both line-oriented parsers resolve all inputs before any
/// gate, so an interleaved netlist cannot round-trip id-exactly.
pub(crate) fn check_inputs_first(netlist: &crate::Netlist) -> Result<(), NetlistError> {
    for (pos, id) in netlist.inputs().iter().enumerate() {
        if id.index() != pos {
            return Err(NetlistError::Unwritable {
                name: netlist.node(*id).name().to_owned(),
                detail: "inputs must precede all gates to round-trip id-exactly".to_owned(),
            });
        }
    }
    Ok(())
}

/// Every gate gets delay `[1, 1]`.
pub fn unit_delays(_kind: GateKind, _fanins: usize) -> DelayBounds {
    DelayBounds::fixed(Time::from_int(1))
}

/// An MCNC-library-like delay assignment: inverters/buffers are fast,
/// complex gates scale with fanin, and `dᵐⁱⁿ = 0.9·dᵐᵃˣ` exactly as in
/// the paper's §12 experiments.
pub fn mcnc_like_delays(kind: GateKind, fanins: usize) -> DelayBounds {
    let base = match kind {
        GateKind::Not | GateKind::Buf => 1.0,
        GateKind::Nand | GateKind::Nor => 1.2,
        GateKind::And | GateKind::Or => 1.4,
        GateKind::Xor | GateKind::Xnor => 1.8,
        GateKind::Maj | GateKind::Mux => 1.6,
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => return DelayBounds::ZERO,
    };
    let max = Time::from_units(base + 0.2 * fanins.saturating_sub(2) as f64);
    DelayBounds::scaled_min(max, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_delays_are_unit() {
        assert_eq!(
            unit_delays(GateKind::Nand, 4),
            DelayBounds::fixed(Time::from_int(1))
        );
    }

    #[test]
    fn format_names_round_trip() {
        for f in Format::ALL {
            assert_eq!(Format::from_name(f.name()), Some(f));
            assert_eq!(f.to_string(), f.name());
        }
        assert_eq!(Format::from_name("AAG"), Some(Format::Aiger));
        assert_eq!(Format::from_name("v"), Some(Format::Verilog));
        assert_eq!(Format::from_name("vhdl"), None);
    }

    #[test]
    fn extension_inference() {
        use std::path::Path;
        let cases = [
            ("c17.bench", Some(Format::Bench)),
            ("x.BLIF", Some(Format::Blif)),
            ("x.aag", Some(Format::Aiger)),
            ("x.aig", Some(Format::Aiger)),
            ("x.v", Some(Format::Verilog)),
            ("x.vhd", None),
            ("noext", None),
        ];
        for (path, want) in cases {
            assert_eq!(Format::from_extension(Path::new(path)), want, "{path}");
        }
    }

    #[test]
    fn content_sniffing() {
        let cases: &[(&[u8], Option<Format>)] = &[
            (b"aag 1 1 0 1 0\n", Some(Format::Aiger)),
            (b"aig 1 1 0 1 0\n", Some(Format::Aiger)),
            (b"# hdr\n.model m\n", Some(Format::Blif)),
            (b"// hdr\nmodule m (a);\n", Some(Format::Verilog)),
            (b"# c17\nINPUT(1)\n", Some(Format::Bench)),
            (b"g = AND(a, b)\n", Some(Format::Bench)),
            (b"modulex = AND(a, b)\n", Some(Format::Bench)),
            (b"\n# only comments\n", None),
            (b"total gibberish", None),
            (b"\xff\xfe binary junk", None),
        ];
        for (bytes, want) in cases {
            assert_eq!(Format::sniff(bytes), *want, "{bytes:?}");
        }
    }

    #[test]
    fn parse_netlist_dispatches_all_formats() {
        let sources: [(&str, &[u8]); 4] = [
            ("bench", b"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"),
            (
                "blif",
                b".model m\n.inputs a\n.outputs y\n.gate inv i0=a O=y\n.end\n",
            ),
            ("aiger", b"aag 1 1 0 1 0\n2\n3\ni0 a\no0 y\n"),
            (
                "verilog",
                b"module m (a, y);\ninput a;\noutput y;\nnot g (y, a);\nendmodule\n",
            ),
        ];
        for (name, bytes) in sources {
            let format = Format::from_name(name).unwrap();
            let n = parse_netlist(format, bytes, unit_delays).unwrap_or_else(|e| {
                panic!("{name}: {e}");
            });
            assert_eq!(n.evaluate_outputs(&[false]), vec![true], "{name}");
            assert_eq!(n.evaluate_outputs(&[true]), vec![false], "{name}");
        }
    }

    #[test]
    fn parse_netlist_rejects_non_utf8_text_formats() {
        let err = parse_netlist(Format::Bench, b"\xff\xfe", unit_delays).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn walk_reads_each_fanin_list_once() {
        // A chain declared root first: definition i reads definition
        // i + 1, and the last one reads a bound name (`None`).
        let n = 1_000;
        let fanins: Vec<[Option<usize>; 1]> =
            (0..n).map(|i| [(i + 1 < n).then_some(i + 1)]).collect();
        let lists_read = std::cell::Cell::new(0);
        let mut resolved = 0;
        let mut emitted = Vec::new();
        let ids = walk(
            n,
            |i| {
                lists_read.set(lists_read.get() + 1);
                &fanins[i][..]
            },
            |fanin| {
                resolved += 1;
                Ok(fanin.map_or(Fanin::Bound(usize::MAX), Fanin::Def))
            },
            |i, _| {
                emitted.push(i);
                Ok(emitted.len() - 1)
            },
            |_| unreachable!("a chain has no cycle"),
        )
        .unwrap();
        assert_eq!(lists_read.get(), n);
        assert_eq!(resolved, n);
        assert_eq!(emitted, (0..n).rev().collect::<Vec<_>>());
        assert_eq!(ids, (0..n).rev().collect::<Vec<_>>());
    }

    /// Declarations with unit-payload definitions, all built as ANDs.
    fn assemble_with(
        wording: &Wording,
        inputs: &[(&str, usize)],
        defs: &[(&str, &[&str], usize)],
        outputs: &[(&str, usize)],
        rebinds: &[(&str, &str, usize)],
    ) -> Result<Netlist, NetlistError> {
        let owned = |list: &[(&str, usize)]| {
            list.iter()
                .map(|&(name, line)| (name.to_owned(), line))
                .collect()
        };
        let decls = Declarations {
            inputs: owned(inputs),
            defs: defs
                .iter()
                .map(|&(name, fanins, line)| Def {
                    name: name.to_owned(),
                    fanins: fanins.iter().map(|f| (*f).to_owned()).collect(),
                    line,
                    payload: (),
                })
                .collect(),
            outputs: owned(outputs),
            rebinds: rebinds
                .iter()
                .map(|&(output, driver, line)| Rebind {
                    output: output.to_owned(),
                    driver: driver.to_owned(),
                    line,
                })
                .collect(),
        };
        assemble(&decls, wording, |builder, def, ids| {
            builder.gate(GateKind::And, &def.name, ids, DelayBounds::ZERO)
        })
    }

    #[test]
    fn resolution_faults_carry_kind_line_and_wording() {
        let parse = |line: usize, message: &str| NetlistError::Parse {
            line,
            message: message.to_owned(),
        };
        for (wording, input, output, clash) in [
            (
                &bench::WORDING,
                "INPUT",
                "OUTPUT",
                "declared INPUT and defined as a gate",
            ),
            (
                &blif::WORDING,
                "input",
                "output",
                "declared in .inputs and defined as a gate",
            ),
            (
                &verilog::WORDING,
                "input",
                "output",
                "declared input and driven by a gate",
            ),
        ] {
            let a = &[("a", 1)][..];
            let y = &[("y", 2)][..];
            // A cycle is reported at the definition the back edge reaches.
            let err = assemble_with(
                wording,
                a,
                &[("y", &["a", "z"], 3), ("z", &["y"], 4)],
                y,
                &[],
            );
            assert_eq!(
                err.unwrap_err(),
                parse(3, "combinational cycle through `y`")
            );
            let err = assemble_with(wording, a, &[("y", &["a", "ghost"], 3)], y, &[]);
            assert_eq!(err.unwrap_err(), NetlistError::UnknownNode("ghost".into()));
            let err = assemble_with(wording, a, &[("y", &["a"], 3), ("y", &["a"], 4)], y, &[]);
            assert_eq!(err.unwrap_err(), NetlistError::DuplicateName("y".into()));
            // An input/gate clash is reported at the later of its lines.
            let err = assemble_with(wording, &[("y", 4)], &[("y", &["y"], 3)], y, &[]);
            assert_eq!(err.unwrap_err(), parse(4, &format!("`y` is {clash}")));
            let err = assemble_with(wording, a, &[("y", &["a"], 3)], y, &[("z", "y", 5)]);
            assert_eq!(
                err.unwrap_err(),
                parse(5, &format!("output pragma for undeclared {output} `z`"))
            );
            let err = assemble_with(wording, &[("a", 1), ("a", 2)], &[], &[("a", 3)], &[]);
            assert_eq!(
                err.unwrap_err(),
                parse(2, &format!("duplicate {input} `a`"))
            );
            let err = assemble_with(wording, a, &[], &[("a", 3), ("a", 4)], &[]);
            assert_eq!(
                err.unwrap_err(),
                parse(4, &format!("duplicate {output} `a`"))
            );
            let err = assemble_with(
                wording,
                a,
                &[],
                &[("y", 3)],
                &[("y", "a", 4), ("y", "a", 5)],
            );
            assert_eq!(
                err.unwrap_err(),
                parse(5, "duplicate output pragma for `y`")
            );
        }
    }

    #[test]
    fn assemble_emits_forward_references_in_walk_order() {
        // `y` reads `g`, declared after it: `g` becomes a node first.
        let n = assemble_with(
            &bench::WORDING,
            &[("a", 1)],
            &[("y", &["g", "a"], 2), ("g", &["a"], 3)],
            &[("out", 4)],
            &[("out", "y", 5)],
        )
        .unwrap();
        let names: Vec<&str> = n.nodes().map(|(_, node)| node.name()).collect();
        assert_eq!(names, ["a", "g", "y"]);
        assert_eq!(n.outputs()[0], ("out".to_owned(), n.find("y").unwrap()));
    }

    #[test]
    fn mcnc_like_delays_shape() {
        let inv = mcnc_like_delays(GateKind::Not, 1);
        let nand4 = mcnc_like_delays(GateKind::Nand, 4);
        assert!(inv.max < nand4.max, "wider gates are slower");
        // 90% lower bound.
        assert_eq!(
            inv.min.scaled(),
            ((inv.max.scaled() as f64) * 0.9).round() as i64
        );
        assert_eq!(mcnc_like_delays(GateKind::Input, 0), DelayBounds::ZERO);
    }
}
