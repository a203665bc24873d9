//! Name resolution is linear in the size of the file, whatever its
//! declaration order.
//!
//! Every reader resolves names through one depth-first walk, so a chain
//! declared root first parses as fast as its sorted twin and into the
//! same netlist, and outputs are checked for duplicates through one
//! name set. The bounds are generous for a debug build; a quadratic
//! resolver (a first-ready rescan, an output list scanned per output)
//! takes several times longer at these sizes.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tbf_logic::parsers::aiger::parse_aiger;
use tbf_logic::parsers::bench::parse_bench;
use tbf_logic::parsers::blif::parse_blif;
use tbf_logic::parsers::unit_delays;
use tbf_logic::parsers::verilog::parse_verilog;
use tbf_logic::{Netlist, NetlistError};

/// Gates in the AND chain.
const CHAIN: usize = 8_000;
/// Outputs in the wide netlist.
const OUTPUTS: usize = 32_000;
/// Time allowed for one parse.
const BOUND: Duration = Duration::from_secs(2);

/// One format's reader, with unit delays.
type Parse = fn(&str) -> Result<Netlist, NetlistError>;
/// One format's chain writer: sorted, or root first when `true`.
type Write = fn(bool) -> String;

/// Parses `text`, failing if it errors or takes longer than [`BOUND`].
fn timed(label: &str, text: &str, parse: Parse) -> Netlist {
    let started = Instant::now();
    let netlist = parse(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let took = started.elapsed();
    assert!(took < BOUND, "{label} took {took:?}, bound {BOUND:?}");
    netlist
}

/// The chain `g{k} = AND(g{k-1}, x{k})` for `k` in `1..=CHAIN`, with
/// `g0` the input `x0`; `gate(k, prev)` writes one gate's line(s). The
/// gates come in order, or root first when `reverse`.
fn chain(reverse: bool, gate: impl Fn(usize, &str) -> String) -> String {
    let mut lines: Vec<String> = (1..=CHAIN)
        .map(|k| {
            let prev = if k == 1 {
                "x0".to_owned()
            } else {
                format!("g{}", k - 1)
            };
            gate(k, &prev)
        })
        .collect();
    if reverse {
        lines.reverse();
    }
    lines.concat()
}

/// The chain's inputs, space-separated.
fn chain_inputs(sep: &str) -> String {
    (0..=CHAIN)
        .map(|i| format!("x{i}"))
        .collect::<Vec<_>>()
        .join(sep)
}

fn bench_chain(reverse: bool) -> String {
    let mut text = String::new();
    for i in 0..=CHAIN {
        let _ = writeln!(text, "INPUT(x{i})");
    }
    let _ = writeln!(text, "OUTPUT(g{CHAIN})");
    text + &chain(reverse, |k, prev| format!("g{k} = AND({prev}, x{k})\n"))
}

fn blif_chain(reverse: bool, gate: impl Fn(usize, &str) -> String) -> String {
    format!(
        ".model chain\n.inputs {}\n.outputs g{CHAIN}\n{}.end\n",
        chain_inputs(" "),
        chain(reverse, gate)
    )
}

fn verilog_chain(reverse: bool) -> String {
    format!(
        "module chain;\ninput {};\noutput g{CHAIN};\n{}endmodule\n",
        chain_inputs(", "),
        chain(reverse, |k, prev| format!(
            "and u{k} (g{k}, {prev}, x{k});\n"
        ))
    )
}

/// ASCII AIGER: inputs `x0..=x{CHAIN}` are variables `1..=CHAIN + 1`,
/// gate `g{k}` is variable `CHAIN + 1 + k`.
fn aiger_chain(reverse: bool) -> String {
    let inputs = CHAIN + 1;
    let lit = |var: usize| 2 * var;
    let gate_var = |k: usize| inputs + k;
    let mut text = format!("aag {} {inputs} 0 1 {CHAIN}\n", inputs + CHAIN);
    for var in 1..=inputs {
        let _ = writeln!(text, "{}", lit(var));
    }
    let _ = writeln!(text, "{}", lit(gate_var(CHAIN)));
    text += &chain(reverse, |k, _| {
        let prev = if k == 1 { lit(1) } else { lit(gate_var(k - 1)) };
        format!("{} {prev} {}\n", lit(gate_var(k)), lit(k + 1))
    });
    text
}

#[test]
fn reverse_ordered_chains_parse_linearly_into_their_sorted_twins() {
    let formats: [(&str, Write, Parse); 5] = [
        ("bench", bench_chain, |t| parse_bench(t, unit_delays)),
        (
            "blif .gate",
            |reverse| {
                blif_chain(reverse, |k, prev| {
                    format!(".gate and2 i0={prev} i1=x{k} O=g{k}\n")
                })
            },
            |t| parse_blif(t, unit_delays),
        ),
        (
            "blif .names",
            |reverse| {
                blif_chain(reverse, |k, prev| {
                    format!(".names {prev} x{k} g{k}\n11 1\n")
                })
            },
            |t| parse_blif(t, unit_delays),
        ),
        ("verilog", verilog_chain, |t| parse_verilog(t, unit_delays)),
        ("aiger", aiger_chain, |t| {
            parse_aiger(t.as_bytes(), unit_delays)
        }),
    ];
    for (format, write, parse) in formats {
        let sorted = timed(&format!("sorted {format} chain"), &write(false), parse);
        let reverse = timed(&format!("reverse {format} chain"), &write(true), parse);
        assert!(sorted.gate_count() >= CHAIN, "{format}");
        assert_eq!(
            reverse.structural_signature(),
            sorted.structural_signature(),
            "{format}: the reverse chain is not its sorted twin"
        );
    }
}

#[test]
fn inputs_re_exported_as_many_outputs_parse_linearly() {
    let names: Vec<String> = (0..OUTPUTS).map(|i| format!("x{i}")).collect();
    let mut bench = String::new();
    for name in &names {
        let _ = writeln!(bench, "INPUT({name})");
    }
    for name in &names {
        let _ = writeln!(bench, "OUTPUT({name})");
    }
    let blif = format!(
        ".model wide\n.inputs {0}\n.outputs {0}\n.end\n",
        names.join(" ")
    );
    let verilog = format!(
        "module wide;\ninput {0};\noutput {0};\nendmodule\n",
        names.join(", ")
    );
    let cases: [(&str, &str, Parse); 3] = [
        ("bench", &bench, |t| parse_bench(t, unit_delays)),
        ("blif", &blif, |t| parse_blif(t, unit_delays)),
        ("verilog", &verilog, |t| parse_verilog(t, unit_delays)),
    ];
    for (format, text, parse) in cases {
        let n = timed(&format!("{OUTPUTS}-output {format}"), text, parse);
        assert_eq!(n.outputs().len(), OUTPUTS, "{format}");
        assert_eq!(
            n.outputs()[OUTPUTS - 1].1,
            n.inputs()[OUTPUTS - 1],
            "{format}"
        );
    }
}
