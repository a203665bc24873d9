//! The committed corpus under `benchmarks/`: its files are the
//! generators' output byte for byte, its reports are pinned, and every
//! report passes checks that do not trust the engine.
//!
//! The corpus has two tiers:
//!
//! * `iscas85` — the genuine ISCAS-85 members the repository embeds
//!   (`c17`; the larger members need network retrieval, which this
//!   repository deliberately avoids — see `benchmarks/README.md`),
//! * `generated` — deterministic generator circuits at comparable and
//!   larger scales (adders, trees, datapath blocks, random DAGs). Their
//!   files embed `# @tbf delay` pragmas, so the pinned delays do not
//!   depend on the loader's delay callback.
//!
//! After a deliberate change to a generator or a writer, rewrite the
//! files (then review the diff and re-pin) with:
//!
//! ```text
//! TBF_BLESS=1 cargo test --test corpus
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use tbf_suite::core::oracle::floating_delay_oracle;
use tbf_suite::core::{analyze, AnalysisPolicy, CircuitReport};
use tbf_suite::logic::generators::adders::{
    carry_bypass, carry_select, paper_bypass_adder, ripple_carry,
};
use tbf_suite::logic::generators::datapath::{barrel_shifter, decoder};
use tbf_suite::logic::generators::random::random_dag;
use tbf_suite::logic::generators::trees::{comparator, mux_tree, parity_tree};
use tbf_suite::logic::generators::unit_ninety_percent;
use tbf_suite::logic::parsers::bench::{c17, write_bench, C17_BENCH};
use tbf_suite::logic::parsers::blif::write_blif;
use tbf_suite::logic::parsers::mcnc_like_delays;
use tbf_suite::logic::transform::extract_cone_slice;
use tbf_suite::logic::{load_netlist, Format, Netlist, Time};
use tbf_suite::sim::{simulate, Stimulus};

/// One corpus circuit: file name, tier, committed file format, and the
/// generator netlist the committed file is written from.
struct Entry {
    name: &'static str,
    tier: &'static str,
    format: Format,
    netlist: Netlist,
}

/// The corpus table. Deterministic: every entry is either embedded
/// text or a seeded generator, so the written files are byte-stable.
/// Circuits with constant nodes ship as BLIF (classic `.bench` has no
/// constant syntax); the rest as `.bench` — both writers are thereby
/// exercised on every committed-corpus check.
fn corpus() -> Vec<Entry> {
    let d = unit_ninety_percent();
    let entry = |name, tier, format, netlist| Entry {
        name,
        tier,
        format,
        netlist,
    };
    use Format::{Bench, Blif};
    vec![
        entry("c17", "iscas85", Bench, c17(mcnc_like_delays)),
        entry(
            "paper_bypass_adder",
            "generated",
            Bench,
            paper_bypass_adder(),
        ),
        entry("adder_ripple_16", "generated", Bench, ripple_carry(16, d)),
        entry(
            "adder_bypass_4x4",
            "generated",
            Bench,
            carry_bypass(4, 4, d),
        ),
        entry("adder_select_4x4", "generated", Blif, carry_select(4, 4, d)),
        entry("parity_tree_10", "generated", Bench, parity_tree(10, d)),
        entry("comparator_12", "generated", Bench, comparator(12, d)),
        entry("mux_tree_4", "generated", Blif, mux_tree(4, d)),
        entry("decoder_5", "generated", Bench, decoder(5, d)),
        entry("barrel_shifter_3", "generated", Bench, barrel_shifter(3, d)),
        entry(
            "adder_bypass_2x8",
            "generated",
            Bench,
            carry_bypass(2, 8, d),
        ),
        entry("adder_select_4x8", "generated", Blif, carry_select(4, 8, d)),
        entry(
            "random_dag_8x48",
            "generated",
            Bench,
            random_dag(8, 48, 3, 0x15CA5),
        ),
        entry(
            "random_dag_10x64",
            "generated",
            Bench,
            random_dag(10, 64, 3, 0xC0495),
        ),
    ]
}

fn file_name(entry: &Entry) -> String {
    let ext = match entry.format {
        Format::Blif => "blif",
        _ => "bench",
    };
    format!("{}.{ext}", entry.name)
}

fn tier_dir(tier: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("benchmarks")
        .join(tier)
}

fn committed_path(entry: &Entry) -> PathBuf {
    tier_dir(entry.tier).join(file_name(entry))
}

/// What the committed file must hold. The genuine ISCAS-85 member is
/// the embedded text verbatim (classic, pragma-free); generator
/// circuits go through their format's writer, which embeds the delays.
fn expected_text(entry: &Entry) -> String {
    if entry.name == "c17" {
        return C17_BENCH.to_owned();
    }
    match entry.format {
        Format::Blif => write_blif(&entry.netlist, entry.name),
        _ => write_bench(&entry.netlist),
    }
    .unwrap_or_else(|e| panic!("{}: {e}", entry.name))
}

/// Loads the committed file the way the CLI and the benchmark do.
fn load_committed(entry: &Entry) -> Netlist {
    let path = committed_path(entry);
    load_netlist(&path, mcnc_like_delays).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_corpus_is_the_generators_output() {
    let bless = std::env::var_os("TBF_BLESS").is_some();
    let entries = corpus();
    let mut failures = Vec::new();
    for entry in &entries {
        let path = committed_path(entry);
        let text = expected_text(entry);
        if bless {
            // Replace the file in one rename: the other tests in this
            // binary read the corpus while this one rewrites it.
            let fresh = path.with_extension("blessed");
            std::fs::create_dir_all(tier_dir(entry.tier)).expect("create the tier directory");
            std::fs::write(&fresh, &text).expect("write a corpus file");
            std::fs::rename(&fresh, &path).expect("replace a corpus file");
        }
        match std::fs::read(&path) {
            Ok(bytes) if bytes == text.as_bytes() => {}
            Ok(_) => failures.push(format!("{} is not the generator output", path.display())),
            Err(e) => failures.push(format!("{}: {e}", path.display())),
        }
    }
    // The tier directories hold the table's files and nothing else.
    for tier in ["iscas85", "generated"] {
        let expected: BTreeSet<String> = entries
            .iter()
            .filter(|e| e.tier == tier)
            .map(file_name)
            .collect();
        let found: BTreeSet<String> = std::fs::read_dir(tier_dir(tier))
            .expect("read a tier directory")
            .map(|e| e.expect("list a tier directory").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        if found != expected {
            failures.push(format!(
                "benchmarks/{tier} holds {found:?}, the table lists {expected:?}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n(regenerate with TBF_BLESS=1 cargo test --test corpus)",
        failures.join("\n")
    );
}

/// One corpus file's pinned answer: circuit, gates, inputs, outputs,
/// exact circuit delay, topological delay, peak arena nodes, GC sweeps,
/// GC-reclaimed nodes, and each output's exact delay in netlist order.
/// Delays are in fixed-point units (`TIME_SCALE` per time unit).
type Pin = (
    &'static str,
    usize,
    usize,
    usize,
    i64,
    i64,
    usize,
    u64,
    u64,
    &'static [(&'static str, i64)],
);

/// The default policy's answer on every corpus file. Every column is a
/// logical value, the same on any host, thread count or run; the
/// memory columns are functions of the BDD build, so a change that
/// moves one changes the work the engine does and must re-pin it on
/// purpose.
#[rustfmt::skip]
const PINNED: [Pin; 14] = [
    ("c17", 6, 5, 2, 36_000, 36_000, 123, 0, 0, &[("22", 36_000), ("23", 36_000)]),
    ("paper_bypass_adder", 11, 9, 1, 240_000, 400_000, 458, 0, 0, &[("cout", 240_000)]),
    ("adder_ripple_16", 48, 33, 17, 160_000, 160_000, 467, 0, 0, &[
        ("sum0", 20_000), ("sum1", 20_000), ("sum2", 30_000), ("sum3", 40_000),
        ("sum4", 50_000), ("sum5", 60_000), ("sum6", 70_000), ("sum7", 80_000),
        ("sum8", 90_000), ("sum9", 100_000), ("sum10", 110_000), ("sum11", 120_000),
        ("sum12", 130_000), ("sum13", 140_000), ("sum14", 150_000), ("sum15", 160_000),
        ("cout", 160_000)
    ]),
    ("adder_bypass_4x4", 56, 33, 17, 110_000, 200_000, 15_635, 0, 0, &[
        ("sum0", 20_000), ("sum1", 20_000), ("sum2", 30_000), ("sum3", 40_000),
        ("sum4", 60_000), ("sum5", 70_000), ("sum6", 80_000), ("sum7", 90_000),
        ("sum8", 70_000), ("sum9", 80_000), ("sum10", 90_000), ("sum11", 100_000),
        ("sum12", 80_000), ("sum13", 90_000), ("sum14", 100_000), ("sum15", 110_000),
        ("cout", 80_000)
    ]),
    ("adder_select_4x4", 100, 33, 17, 80_000, 80_000, 955, 0, 0, &[
        ("sum0", 30_000), ("sum1", 30_000), ("sum2", 40_000), ("sum3", 50_000),
        ("sum4", 60_000), ("sum5", 60_000), ("sum6", 60_000), ("sum7", 60_000),
        ("sum8", 70_000), ("sum9", 70_000), ("sum10", 70_000), ("sum11", 70_000),
        ("sum12", 80_000), ("sum13", 80_000), ("sum14", 80_000), ("sum15", 80_000),
        ("cout", 80_000)
    ]),
    ("parity_tree_10", 9, 10, 1, 40_000, 40_000, 239, 0, 0, &[("y", 40_000)]),
    ("comparator_12", 23, 24, 1, 50_000, 50_000, 1_103, 0, 0, &[("eq", 50_000)]),
    ("mux_tree_4", 15, 20, 1, 40_000, 40_000, 20_776, 0, 0, &[("y", 40_000)]),
    ("decoder_5", 37, 5, 32, 20_000, 20_000, 148, 0, 0, &[
        ("y0", 20_000), ("y1", 20_000), ("y2", 20_000), ("y3", 20_000), ("y4", 20_000),
        ("y5", 20_000), ("y6", 20_000), ("y7", 20_000), ("y8", 20_000), ("y9", 20_000),
        ("y10", 20_000), ("y11", 20_000), ("y12", 20_000), ("y13", 20_000),
        ("y14", 20_000), ("y15", 20_000), ("y16", 20_000), ("y17", 20_000),
        ("y18", 20_000), ("y19", 20_000), ("y20", 20_000), ("y21", 20_000),
        ("y22", 20_000), ("y23", 20_000), ("y24", 20_000), ("y25", 20_000),
        ("y26", 20_000), ("y27", 20_000), ("y28", 20_000), ("y29", 20_000),
        ("y30", 20_000), ("y31", 10_000)
    ]),
    ("barrel_shifter_3", 24, 11, 8, 30_000, 30_000, 1_359, 0, 0, &[
        ("y0", 30_000), ("y1", 30_000), ("y2", 30_000), ("y3", 30_000), ("y4", 30_000),
        ("y5", 30_000), ("y6", 30_000), ("y7", 30_000)
    ]),
    ("adder_bypass_2x8", 64, 33, 17, 110_000, 240_000, 24_312, 15, 192_187, &[
        ("sum0", 20_000), ("sum1", 20_000), ("sum2", 40_000), ("sum3", 50_000),
        ("sum4", 50_000), ("sum5", 60_000), ("sum6", 60_000), ("sum7", 70_000),
        ("sum8", 70_000), ("sum9", 80_000), ("sum10", 80_000), ("sum11", 90_000),
        ("sum12", 90_000), ("sum13", 100_000), ("sum14", 100_000), ("sum15", 110_000),
        ("cout", 100_000)
    ]),
    ("adder_select_4x8", 200, 65, 33, 120_000, 120_000, 2_499, 0, 0, &[
        ("sum0", 30_000), ("sum1", 30_000), ("sum2", 40_000), ("sum3", 50_000),
        ("sum4", 60_000), ("sum5", 60_000), ("sum6", 60_000), ("sum7", 60_000),
        ("sum8", 70_000), ("sum9", 70_000), ("sum10", 70_000), ("sum11", 70_000),
        ("sum12", 80_000), ("sum13", 80_000), ("sum14", 80_000), ("sum15", 80_000),
        ("sum16", 90_000), ("sum17", 90_000), ("sum18", 90_000), ("sum19", 90_000),
        ("sum20", 100_000), ("sum21", 100_000), ("sum22", 100_000), ("sum23", 100_000),
        ("sum24", 110_000), ("sum25", 110_000), ("sum26", 110_000), ("sum27", 110_000),
        ("sum28", 120_000), ("sum29", 120_000), ("sum30", 120_000), ("sum31", 120_000),
        ("cout", 120_000)
    ]),
    ("random_dag_8x48", 48, 8, 9, 150_000, 190_000, 1_452, 0, 0, &[
        ("o17", 70_000), ("o36", 50_000), ("o39", 80_000), ("o46", 100_000),
        ("o47", 90_000), ("o50", 130_000), ("o51", 140_000), ("o52", 150_000),
        ("o55", 140_000)
    ]),
    ("random_dag_10x64", 64, 10, 17, 150_000, 210_000, 3_593, 0, 0, &[
        ("o25", 70_000), ("o33", 70_000), ("o39", 80_000), ("o46", 80_000),
        ("o49", 150_000), ("o50", 140_000), ("o54", 30_000), ("o55", 0), ("o56", 80_000),
        ("o57", 130_000), ("o63", 40_000), ("o67", 70_000), ("o69", 10_000),
        ("o70", 150_000), ("o71", 110_000), ("o72", 150_000), ("o73", 140_000)
    ]),
];

#[test]
fn corpus_reports_are_pinned() {
    let entries = corpus();
    assert_eq!(entries.len(), PINNED.len());
    for (entry, pin) in entries.iter().zip(PINNED) {
        let netlist = load_committed(entry);
        let report = analyze(&netlist, &AnalysisPolicy::default());
        let parallel = analyze(&netlist, &AnalysisPolicy::default().with_threads(4));
        assert_eq!(
            parallel, report,
            "{}: the report differs at 4 threads",
            entry.name
        );
        assert!(
            report.all_exact(),
            "{}: not every output is exact\n{report}",
            entry.name
        );
        // Report equality skips the memory columns, so both reports
        // are held to the pin.
        for (threads, r) in [(1, &report), (4, &parallel)] {
            let per_output: Vec<(&str, i64)> = r
                .outputs
                .iter()
                .map(|o| (o.name.as_str(), o.delay.scaled()))
                .collect();
            let got = (
                entry.name,
                netlist.gate_count(),
                netlist.inputs().len(),
                netlist.outputs().len(),
                r.exact.expect("all outputs exact").scaled(),
                r.topological.scaled(),
                r.stats.peak_arena_nodes,
                r.stats.gc_sweeps,
                r.stats.gc_reclaimed,
                per_output.as_slice(),
            );
            assert_eq!(
                got, pin,
                "at {threads} thread(s): (circuit, gates, inputs, outputs, delay, topological, \
                 peak arena nodes, gc sweeps, gc reclaimed, per-output delays)"
            );
        }
        let errors = certificate_errors(&netlist, &report);
        assert!(errors.is_empty(), "{}: {errors:#?}", entry.name);
    }
}

/// Cones with at most this many primary inputs are checked against the
/// exhaustive floating-delay oracle.
const ORACLE_MAX_INPUTS: usize = 12;

/// The checks on one report of `netlist` that do not trust the engine:
/// bounds against the topological delay and the exhaustive oracle, and
/// the witness replayed in the simulator. Returns what failed.
fn certificate_errors(netlist: &Netlist, report: &CircuitReport) -> Vec<String> {
    let mut errors = Vec::new();
    assert_eq!(report.outputs.len(), netlist.outputs().len());
    for (i, (o, (_, node))) in report.outputs.iter().zip(netlist.outputs()).enumerate() {
        let (lower, upper) = o.bounds();
        let topological = netlist.topological_delay_of(*node);
        if !(lower <= o.delay && o.delay <= upper && upper <= topological) {
            errors.push(format!(
                "output `{}`: lower {lower} <= delay {} <= upper {upper} <= topological \
                 {topological} does not hold",
                o.name, o.delay
            ));
        }
        let cone = extract_cone_slice(netlist, i).netlist;
        if cone.inputs().len() <= ORACLE_MAX_INPUTS {
            let floating = floating_delay_oracle(&cone).expect("cone within the oracle's cap");
            // The floating delay bounds the 2-vector delay from above,
            // so it bounds an exact delay and any sound lower bound.
            if lower > floating {
                errors.push(format!(
                    "output `{}`: {lower} exceeds the floating-delay oracle {floating}",
                    o.name
                ));
            }
        }
    }
    match &report.witness {
        Some(w) => {
            let found = netlist
                .outputs()
                .iter()
                .zip(&report.outputs)
                .find(|((name, _), _)| *name == w.output);
            let Some(((_, node), o)) = found else {
                errors.push(format!("the witness names no output `{}`", w.output));
                return errors;
            };
            let stimulus = Stimulus::vector_pair(&w.before, &w.after);
            let sim = simulate(netlist, &w.delays, &stimulus.waveforms(netlist));
            let last = sim.waveform(*node).last_transition();
            // A witness realizes the delay or comes within one
            // fixed-point unit of it (see `DelayWitness`).
            let close = last.is_some_and(|t| (t.scaled() - o.delay.scaled()).abs() <= 1);
            if !o.is_exact() || !close {
                errors.push(format!(
                    "witness on `{}` replays to a last transition at {last:?}, reported exact \
                     delay {}",
                    w.output, o.delay
                ));
            }
        }
        None if report
            .outputs
            .iter()
            .any(|o| o.is_exact() && o.delay > Time::ZERO) =>
        {
            errors.push("an exact nonzero delay came without a witness".to_owned());
        }
        None => {}
    }
    errors
}

#[test]
fn the_certificate_checks_reject_wrong_reports() {
    let netlist = paper_bypass_adder();
    let report = analyze(&netlist, &AnalysisPolicy::default());
    assert_eq!(certificate_errors(&netlist, &report), Vec::<String>::new());

    // 41 is above the topological delay (40) and the floating oracle,
    // and the witness still replays to 24.
    let mut inflated = report.clone();
    inflated.outputs[0].delay = Time::from_int(41);
    assert_eq!(certificate_errors(&netlist, &inflated).len(), 3);

    let mut unwitnessed = report;
    unwitnessed.witness = None;
    assert_eq!(
        certificate_errors(&netlist, &unwitnessed),
        ["an exact nonzero delay came without a witness"]
    );
}
