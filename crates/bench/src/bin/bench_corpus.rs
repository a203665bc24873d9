//! `bench_corpus` — the committed-corpus runner for the multi-format
//! front end (PR 9).
//!
//! Sweeps every circuit of the committed corpus under `benchmarks/`
//! through the exact anytime engine at 1 and 4 worker threads, asserts
//! that every output resolves **exactly** and that the per-output delays
//! are identical in both configurations, and writes the schema-versioned
//! `BENCH_corpus.json` artifact: per-circuit exact delays (machine
//! independent, diffed against the committed baseline by CI) plus
//! per-configuration wall times and memory telemetry — peak arena
//! nodes, approximate arena bytes, and GC sweep/reclaim totals
//! (wall times are compared only within one run; the node counts are
//! deterministic and CI-diffable).
//!
//! ```text
//! usage: bench_corpus [OUT.json] [REPS] [--corpus DIR] [--regen]
//!        (defaults: BENCH_corpus.json, 3, benchmarks)
//! ```
//!
//! The corpus has two tiers:
//!
//! * `iscas85` — the genuine ISCAS-85 members the repository embeds
//!   (`c17`; the larger members need network retrieval, which this
//!   repository deliberately avoids — see `benchmarks/README.md`),
//! * `generated` — deterministic generator circuits at comparable and
//!   larger scales (adders, trees, datapath blocks, random DAGs), an
//!   EPFL-style arithmetic/control tier. Their `.bench` files embed
//!   `# @tbf delay` pragmas, so the measured delays are independent of
//!   the runner's delay callback.
//!
//! `--regen` rewrites the corpus files from the generator table via
//! [`tbf_logic::parsers::bench::write_bench`] and exits. The default
//! (measurement) mode re-derives each generator netlist and asserts
//! that the committed file still parses to the identical
//! `structural_signature`, so the corpus on disk can never drift from
//! the generators silently.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tbf_core::{analyze, AnalysisPolicy, CircuitReport};
use tbf_logic::generators::adders::{carry_bypass, carry_select, paper_bypass_adder, ripple_carry};
use tbf_logic::generators::datapath::{barrel_shifter, decoder};
use tbf_logic::generators::random::random_dag;
use tbf_logic::generators::trees::{comparator, mux_tree, parity_tree};
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::parsers::bench::{c17, write_bench, C17_BENCH};
use tbf_logic::parsers::blif::write_blif;
use tbf_logic::parsers::mcnc_like_delays;
use tbf_logic::{load_netlist, Format, Netlist, TIME_SCALE};
use tbf_obs::json::Value;

/// Artifact schema name; bump [`SCHEMA_VERSION`] on shape changes.
const SCHEMA: &str = "tbf-bench-corpus";
/// Current artifact schema version. Version 2 added the per-configuration
/// memory columns (`peak_arena_nodes`, `arena_bytes`, `gc_sweeps`,
/// `gc_reclaimed`); version 3 dropped the complement-edge and gc axes,
/// which are no longer options; version 4 dropped the reorder axis (the
/// pressure-reorder column and each configuration's `reorder` member).
const SCHEMA_VERSION: u64 = 4;

/// One corpus circuit: artifact row name, tier, committed file format,
/// and the generator netlist the committed file must structurally
/// match.
struct Entry {
    name: &'static str,
    tier: &'static str,
    format: Format,
    netlist: Netlist,
}

/// The corpus table. Deterministic: every entry is either embedded
/// text or a seeded generator, so `--regen` output is byte-stable.
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

/// The measured configurations, in artifact column order: worker
/// threads off the `t1_off` baseline, per the determinism contract
/// (threads are schedule-only).
const CONFIGS: [(&str, usize); 2] = [
    // (column, threads)
    ("t1_off", 1),
    ("t4_off", 4),
];

/// The per-output view the determinism assertion compares: name,
/// scaled delay, and exactness. Wall time and effort counters are
/// deliberately excluded.
fn output_view(report: &CircuitReport) -> Vec<(String, i64, bool)> {
    report
        .outputs
        .iter()
        .map(|o| (o.name.clone(), o.delay.scaled(), o.is_exact()))
        .collect()
}

fn rational(scaled: i64) -> Value {
    Value::Obj(vec![
        ("num".to_owned(), Value::i64(scaled)),
        ("den".to_owned(), Value::i64(TIME_SCALE)),
    ])
}

/// Measures one circuit across [`CONFIGS`]: asserts exactness and
/// cross-configuration agreement, returns the artifact row.
fn measure_row(entry: &Entry, reps: u32) -> Result<Value, String> {
    let netlist = &entry.netlist;
    let mut best_ms = [f64::INFINITY; CONFIGS.len()];
    let mut reports: Vec<CircuitReport> = Vec::new();
    // Repetitions interleave the configurations so no column
    // systematically enjoys a warmer allocator than another; the cold
    // first repetition is excluded from wall time (it measures lazy
    // init, not the engine).
    for rep in 0..reps.max(1) {
        reports.clear();
        for (i, (_, threads)) in CONFIGS.iter().enumerate() {
            let p = AnalysisPolicy::default().with_threads(*threads);
            let start = Instant::now();
            let report = analyze(netlist, &p);
            if rep > 0 || reps == 1 {
                best_ms[i] = best_ms[i].min(start.elapsed().as_secs_f64() * 1e3);
            }
            reports.push(report);
        }
    }
    let base = &reports[0];
    if !base.all_exact() {
        let degraded: Vec<&str> = base
            .outputs
            .iter()
            .filter(|o| !o.is_exact())
            .map(|o| o.name.as_str())
            .collect();
        return Err(format!(
            "{}: outputs did not resolve exactly: {}",
            entry.name,
            degraded.join(", ")
        ));
    }
    let baseline_view = output_view(base);
    for (report, (config, ..)) in reports.iter().zip(CONFIGS.iter()).skip(1) {
        if output_view(report) != baseline_view {
            return Err(format!(
                "{}: configuration `{config}` changed the per-output delays — \
                 the determinism contract is broken",
                entry.name
            ));
        }
    }
    let exact = base.exact.ok_or_else(|| {
        format!(
            "{}: no exact circuit delay despite exact outputs",
            entry.name
        )
    })?;
    let outputs = base
        .outputs
        .iter()
        .map(|o| {
            Value::Obj(vec![
                ("name".to_owned(), Value::str(&o.name)),
                ("delay".to_owned(), rational(o.delay.scaled())),
            ])
        })
        .collect();
    // Memory telemetry comes from the last repetition's reports: peak
    // arena and the gc totals are functions of the logical build, so
    // every repetition of a configuration reports the same numbers
    // (arena_bytes includes allocator capacity and is informational).
    let configs = CONFIGS
        .iter()
        .enumerate()
        .map(|(i, (name, ..))| {
            let stats = &reports[i].stats;
            (
                (*name).to_owned(),
                Value::Obj(vec![
                    (
                        "wall_ms".to_owned(),
                        Value::Num(format!("{:.3}", best_ms[i])),
                    ),
                    (
                        "peak_arena_nodes".to_owned(),
                        Value::u64(stats.peak_arena_nodes as u64),
                    ),
                    (
                        "arena_bytes".to_owned(),
                        Value::u64(stats.arena_bytes as u64),
                    ),
                    ("gc_sweeps".to_owned(), Value::u64(stats.gc_sweeps)),
                    ("gc_reclaimed".to_owned(), Value::u64(stats.gc_reclaimed)),
                ]),
            )
        })
        .collect();
    Ok(Value::Obj(vec![
        ("circuit".to_owned(), Value::str(entry.name)),
        ("tier".to_owned(), Value::str(entry.tier)),
        ("gates".to_owned(), Value::u64(netlist.gate_count() as u64)),
        (
            "inputs".to_owned(),
            Value::u64(netlist.inputs().len() as u64),
        ),
        (
            "outputs".to_owned(),
            Value::u64(netlist.outputs().len() as u64),
        ),
        ("delay".to_owned(), rational(exact.scaled())),
        (
            "topological".to_owned(),
            rational(base.topological.scaled()),
        ),
        ("per_output".to_owned(), Value::Arr(outputs)),
        ("configs".to_owned(), Value::Obj(configs)),
    ]))
}

/// The corpus path of one entry.
fn corpus_path(dir: &Path, entry: &Entry) -> PathBuf {
    let ext = match entry.format {
        Format::Blif => "blif",
        _ => "bench",
    };
    dir.join(entry.tier).join(format!("{}.{ext}", entry.name))
}

/// `--regen`: write every corpus file from the table. The genuine
/// ISCAS-85 members are written verbatim (classic pragma-free text);
/// generator circuits go through `write_bench`, embedding their delay
/// pragmas.
fn regen(dir: &Path, entries: &[Entry]) -> Result<(), String> {
    for entry in entries {
        let path = corpus_path(dir, entry);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        let text = if entry.name == "c17" {
            C17_BENCH.to_owned()
        } else {
            match entry.format {
                Format::Blif => write_blif(&entry.netlist, entry.name),
                _ => write_bench(&entry.netlist),
            }
            .map_err(|e| format!("{}: {e}", entry.name))?
        };
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("bench_corpus: wrote {}", path.display());
    }
    Ok(())
}

/// Measurement mode: every committed file must parse back to the
/// generator's exact structure before it is measured.
fn check_committed(dir: &Path, entry: &Entry) -> Result<(), String> {
    let path = corpus_path(dir, entry);
    let parsed = load_netlist(&path, mcnc_like_delays)
        .map_err(|e| format!("{}: {e} (run `bench_corpus --regen`?)", path.display()))?;
    if parsed.structural_signature() != entry.netlist.structural_signature() {
        return Err(format!(
            "{}: committed file diverged from the generator table — run `bench_corpus --regen`",
            path.display()
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut out = "BENCH_corpus.json".to_owned();
    let mut reps: u32 = 3;
    let mut dir = PathBuf::from("benchmarks");
    let mut do_regen = false;
    let mut positional = 0;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--regen" => do_regen = true,
            "--corpus" => {
                dir = PathBuf::from(it.next().ok_or("missing value for --corpus")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_corpus [OUT.json] [REPS] [--corpus DIR] [--regen]".to_owned(),
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                match positional {
                    0 => out = other.to_owned(),
                    1 => reps = other.parse().map_err(|e| format!("REPS: {e}"))?,
                    _ => return Err(format!("unexpected argument {other}")),
                }
                positional += 1;
            }
        }
    }

    let entries = corpus();
    if do_regen {
        return regen(&dir, &entries);
    }

    let mut rows = Vec::new();
    for entry in &entries {
        check_committed(&dir, entry)?;
        eprintln!("bench_corpus: {} ({})", entry.name, entry.tier);
        rows.push(measure_row(entry, reps)?);
    }
    let configs = CONFIGS
        .iter()
        .map(|(name, threads)| {
            Value::Obj(vec![
                ("name".to_owned(), Value::str(*name)),
                ("threads".to_owned(), Value::u64(*threads as u64)),
            ])
        })
        .collect();
    let artifact = Value::Obj(vec![
        ("schema".to_owned(), Value::str(SCHEMA)),
        ("schema_version".to_owned(), Value::u64(SCHEMA_VERSION)),
        ("model".to_owned(), Value::str("anytime-exact")),
        ("delays".to_owned(), Value::str("pragma-or-mcnc")),
        ("reps".to_owned(), Value::u64(u64::from(reps))),
        ("configs".to_owned(), Value::Arr(configs)),
        ("rows".to_owned(), Value::Arr(rows)),
    ]);
    std::fs::write(&out, artifact.to_pretty() + "\n").map_err(|e| format!("{out}: {e}"))?;
    eprintln!("bench_corpus: wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_corpus: {e}");
            ExitCode::FAILURE
        }
    }
}
