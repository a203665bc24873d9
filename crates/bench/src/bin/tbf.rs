//! `tbf` — command-line exact delay analysis for `.bench` / BLIF /
//! AIGER / structural-Verilog netlists.
//!
//! ```text
//! Usage: tbf [OPTIONS] <NETLIST>
//!        tbf serve [SERVE OPTIONS]
//!
//!   <NETLIST>              path to an ISCAS-85 .bench, BLIF, AIGER
//!                          (ASCII or binary) or structural-Verilog file
//!
//! Options:
//!   --model <M>            two-vector | sequences | floating | anytime | all
//!                                                                   [default: all]
//!   --format <F>           bench | blif | aiger | verilog: input format.
//!                          Defaults to the file extension, falling back to
//!                          content sniffing (see FORMATS.md)
//!   --delays <D>           unit | mcnc                              [default: mcnc]
//!   --dmin-ratio <F>       overwrite every dmin with F·dmax (0 ≤ F ≤ 1)
//!   --max-paths <N>        delay-dependent path cap
//!   --max-bdd <N>          BDD node cap
//!   --time-budget <MS>     wall-clock budget in milliseconds; exceeding it
//!                          degrades results to sound bounds (anytime mode)
//!   --threads <N>          worker threads for anytime cone analysis;
//!                          0 = one per core                         [default: 1]
//!   --replay               simulate the 2-vector witness and report the
//!                          observed last transition
//!   --per-output           print the per-output breakdown
//!   --emit-metrics <PATH>  write the machine-readable run artifact (JSON)
//!                          to PATH; `-` streams it to stdout and implies
//!                          --quiet plus suppression of the human report
//!   --quiet                suppress stderr diagnostics
//! ```
//!
//! The `anytime` model runs the graceful-degradation driver
//! ([`tbf_core::analyze`]): it never fails — outputs that blow a cap,
//! the deadline, or even panic the engine are reported with sound
//! `[lower, upper]` bounds and the cause of the degradation.
//!
//! The run artifact is a [`tbf_obs::RunArtifact`]: a schema-versioned
//! JSON document whose every section except the trailing `timing` one is
//! byte-identical across `--threads` settings (see `DESIGN.md` §13).
//!
//! `tbf serve` starts the long-running analysis service (`tbf-serve`):
//! a line-delimited JSON request loop on stdin/stdout (or a `--listen`
//! unix socket) with warm caches, admission control, per-request fault
//! isolation, and graceful shutdown. See `DESIGN.md` §15 and the README
//! quickstart; `tbf serve --help` lists the knobs.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use tbf_core::{
    analyze, floating_delay, sequences_delay, topological_delay, two_vector_delay, AnalysisPolicy,
    CircuitReport, DelayOptions, DelayReport, OutputStatus,
};
use tbf_logic::parsers::{mcnc_like_delays, unit_delays};
use tbf_logic::{DelayBounds, Format, Netlist};
use tbf_obs::json::Value;
use tbf_obs::{diag, Phase, RunArtifact};
use tbf_sim::{simulate, Stimulus};

/// Whether the human-readable report goes to stdout. Cleared when
/// `--emit-metrics -` claims stdout for the JSON artifact.
static HUMAN: AtomicBool = AtomicBool::new(true);

/// `println!` for the human report, suppressed when stdout carries the
/// machine-readable artifact (`--emit-metrics -`).
macro_rules! say {
    ($($t:tt)*) => {
        if HUMAN.load(Ordering::Relaxed) {
            println!($($t)*);
        }
    };
}

struct Args {
    netlist: String,
    format: Option<Format>,
    model: String,
    delays: String,
    dmin_ratio: Option<f64>,
    max_paths: Option<usize>,
    max_bdd: Option<usize>,
    time_budget_ms: Option<u64>,
    threads: usize,
    replay: bool,
    per_output: bool,
    emit_metrics: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        netlist: String::new(),
        format: None,
        model: "all".into(),
        delays: "mcnc".into(),
        dmin_ratio: None,
        max_paths: None,
        max_bdd: None,
        time_budget_ms: None,
        threads: 1,
        replay: false,
        per_output: false,
        emit_metrics: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "--model" => {
                let v = value("--model")?;
                if !["two-vector", "sequences", "floating", "anytime", "all"].contains(&v.as_str())
                {
                    return Err(format!(
                        "--model must be two-vector, sequences, floating, anytime or all, got `{v}`"
                    ));
                }
                args.model = v;
            }
            "--format" => {
                let v = value("--format")?;
                args.format = Some(Format::from_name(&v).ok_or_else(|| {
                    format!("--format must be bench, blif, aiger or verilog, got `{v}`")
                })?);
            }
            "--delays" => args.delays = value("--delays")?,
            "--dmin-ratio" => {
                let f: f64 = value("--dmin-ratio")?
                    .parse()
                    .map_err(|e| format!("--dmin-ratio: {e}"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("--dmin-ratio must be within [0, 1], got {f}"));
                }
                args.dmin_ratio = Some(f);
            }
            "--max-paths" => {
                args.max_paths = Some(
                    value("--max-paths")?
                        .parse()
                        .map_err(|e| format!("--max-paths: {e}"))?,
                )
            }
            "--max-bdd" => {
                args.max_bdd = Some(
                    value("--max-bdd")?
                        .parse()
                        .map_err(|e| format!("--max-bdd: {e}"))?,
                )
            }
            "--time-budget" => {
                args.time_budget_ms = Some(
                    value("--time-budget")?
                        .parse()
                        .map_err(|e| format!("--time-budget: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--replay" => args.replay = true,
            "--per-output" => args.per_output = true,
            "--emit-metrics" => args.emit_metrics = Some(value("--emit-metrics")?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown flag {other}"))
            }
            other => {
                if args.netlist.is_empty() {
                    args.netlist = other.to_owned();
                } else {
                    return Err(format!("unexpected argument {other}"));
                }
            }
        }
    }
    if args.netlist.is_empty() {
        return Err("missing netlist path".into());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: tbf [--format bench|blif|aiger|verilog] \
         [--model two-vector|sequences|floating|anytime|all] \
         [--delays unit|mcnc] [--dmin-ratio F] [--max-paths N] [--max-bdd N] \
         [--time-budget MS] [--threads N] \
         [--replay] [--per-output] [--emit-metrics PATH|-] [--quiet] \
         <netlist.bench|.blif|.aag|.aig|.v>"
    );
}

fn load(args: &Args) -> Result<Netlist, String> {
    let delay_fn = match args.delays.as_str() {
        "unit" => unit_delays as fn(_, _) -> _,
        "mcnc" => mcnc_like_delays as fn(_, _) -> _,
        other => return Err(format!("unknown delay model `{other}`")),
    };
    let netlist = match args.format {
        Some(format) => {
            let bytes =
                std::fs::read(&args.netlist).map_err(|e| format!("{}: {e}", args.netlist))?;
            tbf_logic::parse_netlist(format, &bytes, delay_fn)
                .map_err(|e| format!("{}: {e}", args.netlist))?
        }
        None => tbf_logic::load_netlist(&args.netlist, delay_fn).map_err(|e| match &e {
            // `Io` already carries the offending path in its message.
            tbf_logic::NetlistError::Io { .. } => e.to_string(),
            _ => format!("{}: {e}", args.netlist),
        })?,
    };
    Ok(match args.dmin_ratio {
        Some(f) => netlist.map_delays(|d| DelayBounds::scaled_min(d.max, f)),
        None => netlist,
    })
}

fn print_report(label: &str, report: &DelayReport, per_output: bool) {
    say!(
        "{label:<12} {:>10}   ({} breakpoints, {} resolvents, {} LPs, peak {} BDD nodes)",
        report.delay.to_string(),
        report.stats.breakpoints_visited,
        report.stats.resolvents,
        report.stats.lps_solved,
        report.stats.peak_bdd_nodes
    );
    if per_output {
        for o in &report.outputs {
            print_output_line(o);
        }
    }
}

fn print_output_line(o: &tbf_core::OutputDelay) {
    let note = match o.status {
        OutputStatus::Exact => String::new(),
        OutputStatus::Bounded {
            lower,
            upper,
            cause,
        } => {
            format!(" (within [{lower}, {upper}]: {cause})")
        }
        OutputStatus::Fallback { cause } => format!(" (topological bound: {cause})"),
    };
    say!(
        "    {:<24} {:>10}{}  (topological {})",
        o.name,
        o.delay.to_string(),
        note,
        o.topological
    );
}

/// The deterministic `results` entry of one per-output line.
fn output_value(o: &tbf_core::OutputDelay) -> Value {
    let status = match o.status {
        OutputStatus::Exact => Value::str("exact"),
        OutputStatus::Bounded {
            lower,
            upper,
            cause,
        } => Value::Obj(vec![
            ("kind".to_owned(), Value::str("bounded")),
            ("lower".to_owned(), Value::str(lower.to_string())),
            ("upper".to_owned(), Value::str(upper.to_string())),
            ("cause".to_owned(), Value::str(cause.to_string())),
        ]),
        OutputStatus::Fallback { cause } => Value::Obj(vec![
            ("kind".to_owned(), Value::str("fallback")),
            ("cause".to_owned(), Value::str(cause.to_string())),
        ]),
    };
    Value::Obj(vec![
        ("name".to_owned(), Value::str(&o.name)),
        ("delay".to_owned(), Value::str(o.delay.to_string())),
        (
            "topological".to_owned(),
            Value::str(o.topological.to_string()),
        ),
        ("status".to_owned(), status),
    ])
}

/// The deterministic `results` entry of one engine report.
fn report_value(r: &DelayReport) -> Value {
    Value::Obj(vec![
        ("delay".to_owned(), Value::str(r.delay.to_string())),
        (
            "topological".to_owned(),
            Value::str(r.topological.to_string()),
        ),
        (
            "breakpoints_visited".to_owned(),
            Value::u64(r.stats.breakpoints_visited as u64),
        ),
        (
            "resolvents".to_owned(),
            Value::u64(r.stats.resolvents as u64),
        ),
        (
            "lps_solved".to_owned(),
            Value::u64(r.stats.lps_solved as u64),
        ),
        (
            "peak_bdd_nodes".to_owned(),
            Value::u64(r.stats.peak_bdd_nodes as u64),
        ),
        (
            "outputs".to_owned(),
            Value::Arr(r.outputs.iter().map(output_value).collect()),
        ),
    ])
}

/// The deterministic `results` entry of an anytime [`CircuitReport`].
fn circuit_report_value(r: &CircuitReport) -> Value {
    Value::Obj(vec![
        ("lower".to_owned(), Value::str(r.lower.to_string())),
        ("upper".to_owned(), Value::str(r.upper.to_string())),
        (
            "exact".to_owned(),
            match r.exact {
                Some(d) => Value::str(d.to_string()),
                None => Value::Null,
            },
        ),
        (
            "topological".to_owned(),
            Value::str(r.topological.to_string()),
        ),
        ("retries".to_owned(), Value::u64(r.stats.retries as u64)),
        (
            "sequences_fallbacks".to_owned(),
            Value::u64(r.stats.sequences_fallbacks as u64),
        ),
        (
            "topological_fallbacks".to_owned(),
            Value::u64(r.stats.topological_fallbacks as u64),
        ),
        (
            "panics_caught".to_owned(),
            Value::u64(r.stats.panics_caught as u64),
        ),
        (
            "outputs".to_owned(),
            Value::Arr(r.outputs.iter().map(output_value).collect()),
        ),
    ])
}

/// The artifact's `circuit` section.
fn circuit_value(path: &str, netlist: &Netlist) -> Value {
    Value::Obj(vec![
        ("path".to_owned(), Value::str(path)),
        ("gates".to_owned(), Value::u64(netlist.gate_count() as u64)),
        (
            "inputs".to_owned(),
            Value::u64(netlist.inputs().len() as u64),
        ),
        (
            "outputs".to_owned(),
            Value::u64(netlist.outputs().len() as u64),
        ),
    ])
}

/// The artifact's `policy` section (the resolved invocation knobs).
fn policy_value(args: &Args, options: &DelayOptions) -> Value {
    Value::Obj(vec![
        ("model".to_owned(), Value::str(&args.model)),
        ("delays".to_owned(), Value::str(&args.delays)),
        ("threads".to_owned(), Value::u64(args.threads as u64)),
        (
            "max_straddling_paths".to_owned(),
            Value::u64(options.max_straddling_paths as u64),
        ),
        (
            "max_bdd_nodes".to_owned(),
            Value::u64(options.max_bdd_nodes as u64),
        ),
        (
            "time_budget_ms".to_owned(),
            match args.time_budget_ms {
                Some(ms) => Value::u64(ms),
                None => Value::Null,
            },
        ),
    ])
}

/// Runs the requested delay models, printing the human report (unless
/// stdout carries the artifact) and collecting the deterministic
/// `results` section. Returns the failure count alongside it.
fn run_models(args: &Args, netlist: &Netlist, options: &DelayOptions) -> (u32, Value) {
    let mut results: Vec<(String, Value)> = vec![(
        "topological".to_owned(),
        Value::str(topological_delay(netlist).to_string()),
    )];
    let want = |m: &str| args.model == m || args.model == "all";
    let mut failures = 0;
    if want("two-vector") {
        let _phase = Phase::enter("two_vector");
        match two_vector_delay(netlist, options) {
            Ok(r) => {
                print_report("two-vector", &r, args.per_output);
                if args.replay {
                    match &r.witness {
                        Some(w) => {
                            let stim = Stimulus::vector_pair(&w.before, &w.after);
                            let sim = simulate(netlist, &w.delays, &stim.waveforms(netlist));
                            let out = netlist
                                .outputs()
                                .iter()
                                .find(|(name, _)| *name == w.output)
                                .expect("witness names an output")
                                .1;
                            say!(
                                "    witness replay on `{}`: last transition at {}",
                                w.output,
                                sim.waveform(out)
                                    .last_transition()
                                    .map(|t| t.to_string())
                                    .unwrap_or_else(|| "never".into())
                            );
                        }
                        None => say!("    no witness (delay 0)"),
                    }
                }
                results.push(("two_vector".to_owned(), report_value(&r)));
            }
            Err(e) => {
                diag!("two-vector: {e}");
                results.push((
                    "two_vector".to_owned(),
                    Value::Obj(vec![("error".to_owned(), Value::str(e.to_string()))]),
                ));
                failures += 1;
            }
        }
    }
    if want("sequences") {
        let _phase = Phase::enter("sequences");
        match sequences_delay(netlist, options) {
            Ok(r) => {
                print_report("sequences", &r, args.per_output);
                results.push(("sequences".to_owned(), report_value(&r)));
            }
            Err(e) => {
                diag!("sequences: {e}");
                results.push((
                    "sequences".to_owned(),
                    Value::Obj(vec![("error".to_owned(), Value::str(e.to_string()))]),
                ));
                failures += 1;
            }
        }
    }
    if want("floating") {
        let _phase = Phase::enter("floating");
        match floating_delay(netlist, options) {
            Ok(r) => {
                print_report("floating", &r, args.per_output);
                results.push(("floating".to_owned(), report_value(&r)));
            }
            Err(e) => {
                diag!("floating: {e}");
                results.push((
                    "floating".to_owned(),
                    Value::Obj(vec![("error".to_owned(), Value::str(e.to_string()))]),
                ));
                failures += 1;
            }
        }
    }
    if args.model == "anytime" {
        let _phase = Phase::enter("anytime");
        let policy = AnalysisPolicy::with_options(options.clone()).with_threads(args.threads);
        let r = analyze(netlist, &policy);
        match r.exact {
            Some(d) => say!("{:<12} {:>10}   (exact)", "anytime", d.to_string()),
            None => say!(
                "{:<12} [{}, {}]   (bounds; {} retries, {} fallbacks)",
                "anytime",
                r.lower,
                r.upper,
                r.stats.retries,
                r.stats.sequences_fallbacks + r.stats.topological_fallbacks
            ),
        }
        if args.per_output {
            for o in &r.outputs {
                print_output_line(o);
            }
        }
        results.push(("anytime".to_owned(), circuit_report_value(&r)));
    }
    (failures, Value::Obj(results))
}

fn serve_usage() {
    eprintln!(
        "usage: tbf serve [--threads N] [--listen SOCKET_PATH] [--max-gates N] \
         [--max-frame-bytes N] [--session-time-budget MS] [--max-requests N] \
         [--max-attempts N] [--cache-capacity N] [--max-sessions N] [--drain MS] \
         [--max-paths N] [--max-bdd N] [--emit-metrics PATH] [--quiet]\n\
         \n\
         Reads one JSON request per line on stdin (or SOCKET_PATH) and writes one\n\
         schema-versioned JSON response per line; EOF or SIGTERM drains and exits 0."
    );
}

/// Parses `tbf serve` flags into the session and runner configs.
fn parse_serve_args(
    mut it: impl Iterator<Item = String>,
) -> Result<(tbf_serve::ServeConfig, tbf_serve::RunnerConfig), String> {
    let mut config = tbf_serve::ServeConfig::default();
    let mut runner = tbf_serve::RunnerConfig::default();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        let parsed = |flag: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match a.as_str() {
            "--threads" => config.threads = parsed("--threads", value("--threads")?)? as usize,
            "--listen" => runner.listen = Some(value("--listen")?),
            "--max-gates" => {
                config.max_gates = parsed("--max-gates", value("--max-gates")?)? as usize;
            }
            "--max-frame-bytes" => {
                config.max_frame_bytes =
                    parsed("--max-frame-bytes", value("--max-frame-bytes")?)? as usize;
            }
            "--session-time-budget" => {
                config.session_time_budget = Some(std::time::Duration::from_millis(parsed(
                    "--session-time-budget",
                    value("--session-time-budget")?,
                )?));
            }
            "--max-requests" => {
                config.max_requests = parsed("--max-requests", value("--max-requests")?)?;
            }
            "--max-attempts" => {
                config.max_attempts =
                    parsed("--max-attempts", value("--max-attempts")?)?.max(1) as u32;
            }
            "--cache-capacity" => {
                config.cache_capacity =
                    parsed("--cache-capacity", value("--cache-capacity")?)? as usize;
            }
            "--max-sessions" => {
                config.max_sessions = parsed("--max-sessions", value("--max-sessions")?)? as usize;
            }
            "--drain" => {
                config.drain =
                    std::time::Duration::from_millis(parsed("--drain", value("--drain")?)?);
            }
            "--max-paths" => {
                config.defaults.max_straddling_paths =
                    parsed("--max-paths", value("--max-paths")?)? as usize;
            }
            "--max-bdd" => {
                config.defaults.max_bdd_nodes = parsed("--max-bdd", value("--max-bdd")?)? as usize;
            }
            "--emit-metrics" => runner.emit_metrics = Some(value("--emit-metrics")?),
            "--quiet" => runner.quiet = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown serve argument {other}")),
        }
    }
    Ok((config, runner))
}

/// The `tbf serve` subcommand: run the request loop until EOF/SIGTERM.
fn run_serve() -> ExitCode {
    let (config, runner) = match parse_serve_args(std::env::args().skip(2)) {
        Ok(parsed) => parsed,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            serve_usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match runner.listen.clone() {
        Some(path) => tbf_serve::serve_unix_socket(config, &runner, &path),
        None => tbf_serve::serve_stdio(config, &runner),
    };
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(code) => ExitCode::from(code.clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return run_serve();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };
    let streaming = args.emit_metrics.as_deref() == Some("-");
    tbf_obs::diag::set_quiet(args.quiet || streaming);
    HUMAN.store(!streaming, Ordering::Relaxed);
    let netlist = match load(&args) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut options = DelayOptions::default();
    if let Some(p) = args.max_paths {
        options.max_straddling_paths = p;
    }
    if let Some(b) = args.max_bdd {
        options.max_bdd_nodes = b;
    }
    if let Some(ms) = args.time_budget_ms {
        options.time_budget = Some(std::time::Duration::from_millis(ms));
    }

    say!(
        "{}: {} gates, {} inputs, {} outputs",
        args.netlist,
        netlist.gate_count(),
        netlist.inputs().len(),
        netlist.outputs().len()
    );
    say!(
        "{:<12} {:>10}",
        "topological",
        topological_delay(&netlist).to_string()
    );

    // Under `--emit-metrics` the whole analysis runs inside `observe`, so
    // BDD counters and the phase tree land in the artifact.
    let started = std::time::Instant::now();
    let ((failures, results), observation) = match &args.emit_metrics {
        Some(target) => {
            let (out, o) = tbf_core::obs::observe(|| run_models(&args, &netlist, &options));
            (out, Some((target, o)))
        }
        None => (run_models(&args, &netlist, &options), None),
    };

    if let Some((target, o)) = observation {
        let mut artifact = RunArtifact::new();
        artifact.section("circuit", circuit_value(&args.netlist, &netlist));
        artifact.section("policy", policy_value(&args, &options));
        artifact.section("results", results);
        artifact.section("counters", tbf_obs::artifact::counters_section(&o.counters));
        artifact.section("phases", tbf_obs::phase::to_value(&o.phases));
        artifact.section(
            "timing",
            Value::Obj(vec![
                (
                    "total_us".to_owned(),
                    Value::u64(started.elapsed().as_micros() as u64),
                ),
                ("phases".to_owned(), tbf_obs::phase::timing_rows(&o.phases)),
            ]),
        );
        let text = artifact.render();
        if target == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(target, text + "\n") {
            eprintln!("error: {target}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
