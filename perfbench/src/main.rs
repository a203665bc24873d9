//! `tbf-perfbench` — the delay pipeline's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|frontier|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload sets up (several times,
//! reporting the median as `setup_s`), warms up, then measures closed-loop
//! passes for `--seconds` (at least one pass). Every answer is checked
//! outside the timed intervals. The last stdout line is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and the metric definitions.

mod check;
mod corpus;
mod expected;
mod frontier;
mod measure;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use tbf_obs::json::Value;

use crate::measure::{median, peak_rss_mb, quantile, secs};
use crate::trace::Trace;

/// Every end-to-end metric: name, unit and which direction is better.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("exact_outputs", "count", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The timed end-to-end metrics are per-pass statistics at this
/// quantile over a run's passes (the best pass when there are at most
/// ten). The benchmark was written on a shared 2-vCPU host whose speed
/// swings by up to 1.7x over a few seconds while steal time stays 0:
/// contention there only ever adds time, so run medians spread 20-30%
/// between identical runs, while the fast passes track the program's own
/// cost.
pub const BEST: f64 = 0.1;

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Wall time of each timed pass.
    pub passes_s: Vec<f64>,
    /// Latency of each request (analysis or serve frame) of the current
    /// pass, ms.
    pass_ms: Vec<f64>,
    /// Per pass: the 50th and 99th percentile request latency (ms) and
    /// the requests per second of wall time.
    pass_p50_ms: Vec<f64>,
    pass_p99_ms: Vec<f64>,
    pass_rate: Vec<f64>,
    pub exact_outputs: f64,
    /// Peak resident memory at the end of the last timed pass, before
    /// the checks that follow the run.
    rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The per-layer accounting (traced runs only).
    pub trace: Trace,
}

impl Run {
    /// Records one timed request of the current pass.
    pub fn request(&mut self, elapsed: Duration) {
        self.pass_ms.push(secs(elapsed) * 1e3);
    }

    /// Records one timed pass, whose requests were recorded since the
    /// previous one.
    pub fn pass_done(&mut self, wall_s: f64) {
        let requests = std::mem::take(&mut self.pass_ms);
        self.passes_s.push(wall_s);
        self.pass_p50_ms.push(quantile(&requests, 0.5));
        self.pass_p99_ms.push(quantile(&requests, 0.99));
        self.pass_rate.push(requests.len() as f64 / wall_s);
        self.rss_mb = peak_rss_mb();
    }

    /// Counts one attempt; `errors` are its failed checks.
    pub fn judge(&mut self, what: &str, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                eprintln!("perfbench: check failed: {what}: {e}");
            }
        }
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = [
            median(&self.setup_s),
            quantile(&self.passes_s, BEST),
            quantile(&self.pass_p50_ms, BEST),
            quantile(&self.pass_p99_ms, BEST),
            quantile(&self.pass_rate, 1.0 - BEST),
            self.exact_outputs,
            self.rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, v, unit))
            .collect()
    }
}

fn number(v: f64) -> Value {
    Value::Num(if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = match args.workload.as_str() {
        "frontier" => frontier::THREADS,
        _ => 1,
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let header = Value::Obj(vec![
        ("workload".to_owned(), Value::str(&args.workload)),
        ("seed".to_owned(), Value::u64(args.seed)),
        ("seconds".to_owned(), number(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("nproc".to_owned(), Value::u64(nproc as u64)),
        ("threads".to_owned(), Value::u64(threads as u64)),
        (
            "profile".to_owned(),
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "obs_feature".to_owned(),
            Value::str("tbf-core/obs on, tbf-serve/obs off"),
        ),
    ]);
    println!("{header}");
    let run = match args.workload.as_str() {
        "corpus" => corpus::run(&args),
        "frontier" => frontier::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (corpus|frontier|serve)"
        )),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        run.trace.metrics()
    } else {
        run.end_to_end()
    };
    let result = Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(run.failed == 0)),
        ("attempted".to_owned(), Value::u64(run.attempted)),
        ("failed".to_owned(), Value::u64(run.failed)),
        (
            "metrics".to_owned(),
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(name, v, unit)| {
                        let m = vec![
                            ("value".to_owned(), number(v)),
                            ("unit".to_owned(), Value::str(unit)),
                        ];
                        (name.to_owned(), Value::Obj(m))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric a `BENCHMARK.json` section lists.
    fn listed(doc: &Value, section: &str) -> Vec<(String, String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
        doc.get(section)
            .and_then(Value::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn table(rows: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        rows.iter()
            .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(trace::PER_LAYER));
    }
}
