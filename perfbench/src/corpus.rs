//! `corpus`: the committed 14-file corpus, loaded and analyzed back to
//! back in closed-loop passes under the default policy on one thread.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use tbf_core::{analyze, AnalysisPolicy, CircuitReport};
use tbf_logic::parsers::mcnc_like_delays;
use tbf_logic::{load_netlist, Netlist};

use crate::check::{self, ReplayCost};
use crate::expected::{Verdict, CORPUS};
use crate::measure::{quantile, secs, Rng};
use crate::trace::Sample;
use crate::{Args, Run, BEST, SETUP_REPS};

struct Circuit {
    name: &'static str,
    path: PathBuf,
    bytes: u64,
    expected: Vec<Verdict>,
}

fn circuits() -> Result<Vec<Circuit>, String> {
    CORPUS
        .iter()
        .map(|&(name, path, outputs)| {
            let path = PathBuf::from("benchmarks").join(path);
            let bytes = std::fs::metadata(&path)
                .map_err(|e| format!("{}: {e} (run from the repository root)", path.display()))?
                .len();
            Ok(Circuit {
                name,
                path,
                bytes,
                expected: outputs.iter().map(|&(o, d)| (o, d, d)).collect(),
            })
        })
        .collect()
}

fn load(c: &Circuit) -> Result<Netlist, String> {
    load_netlist(&c.path, mcnc_like_delays).map_err(|e| format!("{}: {e}", c.path.display()))
}

/// The engine-independent checks on a pass's reports, run on the first
/// pass and on any later report that differs from it.
fn check_all(
    c: &Circuit,
    net: &Netlist,
    report: &CircuitReport,
    cost: &mut ReplayCost,
) -> Vec<String> {
    let mut errors = check::pinned(report, &c.expected);
    errors.extend(check::independent(net, report, cost));
    errors
}

pub fn run(args: &Args) -> Result<Run, String> {
    let policy = AnalysisPolicy::default();
    let mut run = Run::default();
    let mut corpus = Vec::new();
    // Set-up: find and load every file, then one warm-up pass.
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        corpus = circuits()?;
        for c in &corpus {
            black_box(analyze(&load(c)?, &policy));
        }
        run.setup_s.push(secs(started.elapsed()));
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    let mut first: Vec<Option<CircuitReport>> = corpus.iter().map(|_| None).collect();
    let mut traced = Vec::new();
    let mut measured = 0.0;
    let mut pass_no = 0usize;
    // A traced run alternates untraced and traced passes, so that
    // `obs.overhead` compares passes under the same conditions.
    while measured < args.seconds || (args.trace && traced.is_empty()) {
        let observe = args.trace && pass_no % 2 == 1;
        pass_no += 1;
        rng.shuffle(&mut order);
        let mut sample = Sample::default();
        let mut results = Vec::with_capacity(order.len());
        let pass_started = Instant::now();
        for &i in &order {
            let c = &corpus[i];
            let started = Instant::now();
            let net = if observe {
                sample.add("_parse_bytes", c.bytes as f64);
                sample.span("logic.parse_s", || load(c))
            } else {
                load(c)
            };
            let Ok(net) = net else {
                results.push((i, None, None, started.elapsed()));
                continue;
            };
            let (report, obs) = if observe {
                let (r, o) = sample.span("_core_s", || {
                    tbf_core::obs::observe(|| analyze(&net, &policy))
                });
                (r, Some(o))
            } else {
                (analyze(&net, &policy), None)
            };
            results.push((i, Some((net, report)), obs, started.elapsed()));
        }
        let wall = secs(pass_started.elapsed());
        measured += wall;

        // Everything below is outside the timed interval.
        let mut cost = ReplayCost::default();
        let mut exact = 0usize;
        for (i, result, obs, elapsed) in results {
            let c = &corpus[i];
            let Some((net, report)) = result else {
                run.judge(c.name, &[format!("{} does not load", c.path.display())]);
                continue;
            };
            exact += report.outputs.iter().filter(|o| o.is_exact()).count();
            let mut errors = check::pinned(&report, &c.expected);
            if observe || first[i].as_ref() != Some(&report) {
                errors = check_all(c, &net, &report, &mut cost);
            }
            run.judge(c.name, &errors);
            if let Some(obs) = obs {
                sample.observation(&obs);
                sample.stats(&report.stats);
                sample.logic_probe(&net);
            } else {
                run.request(elapsed);
            }
            first[i].get_or_insert(report);
        }
        run.exact_outputs = exact as f64;
        if observe {
            sample.add("sim.replay_s", cost.seconds);
            sample.add("sim.replays", cost.replays as f64);
            run.trace.push(sample, wall);
            traced.push(wall);
        } else {
            run.pass_done(wall);
        }
    }
    if args.trace {
        run.trace.run.set(
            "obs.overhead",
            quantile(&traced, BEST) / quantile(&run.passes_s, BEST),
        );
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first corpus circuit, loaded from the committed file, with
    /// its pinned verdicts.
    fn c17() -> (Netlist, Vec<Verdict>) {
        let (name, path, outputs) = CORPUS[0];
        assert_eq!(name, "c17");
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../benchmarks")
            .join(path);
        let net = load_netlist(&path, mcnc_like_delays).expect("c17 loads");
        (net, outputs.iter().map(|&(o, d)| (o, d, d)).collect())
    }

    #[test]
    fn the_pinned_corpus_answer_passes() {
        let (net, expected) = c17();
        let report = analyze(&net, &AnalysisPolicy::default());
        let c = Circuit {
            name: "c17",
            path: PathBuf::new(),
            bytes: 0,
            expected,
        };
        assert_eq!(
            check_all(&c, &net, &report, &mut ReplayCost::default()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_perturbed_pinned_delay_fails_the_run() {
        let (net, mut expected) = c17();
        let report = analyze(&net, &AnalysisPolicy::default());
        expected[1].1 += 1;
        expected[1].2 += 1;
        let c = Circuit {
            name: "c17",
            path: PathBuf::new(),
            bytes: 0,
            expected,
        };
        let mut run = Run::default();
        run.judge(
            c.name,
            &check_all(&c, &net, &report, &mut ReplayCost::default()),
        );
        assert_eq!((run.attempted, run.failed), (1, 1));
    }
}
