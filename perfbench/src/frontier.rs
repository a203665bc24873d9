//! `frontier`: four §12 rows that hit the engine's caps or run for
//! seconds, generated in memory and analyzed on one thread under a
//! 50k-node cap (a count, so every verdict repeats exactly).

use std::hint::black_box;
use std::time::Instant;

use tbf_core::{analyze, AnalysisPolicy, CircuitReport, DelayOptions};
use tbf_logic::generators::benchmark_suite;
use tbf_logic::{Netlist, TIME_SCALE};

use crate::check::{self, ReplayCost};
use crate::expected::FRONTIER;
use crate::measure::{secs, Rng};
use crate::trace::Sample;
use crate::{Args, Run, SETUP_REPS};

/// Worker threads for cone analysis on this workload. At 2 threads on
/// a 2-vCPU host a pass was no faster at this cap and its time spread
/// about twice as much between runs, since it waits on both vCPUs.
pub const THREADS: usize = 1;

/// The BDD node cap. At the default 4M `mult4` alone runs for minutes;
/// at 1M a pass takes about 30 s and holds 0.9 GB on a 2-vCPU host. At
/// 50k a pass takes about 3.5 s, so a run holds several passes, and
/// `muxtree5`, `mult4` and `rand100` still reach the escalated retry rung.
const MAX_BDD_NODES: usize = 50_000;

/// The suite row analyzed once per set-up to warm the engine.
const WARM_UP_ROW: &str = "bypass4x4";

fn policy() -> AnalysisPolicy {
    AnalysisPolicy::with_options(DelayOptions {
        max_bdd_nodes: MAX_BDD_NODES,
        ..DelayOptions::default()
    })
    .with_threads(THREADS)
}

/// The per-row wall-time metric of a row.
fn wall_key(row: &str) -> &'static str {
    match row {
        "bypass4x8" => "wall_s.bypass4x8",
        "muxtree5" => "wall_s.muxtree5",
        "mult4" => "wall_s.mult4",
        "rand100" => "wall_s.rand100",
        other => unreachable!("no wall-time metric for row `{other}`"),
    }
}

/// The width of the circuit-level delay bounds, in time units.
fn bound_width(report: &CircuitReport) -> f64 {
    (report.upper - report.lower).scaled() as f64 / TIME_SCALE as f64
}

pub fn run(args: &Args) -> Result<Run, String> {
    let policy = policy();
    let mut run = Run::default();
    let mut rows: Vec<(String, Netlist)> = Vec::new();
    // Set-up: generate the suite, keep the frontier rows, warm up on a
    // smaller row of the same family.
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let suite = benchmark_suite();
        let warm = suite
            .iter()
            .find(|(name, _)| name == WARM_UP_ROW)
            .ok_or("the suite has no warm-up row")?;
        black_box(analyze(&warm.1, &policy));
        rows = FRONTIER
            .iter()
            .map(|(row, _)| suite.iter().find(|(name, _)| name == row).cloned())
            .collect::<Option<_>>()
            .ok_or("the suite lacks a frontier row")?;
        run.setup_s.push(secs(started.elapsed()));
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut first: Vec<Option<CircuitReport>> = rows.iter().map(|_| None).collect();
    let mut measured = 0.0;
    while measured < args.seconds {
        rng.shuffle(&mut order);
        let mut sample = Sample::default();
        let mut results = Vec::with_capacity(order.len());
        let pass_started = Instant::now();
        for &i in &order {
            let net = &rows[i].1;
            let started = Instant::now();
            let (report, obs) = if args.trace {
                let (r, o) = sample.span("_core_s", || {
                    tbf_core::obs::observe(|| analyze(net, &policy))
                });
                (r, Some(o))
            } else {
                (analyze(net, &policy), None)
            };
            results.push((i, report, obs, started.elapsed()));
        }
        let wall = secs(pass_started.elapsed());
        measured += wall;

        // Everything below is outside the timed interval.
        let mut cost = ReplayCost::default();
        let mut exact = 0usize;
        for (i, report, obs, elapsed) in results {
            let (name, net) = &rows[i];
            exact += report.outputs.iter().filter(|o| o.is_exact()).count();
            let mut errors = check::pinned(&report, FRONTIER[i].1);
            // The independent checks run on the first pass and on any
            // later report that differs from it.
            if args.trace || first[i].as_ref() != Some(&report) {
                errors.extend(check::independent(net, &report, &mut cost));
            }
            run.judge(name, &errors);
            run.request(elapsed);
            if let Some(obs) = obs {
                sample.observation(&obs);
                sample.stats(&report.stats);
                sample.logic_probe(net);
                sample.set(wall_key(name), secs(elapsed));
                sample.add("core.bound_width", bound_width(&report));
            }
            first[i].get_or_insert(report);
        }
        run.exact_outputs = exact as f64;
        run.pass_done(wall);
        if args.trace {
            sample.add("sim.replay_s", cost.seconds);
            sample.add("sim.replays", cost.replays as f64);
            run.trace.push(sample, wall);
        }
    }
    Ok(run)
}
