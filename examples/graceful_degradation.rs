//! Graceful degradation: the anytime driver under tight budgets.
//!
//! ```sh
//! cargo run --example graceful_degradation
//! ```
//!
//! Runs the paper's §11 bypass adder through [`tbf_core::analyze`] three
//! times — unconstrained, under a starvation-level path cap, and under a
//! zero wall-clock budget — showing how the degradation ladder (exact →
//! escalated retry → sequences upper bound → topological bound) keeps
//! returning sound `[lower, upper]` delay bounds instead of failing.

use std::time::Duration;

use tbf_suite::core::{analyze, AnalysisPolicy, DelayOptions, OutputStatus};
use tbf_suite::logic::generators::adders::paper_bypass_adder;

fn show(title: &str, policy: &AnalysisPolicy) {
    let adder = paper_bypass_adder();
    let report = analyze(&adder, policy);
    println!("== {title} ==");
    match report.exact {
        Some(d) => println!("exact delay {d} (topological {})", report.topological),
        None => println!(
            "delay within [{}, {}] (topological {})",
            report.lower, report.upper, report.topological
        ),
    }
    for o in &report.outputs {
        match o.status {
            OutputStatus::Exact => println!("  {:<8} {} (exact)", o.name, o.delay),
            OutputStatus::Bounded {
                lower,
                upper,
                cause,
            } => {
                println!("  {:<8} within [{lower}, {upper}] — {cause}", o.name)
            }
            OutputStatus::Fallback { cause } => {
                println!(
                    "  {:<8} ≤ {} (topological bound) — {cause}",
                    o.name, o.delay
                )
            }
        }
    }
    println!(
        "  ladder: {} retries, {} sequences fallbacks, {} topological fallbacks\n",
        report.stats.retries, report.stats.sequences_fallbacks, report.stats.topological_fallbacks
    );
}

fn main() {
    // 1. Room to breathe: every cone resolves exactly (the adder's
    //    exact delay is 24 vs a topological bound of 40 — a false path).
    show("default budget", &AnalysisPolicy::default());

    // 2. A starvation-level path cap: the exact engine trips the cap,
    //    one 4× escalation retry runs, and whatever still fails lands on
    //    the sequences/topological rungs — with sound bounds throughout.
    show(
        "max_straddling_paths = 1 (escalation + fallback rungs)",
        &AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 1,
            ..DelayOptions::default()
        }),
    );

    // 3. A zero wall-clock budget: the deadline fires at the first
    //    allocation-granularity poll; every cone degrades to a bound and
    //    the driver still returns normally.
    show(
        "time_budget = 0 (deadline degradation)",
        &AnalysisPolicy::with_options(DelayOptions {
            time_budget: Some(Duration::ZERO),
            ..DelayOptions::default()
        }),
    );
}
