//! Workspace-level acceptance tests for the anytime analysis driver:
//! `analyze` must never fail on a well-formed netlist, and every
//! degraded result must carry sound bounds containing the exact delay
//! of the paper's worked examples.

use std::time::Duration;

use tbf_suite::core::{analyze, AnalysisPolicy, DelayOptions, DelayReport, OutputStatus};
use tbf_suite::logic::generators::adders::paper_bypass_adder;
use tbf_suite::logic::generators::figures::{figure1_three_paths, figure4_example3};
use tbf_suite::logic::{Netlist, Time};

fn t(x: i64) -> Time {
    Time::from_int(x)
}

/// The paper's ground truths: (circuit, exact 2-vector delay).
fn paper_examples() -> Vec<(Netlist, Time)> {
    vec![
        (figure1_three_paths(), t(5)),
        (figure4_example3(), t(4)),
        (paper_bypass_adder(), t(24)),
    ]
}

#[test]
fn unconstrained_analysis_is_exact_on_paper_examples() {
    for (n, exact) in paper_examples() {
        let r = analyze(&n, &AnalysisPolicy::default());
        assert_eq!(r.exact, Some(exact));
        assert!(r.all_exact());
        assert_eq!(r.lower, exact);
        assert_eq!(r.upper, exact);
    }
}

#[test]
fn starved_analysis_always_returns_containing_bounds() {
    // A grid of hostile budgets; whatever rung each cone lands on, the
    // driver must return normally with lower ≤ exact ≤ upper.
    let policies = [
        AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 1,
            ..DelayOptions::default()
        }),
        AnalysisPolicy::with_options(DelayOptions {
            max_bdd_nodes: 8,
            ..DelayOptions::default()
        }),
        AnalysisPolicy::with_options(DelayOptions {
            max_cubes: 1,
            ..DelayOptions::default()
        }),
        AnalysisPolicy::with_options(DelayOptions {
            time_budget: Some(Duration::ZERO),
            ..DelayOptions::default()
        }),
        // Every cap at once.
        AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 1,
            max_bdd_nodes: 8,
            max_cubes: 1,
            ..DelayOptions::default()
        }),
    ];
    for (n, exact) in paper_examples() {
        for (i, policy) in policies.iter().enumerate() {
            let r = analyze(&n, policy);
            assert!(
                r.lower <= exact && exact <= r.upper,
                "policy #{i}: [{}, {}] excludes exact {exact}\n{r}",
                r.lower,
                r.upper
            );
            assert!(r.upper <= n.topological_delay());
        }
    }
}

#[test]
fn driver_agrees_with_the_direct_engines_when_unconstrained() {
    use tbf_suite::core::{sequences_delay, two_vector_delay};
    for (n, _) in paper_examples() {
        let direct: DelayReport = two_vector_delay(&n, &DelayOptions::default()).unwrap();
        let r = analyze(&n, &AnalysisPolicy::default());
        assert_eq!(r.exact, Some(direct.delay));
        // Per-output agreement, not just the circuit max.
        for o in &direct.outputs {
            let driven = r.outputs.iter().find(|d| d.name == o.name).unwrap();
            assert_eq!(driven.delay, o.delay, "{}", o.name);
            assert!(matches!(driven.status, OutputStatus::Exact));
        }
        // And the anytime upper bound can never beat the sequences
        // engine's own exact answer.
        let seq = sequences_delay(&n, &DelayOptions::default()).unwrap();
        assert!(r.upper <= seq.delay.max(direct.delay));
    }
}

#[test]
fn witness_survives_the_driver_path() {
    let r = analyze(&paper_bypass_adder(), &AnalysisPolicy::default());
    let w = r.witness.expect("exact nonzero delay must carry a witness");
    assert_eq!(w.before.len(), paper_bypass_adder().inputs().len());
    assert_eq!(w.after.len(), w.before.len());
}

/// Forced-fault acceptance: under every injected failure the driver
/// still returns, with bounds containing the fault-free exact delay.
mod forced_faults {
    use super::*;
    use tbf_suite::core::fault::{with_plan, FaultPlan, Site};

    #[test]
    fn analyze_never_fails_under_forced_faults() {
        let sites = [
            Site::PathCollect,
            Site::BddOp,
            Site::CubeEnum,
            Site::Breakpoint,
            Site::ConeStart,
            Site::LpInterior,
            Site::XorSat,
        ];
        for (n, exact) in paper_examples() {
            for site in sites {
                let plan = (0..16).fold(FaultPlan::new(), |p, _| p.once(site));
                let r = with_plan(plan, || analyze(&n, &AnalysisPolicy::default()));
                assert!(
                    r.lower <= exact && exact <= r.upper,
                    "{site:?}: [{}, {}] excludes exact {exact}",
                    r.lower,
                    r.upper
                );
            }
        }
    }
}
