//! Fault walk of the degradation ladder.
//!
//! Every injection site is armed in turn and the resulting typed error /
//! ladder rung is checked, always cross-checking that the degraded bounds
//! still contain the fault-free exact delay of the paper's examples.

use tbf_core::fault::{with_plan, FaultPlan, Site};
use tbf_core::{
    analyze, analyze_with_token, two_vector_delay, AnalysisPolicy, CancelToken, DegradeCause,
    DelayError, DelayOptions, OutputStatus,
};
use tbf_logic::generators::adders::paper_bypass_adder;
use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3};
use tbf_logic::{Netlist, Time};

fn t(x: i64) -> Time {
    Time::from_int(x)
}

/// The fault-free exact delay (also pinned against the paper's numbers in
/// the engine tests, so a fault leaking out of a plan would show up here).
fn exact_of(n: &Netlist) -> Time {
    two_vector_delay(n, &DelayOptions::default())
        .expect("fault-free analysis is exact")
        .delay
}

/// Arms `site` with `n` independent one-shot faults, so retries and
/// fallback rungs keep hitting it.
fn armed(site: Site, n: usize) -> FaultPlan {
    (0..n).fold(FaultPlan::new(), |p, _| p.once(site))
}

type ErrorPredicate = fn(&DelayError) -> bool;

#[test]
fn every_capped_error_variant_is_reachable_by_injection() {
    let n = figure4_example3();
    let exact = exact_of(&n);
    let cases: &[(Site, ErrorPredicate)] = &[
        (Site::PathCollect, |e| {
            matches!(e, DelayError::TooManyPaths { .. })
        }),
        (Site::BddOp, |e| matches!(e, DelayError::BddTooLarge { .. })),
        (Site::CubeEnum, |e| {
            matches!(e, DelayError::TooManyCubes { .. })
        }),
        (Site::Breakpoint, |e| {
            matches!(e, DelayError::TimedOut { .. })
        }),
        (Site::XorSat, |e| matches!(e, DelayError::Internal { .. })),
    ];
    for (site, is_expected) in cases {
        let err = with_plan(armed(*site, 1), || {
            two_vector_delay(&n, &DelayOptions::default())
        })
        .expect_err("armed fault must surface as a typed error");
        assert!(is_expected(&err), "site {site:?} produced {err:?}");
        let (lo, hi) = err
            .bounds()
            .unwrap_or_else(|| panic!("{site:?} error carries no bounds: {err:?}"));
        assert!(
            lo <= exact && exact <= hi,
            "site {site:?}: bounds [{lo}, {hi}] exclude exact {exact}"
        );
    }
}

#[test]
fn single_resource_fault_is_healed_by_one_retry() {
    // A one-shot resource fault is exactly what the retry rung exists
    // for: escalate, reset, re-run — and the second attempt is exact.
    let n = figure4_example3();
    let exact = exact_of(&n);
    for site in [Site::PathCollect, Site::BddOp, Site::CubeEnum] {
        let r = with_plan(armed(site, 1), || analyze(&n, &AnalysisPolicy::default()));
        assert!(r.all_exact(), "site {site:?}: {r}");
        assert_eq!(r.exact, Some(exact), "site {site:?}");
        assert_eq!(r.stats.retries, 1, "site {site:?}");
    }
}

#[test]
fn persistent_faults_degrade_each_rung_with_sound_bounds() {
    let n = figure4_example3();
    let exact = exact_of(&n);
    let cases = [
        (Site::PathCollect, DegradeCause::TooManyPaths),
        (Site::BddOp, DegradeCause::BddTooLarge),
        (Site::CubeEnum, DegradeCause::TooManyCubes),
        (Site::Breakpoint, DegradeCause::TimedOut),
        (Site::XorSat, DegradeCause::InternalInvariant),
        (Site::ConeStart, DegradeCause::EnginePanic),
    ];
    for (site, expected_cause) in cases {
        let r = with_plan(armed(site, 32), || analyze(&n, &AnalysisPolicy::default()));
        assert!(!r.all_exact(), "site {site:?} should degrade: {r}");
        assert!(
            r.lower <= exact && exact <= r.upper,
            "site {site:?}: [{}, {}] excludes exact {exact}",
            r.lower,
            r.upper
        );
        let causes: Vec<DegradeCause> = r
            .outputs
            .iter()
            .filter_map(|o| match o.status {
                OutputStatus::Exact => None,
                OutputStatus::Bounded { cause, .. } | OutputStatus::Fallback { cause } => {
                    Some(cause)
                }
            })
            .collect();
        assert!(
            causes.contains(&expected_cause),
            "site {site:?}: causes {causes:?} lack {expected_cause:?}"
        );
        if site == Site::ConeStart {
            assert!(r.stats.panics_caught >= 1);
            // A panicking cone falls all the way to the topological
            // bound — no intermediate rung runs on a torn engine.
            assert!(r
                .outputs
                .iter()
                .any(|o| matches!(o.status, OutputStatus::Fallback { .. })));
        }
    }
}

#[test]
fn persistent_faults_never_error_on_multi_output_circuits() {
    for (mk, exact_expected) in [
        (paper_bypass_adder as fn() -> Netlist, t(24)),
        (figure1_three_paths as fn() -> Netlist, t(5)),
    ] {
        let n = mk();
        assert_eq!(exact_of(&n), exact_expected);
        for site in [
            Site::PathCollect,
            Site::BddOp,
            Site::CubeEnum,
            Site::Breakpoint,
            Site::XorSat,
            Site::ConeStart,
        ] {
            let r = with_plan(armed(site, 64), || analyze(&n, &AnalysisPolicy::default()));
            assert!(
                r.lower <= exact_expected && exact_expected <= r.upper,
                "{site:?} on {}-output circuit: [{}, {}] excludes {exact_expected}",
                n.outputs().len(),
                r.lower,
                r.upper
            );
            assert!(r.upper <= n.topological_delay());
        }
    }
}

#[test]
fn lp_interior_fault_falls_back_to_supremum_vertex() {
    // The interior LP solve is an optimization for witness quality; its
    // documented fallback keeps the result exact.
    for n in [figure4_example3(), paper_bypass_adder()] {
        let exact = exact_of(&n);
        let r = with_plan(armed(Site::LpInterior, 64), || {
            two_vector_delay(&n, &DelayOptions::default())
        })
        .expect("LpInterior fault must not fail the analysis");
        assert_eq!(r.delay, exact);
        assert!(r.witness.is_some());
    }
}

#[test]
fn cancellation_walks_the_cancelled_variant() {
    let token = CancelToken::new();
    token.cancel();
    let r = analyze_with_token(&figure4_example3(), &AnalysisPolicy::default(), token);
    assert!(!r.all_exact());
    for o in &r.outputs {
        match o.status {
            OutputStatus::Bounded { cause, .. } | OutputStatus::Fallback { cause } => {
                assert_eq!(cause, DegradeCause::Cancelled);
            }
            OutputStatus::Exact => panic!("cancelled analysis cannot be exact"),
        }
    }
    let exact = exact_of(&figure4_example3());
    assert!(r.lower <= exact && exact <= r.upper);
}

#[test]
fn disarmed_plan_changes_nothing() {
    // An empty plan (and, transitively, the compiled-out harness) must
    // leave results bit-identical to the fault-free run.
    let n = paper_bypass_adder();
    let baseline = analyze(&n, &AnalysisPolicy::default());
    let under_empty_plan = with_plan(FaultPlan::new(), || analyze(&n, &AnalysisPolicy::default()));
    assert_eq!(baseline, under_empty_plan);
    assert_eq!(baseline.exact, Some(t(24)));
}
