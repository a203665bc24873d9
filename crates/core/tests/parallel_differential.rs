//! Differential determinism: the parallel driver must return a
//! byte-identical [`CircuitReport`] — delays, bounds, statuses, output
//! order, witness and stats — for every worker count *and* every
//! [`ReorderPolicy`]. Worker scheduling may reorder the *work*, and
//! sifting may reorder the *BDD variables*, but never the *result*.

use tbf_core::{analyze, AnalysisPolicy, DelayOptions, ReorderPolicy};
use tbf_logic::generators::adders::{carry_bypass, paper_bypass_adder, ripple_carry};
use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3};
use tbf_logic::generators::random::random_dag;
use tbf_logic::generators::trees::parity_tree;
use tbf_logic::{DelayBounds, Netlist, Time};

const THREAD_COUNTS: [usize; 3] = [2, 4, 0];

/// Every reorder policy the engines accept. The pressure trigger is set
/// absurdly low so on-pressure sifts actually fire mid-build on these
/// small circuits.
fn reorder_policies() -> [ReorderPolicy; 3] {
    [
        ReorderPolicy::None,
        ReorderPolicy::OnPressure {
            trigger_nodes: 64,
            max_growth: 150,
        },
        ReorderPolicy::Manual,
    ]
}

/// Asserts `analyze` is invariant across the full `reorder × threads`
/// grid, against the unreordered sequential baseline.
fn assert_reorder_invariant(netlist: &Netlist, base: &AnalysisPolicy, label: &str) {
    let baseline = analyze(netlist, base);
    for reorder in reorder_policies() {
        for threads in [1, 4] {
            let mut policy = base.clone().with_threads(threads);
            policy.options.reorder = reorder;
            let report = analyze(netlist, &policy);
            assert_eq!(
                baseline, report,
                "{label}: reorder={reorder:?} threads={threads} diverged from baseline"
            );
        }
    }
}

/// Asserts `analyze` under `policy` is invariant across worker counts,
/// returning the sequential report for further checks.
fn assert_thread_invariant(netlist: &Netlist, policy: &AnalysisPolicy, label: &str) {
    let sequential = analyze(netlist, policy);
    for threads in THREAD_COUNTS {
        let parallel = analyze(netlist, &policy.clone().with_threads(threads));
        assert_eq!(
            sequential, parallel,
            "{label}: threads={threads} diverged from sequential"
        );
    }
}

#[test]
fn paper_figures_are_thread_invariant() {
    let policy = AnalysisPolicy::default();
    assert_thread_invariant(&figure4_example3(), &policy, "figure4");
    assert_thread_invariant(&figure1_three_paths(), &policy, "figure1");
}

#[test]
fn bypass_adders_are_thread_invariant() {
    let policy = AnalysisPolicy::default();
    assert_thread_invariant(&paper_bypass_adder(), &policy, "paper bypass adder");
    let unit = DelayBounds::fixed(Time::from_int(1));
    assert_thread_invariant(&carry_bypass(2, 3, unit), &policy, "bypass 2x3");
    assert_thread_invariant(&ripple_carry(6, unit), &policy, "ripple 6");
}

#[test]
fn random_dag_sweep_is_thread_invariant() {
    let policy = AnalysisPolicy::default();
    for seed in [1, 7, 23, 40, 91] {
        let n = random_dag(6, 24, 3, seed);
        assert_thread_invariant(&n, &policy, &format!("random_dag seed {seed}"));
    }
}

#[test]
fn degraded_cones_are_thread_invariant() {
    // Tight caps force the ladder through retries, sequences fallbacks
    // and bounded statuses — the degradation pattern itself must be
    // deterministic across worker counts.
    let policy = AnalysisPolicy::with_options(DelayOptions {
        max_straddling_paths: 4,
        max_cubes: 8,
        ..DelayOptions::default()
    });
    for seed in [3, 17] {
        let n = random_dag(6, 30, 3, seed);
        assert_thread_invariant(&n, &policy, &format!("capped random_dag seed {seed}"));
    }
    assert_thread_invariant(&paper_bypass_adder(), &policy, "capped bypass adder");
}

#[test]
fn paper_figures_are_reorder_invariant() {
    let policy = AnalysisPolicy::default();
    assert_reorder_invariant(&figure4_example3(), &policy, "figure4");
    assert_reorder_invariant(&figure1_three_paths(), &policy, "figure1");
}

#[test]
fn bypass_adders_are_reorder_invariant() {
    let policy = AnalysisPolicy::default();
    assert_reorder_invariant(&paper_bypass_adder(), &policy, "paper bypass adder");
    let unit = DelayBounds::fixed(Time::from_int(1));
    assert_reorder_invariant(&carry_bypass(2, 3, unit), &policy, "bypass 2x3");
    assert_reorder_invariant(&ripple_carry(6, unit), &policy, "ripple 6");
}

#[test]
fn parity_trees_are_reorder_invariant() {
    // XOR-rich cones are the most order-sensitive shape we have; the
    // report must not care.
    let policy = AnalysisPolicy::default();
    let n = parity_tree(
        8,
        DelayBounds::new(Time::from_units(0.9), Time::from_int(1)),
    );
    assert_reorder_invariant(&n, &policy, "parity 8");
}

#[test]
fn random_dag_sweep_is_reorder_invariant() {
    let policy = AnalysisPolicy::default();
    for seed in [1, 7, 23, 40, 91] {
        let n = random_dag(6, 24, 3, seed);
        assert_reorder_invariant(&n, &policy, &format!("random_dag seed {seed}"));
    }
}

#[test]
fn sweeping_builds_are_cross_config_invariant() {
    // Threads × reorder on circuits on both sides of the GC pressure
    // trigger, every cell against one unreordered sequential baseline.
    // The 4×4 bypass adder crosses the trigger, so its builds really
    // sweep mid-build; the parity tree stays under it.
    let d = DelayBounds::new(Time::from_units(0.9), Time::from_int(1));
    let circuits = [
        (carry_bypass(4, 4, d), "bypass 4x4"),
        (parity_tree(8, d), "parity 8"),
    ];
    for (netlist, label) in &circuits {
        let baseline = analyze(netlist, &AnalysisPolicy::default());
        // CLI-scale pressure trigger: it fires a handful of times on
        // the adder (a tiny trigger would sift thousands of times on
        // a 100k-node build and drown the suite) and composes with
        // the GC sweeps happening at the same safe points.
        for reorder in [
            ReorderPolicy::None,
            ReorderPolicy::OnPressure {
                trigger_nodes: 50_000,
                max_growth: 120,
            },
        ] {
            for threads in [1, 4] {
                let policy = AnalysisPolicy::with_options(DelayOptions {
                    reorder,
                    ..DelayOptions::default()
                })
                .with_threads(threads);
                let report = analyze(netlist, &policy);
                assert_eq!(
                    baseline, report,
                    "{label}: reorder={reorder:?} threads={threads} diverged"
                );
            }
        }
    }
}

#[cfg(feature = "fault-injection")]
mod under_faults {
    use super::*;
    use tbf_core::fault::{with_plan, FaultPlan, Site};

    /// Injected faults are snapshotted at `analyze()` entry and re-armed
    /// per cone, so a fault schedule produces the same report whatever
    /// the worker count.
    #[test]
    fn fault_schedules_are_thread_invariant() {
        let sites = [
            Site::BddOp,
            Site::PathCollect,
            Site::CubeEnum,
            Site::Breakpoint,
            Site::ConeStart,
        ];
        let n = paper_bypass_adder();
        for site in sites {
            for after in [0, 2] {
                let plan = || FaultPlan::new().once_at(site, after);
                let sequential = with_plan(plan(), || analyze(&n, &AnalysisPolicy::default()));
                for threads in THREAD_COUNTS {
                    let parallel = with_plan(plan(), || {
                        analyze(&n, &AnalysisPolicy::default().with_threads(threads))
                    });
                    assert_eq!(
                        sequential, parallel,
                        "site {site:?} after {after}: threads={threads} diverged"
                    );
                }
            }
        }
    }

    /// Transient faults (`once_at`) exercise the ladder — including the
    /// reorder-and-retry rung on `BddOp` faults — and the recovered
    /// report must still be identical at every `(reorder, threads)`
    /// cell. (Persistent-pressure scenarios are excluded on purpose:
    /// there the rung legitimately runs once more than an unreordered
    /// ladder would.)
    #[test]
    fn fault_schedules_are_reorder_invariant() {
        let sites = [
            Site::BddOp,
            Site::PathCollect,
            Site::CubeEnum,
            Site::Breakpoint,
            Site::ConeStart,
        ];
        let n = paper_bypass_adder();
        for site in sites {
            for after in [0, 2] {
                let plan = || FaultPlan::new().once_at(site, after);
                let baseline = with_plan(plan(), || analyze(&n, &AnalysisPolicy::default()));
                for reorder in reorder_policies() {
                    for threads in [1, 4] {
                        let mut policy = AnalysisPolicy::default().with_threads(threads);
                        policy.options.reorder = reorder;
                        let report = with_plan(plan(), || analyze(&n, &policy));
                        assert_eq!(
                            baseline, report,
                            "site {site:?} after {after}: reorder={reorder:?} \
                             threads={threads} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fault_schedules_stay_sound_in_parallel() {
        let n = paper_bypass_adder();
        let exact = Time::from_int(24);
        for after in 0..8 {
            let r = with_plan(FaultPlan::new().once_at(Site::Breakpoint, after), || {
                analyze(&n, &AnalysisPolicy::default().with_threads(4))
            });
            assert!(
                r.lower <= exact && exact <= r.upper,
                "after={after}: bounds [{}, {}] exclude the exact delay",
                r.lower,
                r.upper
            );
        }
    }
}
