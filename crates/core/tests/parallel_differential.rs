//! Differential determinism: the parallel driver must return a
//! byte-identical [`CircuitReport`] — delays, bounds, statuses, output
//! order, witness and stats — for every worker count. Worker scheduling
//! may reorder the *work*, but never the *result*.

use tbf_core::{analyze, two_vector_delay, AnalysisPolicy, DelayOptions};
use tbf_logic::generators::adders::{carry_bypass, paper_bypass_adder, ripple_carry};
use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3};
use tbf_logic::generators::random::random_dag;
use tbf_logic::generators::trees::parity_tree;
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::{DelayBounds, GateKind, Netlist, Time};
use tbf_sim::{simulate, Stimulus};

const THREAD_COUNTS: [usize; 3] = [2, 4, 0];

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
fn parity_trees_are_thread_invariant() {
    // XOR-rich cones: the most BDD-heavy shape per gate we have.
    let policy = AnalysisPolicy::default();
    let n = parity_tree(
        8,
        DelayBounds::new(Time::from_units(0.9), Time::from_int(1)),
    );
    assert_thread_invariant(&n, &policy, "parity 8");
}

#[test]
fn sweeping_builds_are_thread_invariant() {
    // Circuits on both sides of the GC pressure trigger. The 4×4 bypass
    // adder crosses the trigger, so its builds really sweep mid-build;
    // the parity tree stays under it.
    let d = DelayBounds::new(Time::from_units(0.9), Time::from_int(1));
    let policy = AnalysisPolicy::default();
    assert_thread_invariant(&carry_bypass(4, 4, d), &policy, "bypass 4x4");
    assert_thread_invariant(&parity_tree(8, d), &policy, "parity 8");
}

/// A distilled carry-bypass: a `stages`-deep AND ripple chain muxed
/// against a 2-gate bypass on the same propagate signal. When `p = 1`
/// the mux masks the chain, when `p = 0` the chain is killed at every
/// stage by `p` directly — so the deep path is false, the exact delay is
/// the bypass's few gate delays, and the sweep misses at every deep
/// breakpoint before hitting at the shallow end. `stages + 5` gates, one
/// output, about `stages` breakpoints.
fn bypass_chain(stages: usize) -> Netlist {
    let d = unit_ninety_percent();
    let mut b = Netlist::builder();
    let c = b.input("c");
    let p = b.input("p");
    let mut r = b.gate(GateKind::And, "r0", vec![c, p], d).unwrap();
    for i in 1..stages {
        r = b
            .gate(GateKind::And, &format!("r{i}"), vec![r, p], d)
            .unwrap();
    }
    let byp = b.gate(GateKind::And, "byp", vec![c, p], d).unwrap();
    let np = b.gate(GateKind::Not, "np", vec![p], d).unwrap();
    let sel1 = b.gate(GateKind::And, "sel1", vec![p, byp], d).unwrap();
    let sel0 = b.gate(GateKind::And, "sel0", vec![np, r], d).unwrap();
    let out = b.gate(GateKind::Or, "out", vec![sel1, sel0], d).unwrap();
    b.output("f", out);
    b.finish().unwrap()
}

#[test]
fn deep_false_path_cone_is_exact_witnessed_and_invariant() {
    let n = bypass_chain(66);
    let r = analyze(&n, &AnalysisPolicy::default());
    assert_eq!(r.exact, Some(Time::from_int(3)), "{r}");
    assert_eq!(r.topological, Time::from_int(68));
    // The sweep misses at every deep breakpoint before the shallow hit.
    assert!(r.stats.breakpoints_visited >= 66, "{r}");
    // The direct engine runs the same sweep as the driver's cone job.
    let direct = two_vector_delay(&n, &DelayOptions::default()).expect("cone analyzes exactly");
    assert_eq!(Some(direct.delay), r.exact);
    assert_eq!(
        direct.stats.breakpoints_visited,
        r.stats.breakpoints_visited
    );
    // Checked outside the engine: the witness, simulated gate by gate,
    // makes its output's last transition at exactly the reported delay.
    let w = r
        .witness
        .as_ref()
        .expect("a nonzero exact delay has a witness");
    let stim = Stimulus::vector_pair(&w.before, &w.after);
    let sim = simulate(&n, &w.delays, &stim.waveforms(&n));
    let out = n.outputs()[0].1;
    assert_eq!(sim.waveform(out).last_transition(), Some(Time::from_int(3)));
    assert_thread_invariant(&n, &AnalysisPolicy::default(), "bypass chain 66");
}

#[cfg(feature = "fault-injection")]
mod under_faults {
    use super::*;
    use tbf_core::fault::{with_plan, FaultPlan, Site};

    /// Injected faults are snapshotted at `analyze()` entry and re-armed
    /// per cone, so a fault schedule produces the same report whatever
    /// the worker count. Transient faults (`once_at`) exercise the
    /// ladder's retry and fallback rungs on the way.
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
