//! Observability determinism suite.
//!
//! The contract under test: instrumentation observes the analysis
//! without perturbing it, and everything it records — counter totals
//! and the phase tree — is **byte-identical** across worker
//! thread counts, because every cone does identical logical work on a
//! fresh engine and the phase subtrees are merged on join in netlist
//! output order.

use tbf_core::obs::{observe, RunObservation};
use tbf_core::{
    analyze, analyze_eco, analyze_with_budget, AnalysisBudget, AnalysisPolicy, ConeStore,
    DelayOptions,
};
use tbf_logic::generators::adders::{carry_bypass, paper_bypass_adder, ripple_carry};
use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3, figure6_glitch};
use tbf_logic::generators::random::random_dag;
use tbf_logic::generators::trees::parity_tree;
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::parsers::bench::c17;
use tbf_logic::parsers::mcnc_like_delays;
use tbf_logic::{DelayBounds, GateKind, Netlist, Time};
use tbf_obs::{phase, Metric};

fn policy(threads: usize) -> AnalysisPolicy {
    AnalysisPolicy::default().with_threads(threads)
}

/// The deterministic fingerprint of one observed run: counter snapshot
/// plus the phase tree's deterministic serialization (no wall times).
fn fingerprint(obs: &RunObservation) -> (Vec<(&'static str, u64)>, String) {
    (
        obs.counters.snapshot(),
        phase::to_value(&obs.phases).to_string(),
    )
}

fn circuits() -> Vec<Netlist> {
    vec![
        paper_bypass_adder(),
        figure1_three_paths(),
        parity_tree(
            6,
            DelayBounds::new(Time::from_units(0.9), Time::from_int(1)),
        ),
    ]
}

#[test]
fn counters_and_phases_identical_across_threads() {
    for netlist in circuits() {
        let (baseline_report, baseline_obs) = observe(|| analyze(&netlist, &policy(1)));
        let baseline = fingerprint(&baseline_obs);
        assert!(
            baseline_obs.counters.get(Metric::IteCalls) > 0,
            "instrumentation must observe BDD work"
        );
        assert!(
            !baseline_obs.phases.is_empty(),
            "phase tree must be captured"
        );
        for threads in [1, 2, 8] {
            let (report, obs) = observe(|| analyze(&netlist, &policy(threads)));
            assert_eq!(
                report, baseline_report,
                "report must not depend on threads={threads}"
            );
            assert_eq!(
                fingerprint(&obs),
                baseline,
                "counters/phases must not depend on threads={threads}"
            );
        }
    }
}

#[test]
fn observation_does_not_perturb_the_report() {
    for netlist in circuits() {
        let plain = analyze(&netlist, &policy(2));
        let (observed, _) = observe(|| analyze(&netlist, &policy(2)));
        assert_eq!(plain, observed, "observe() must be a pure wrapper");
    }
}

#[test]
fn cone_subtrees_attach_in_netlist_output_order() {
    let netlist = paper_bypass_adder();
    let outputs: Vec<String> = netlist
        .outputs()
        .iter()
        .map(|(name, _)| format!("cone:{name}"))
        .collect();
    for threads in [1, 4] {
        // The cone subtrees attach directly under the observe root (the
        // CLI nests them under a model phase instead).
        let (_, obs) = observe(|| analyze(&netlist, &policy(threads)));
        let cones: Vec<&str> = obs.phases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(cones, outputs, "threads={threads}");
    }
}

#[test]
fn per_cone_budget_polls_land_in_their_cone_span() {
    let (_, obs) = observe(|| analyze(&paper_bypass_adder(), &policy(1)));
    let total: u64 = obs.phases.iter().map(|c| c.budget_polls).sum();
    assert!(total > 0, "cones must record their budget polls");
    assert!(
        total <= obs.counters.get(Metric::BudgetPolls),
        "per-cone polls cannot exceed the registry total"
    );
}

#[test]
fn reused_cones_replay_no_phase_spans() {
    // A cone answered from the store does no work in the run that reuses
    // it, so that run records no spans and no BDD effort for it.
    let netlist = ripple_carry(4, unit_ninety_percent());
    let policy = policy(1);
    let mut store = ConeStore::new(64);
    let mut run = || {
        observe(|| {
            let budget = AnalysisBudget::from_options(&policy.options).shared();
            analyze_eco(&netlist, &policy, budget, &mut store, true)
        })
    };
    let (_, first) = run();
    assert!(!first.phases.is_empty(), "the computing run records spans");
    let ((report, eco), second) = run();
    assert_eq!(eco.reused, netlist.outputs().len());
    assert_eq!(eco.recomputed, 0);
    assert!(second.phases.is_empty(), "{:?}", second.phases);
    assert_eq!(second.counters.get(Metric::IteCalls), 0);
    assert_eq!(report, analyze(&netlist, &policy));
}

#[test]
fn a_budget_built_outside_observe_records_no_spans_at_any_thread_count() {
    // Spans and cone capture follow the budget's registry, not the
    // thread's phase stack, so the tree cannot depend on whether a cone
    // runs on the observing thread or on a worker.
    let netlist = c17(mcnc_like_delays);
    for threads in [1, 2] {
        let policy = policy(threads);
        let budget = AnalysisBudget::from_options(&policy.options).shared();
        let (report, obs) = observe(|| analyze_with_budget(&netlist, &policy, budget));
        assert!(report.all_exact());
        assert!(
            obs.phases.is_empty(),
            "{threads} thread(s): {:?}",
            obs.phases
        );
        assert_eq!(obs.counters.get(Metric::IteCalls), 0);
    }
}

#[test]
fn direct_engines_record_per_output_spans() {
    let netlist = paper_bypass_adder();
    let (result, obs) = observe(|| {
        tbf_core::two_vector_delay(&netlist, &DelayOptions::default()).expect("small circuit")
    });
    assert_eq!(result.delay, Time::from_int(24));
    let names: Vec<&str> = obs.phases.iter().map(|p| p.name.as_str()).collect();
    let expected: Vec<String> = netlist
        .outputs()
        .iter()
        .map(|(name, _)| format!("cone:{name}"))
        .collect();
    assert_eq!(names, expected);
    assert!(obs.phases.iter().any(|p| p.peak_nodes > 0));
}

/// One circuit's pinned effort: (circuit, delay, breakpoints,
/// instantiations, memo hits, nodes allocated, gc sweeps, ite calls,
/// computed-table hits).
type Pin = (&'static str, i64, usize, u64, u64, u64, u64, u64, u64);

/// The default engine's work on the engine-equivalence suite plus
/// `ripple_carry_8` and `carry_bypass_4x4`, pinned per circuit: exact
/// 2-vector delay (fixed-point units), breakpoints visited, gate-BDD
/// instantiations, build-memo hits, BDD nodes allocated, GC sweeps, ITE
/// calls and computed-table hits. Every column is a logical count, the
/// same on any host, thread count or run; a change that moves one changes
/// the work the engine does and must re-pin it on purpose. The node and
/// GC columns are what a kernel change must leave alone: the computed
/// table is lossy, and a lost entry costs only a recomputation whose
/// nodes are all still interned, so a table change moves the ITE-call
/// and cache-hit columns and nothing else. `carry_bypass_4x4` sweeps 33
/// times, so its row also covers the table's clearing at each sweep. The delays
/// are the ones every earlier engine reported.
#[rustfmt::skip]
const PINNED: [Pin; 11] = [
    ("c17", 36_000, 2, 8, 0, 202, 0, 578, 44),
    ("paper_bypass_adder", 240_000, 2, 13, 0, 470, 0, 1_212, 230),
    ("ripple_carry_4", 40_000, 5, 16, 0, 1_108, 0, 2_973, 790),
    ("ripple_carry_8", 80_000, 9, 46, 0, 2_740, 0, 7_381, 2_421),
    ("carry_bypass_2x2", 50_000, 7, 44, 0, 3_217, 0, 11_658, 3_712),
    ("carry_bypass_4x4", 110_000, 77, 1_770, 0, 447_401, 33, 1_043_816, 488_243),
    ("parity_tree_6", 30_000, 1, 4, 0, 113, 0, 270, 57),
    ("figure1_three_paths", 50_000, 1, 2, 0, 32, 0, 76, 4),
    ("figure4_example3", 40_000, 1, 2, 0, 25, 0, 75, 2),
    ("figure6_glitch", 0, 1, 0, 0, 2, 0, 5, 0),
    ("random_dag_6x30", 90_000, 48, 918, 298, 4_783, 0, 17_423, 3_794),
];

#[test]
fn default_effort_counters_are_pinned() {
    let d = unit_ninety_percent();
    let suite = [
        c17(mcnc_like_delays),
        paper_bypass_adder(),
        ripple_carry(4, d),
        ripple_carry(8, d),
        carry_bypass(2, 2, d),
        carry_bypass(4, 4, d),
        parity_tree(6, d),
        figure1_three_paths(),
        figure4_example3(),
        figure6_glitch(),
        random_dag(6, 30, 3, 0x5EED),
    ];
    for (netlist, pin) in suite.iter().zip(PINNED) {
        let (report, obs) =
            observe(|| tbf_core::two_vector_delay(netlist, &DelayOptions::default()));
        let report = report.expect("suite circuits analyze exactly under the default caps");
        let got = (
            pin.0,
            report.delay.scaled(),
            report.stats.breakpoints_visited,
            obs.counters.get(Metric::TbfInstantiations),
            obs.counters.get(Metric::TbfCacheHits),
            obs.counters.get(Metric::NodesAllocated),
            obs.counters.get(Metric::GcSweeps),
            obs.counters.get(Metric::IteCalls),
            obs.counters.get(Metric::CacheHits),
        );
        assert_eq!(
            got, pin,
            "(circuit, delay, breakpoints, instantiations, memo hits, nodes allocated, \
             gc sweeps, ite calls, cache hits)"
        );
        assert_eq!(report.stats.gc_sweeps, pin.6, "{}", pin.0);
    }
}

#[test]
fn gc_sweeps_reclaim_build_garbage_on_the_bypass_adder() {
    // The 4×4 bypass adder's build crosses the pressure trigger: sweeps
    // fire mid-build and reclaim slots the arena then reuses, so the
    // arena's high-water mark stays far below the nodes ever allocated.
    let netlist = carry_bypass(4, 4, unit_ninety_percent());
    let (report, obs) = observe(|| tbf_core::two_vector_delay(&netlist, &DelayOptions::default()));
    let report = report.expect("bypass adder stays within default caps");
    assert!(obs.counters.get(Metric::GcSweeps) > 0);
    assert!(
        obs.counters.get(Metric::GcNodesReclaimed) > 0,
        "sweeps must reclaim transient build garbage"
    );
    assert_eq!(report.stats.gc_sweeps, obs.counters.get(Metric::GcSweeps));
    assert!(
        (report.stats.peak_arena_nodes as u64) * 4 < obs.counters.get(Metric::NodesAllocated),
        "reclaimed slots must be reused (peak arena {} vs {} allocated)",
        report.stats.peak_arena_nodes,
        obs.counters.get(Metric::NodesAllocated)
    );
}

/// Rebuilds `netlist` with the `ordinal`-th gate's max delay one unit
/// wider: a one-gate edit that changes the slice signature of exactly
/// the cones whose fanin reaches the gate.
fn bump_gate_delay(netlist: &Netlist, ordinal: usize) -> Netlist {
    let target = netlist
        .nodes()
        .filter(|(_, n)| n.kind() != GateKind::Input)
        .nth(ordinal)
        .map(|(id, _)| id)
        .expect("gate ordinal in range");
    let mut b = Netlist::builder();
    let mut map = Vec::with_capacity(netlist.len());
    for (id, node) in netlist.nodes() {
        let new_id = if node.kind() == GateKind::Input {
            b.input(node.name())
        } else {
            let fanins: Vec<_> = node.fanins().iter().map(|f| map[f.index()]).collect();
            let mut delay = node.delay();
            if id == target {
                delay = DelayBounds::new(delay.min, delay.max + Time::from_int(1));
            }
            b.gate(node.kind(), node.name(), fanins, delay)
                .expect("rebuild preserves unique names")
        };
        map.push(new_id);
    }
    for (name, id) in netlist.outputs() {
        b.output(name, map[id.index()]);
    }
    b.finish().expect("rebuild preserves outputs")
}

/// One circuit's one-gate edit, pinned: (circuit, cones reused,
/// cones recomputed, ITE calls of the cold run, ITE calls of the
/// incremental run).
type EcoPin = (&'static str, usize, usize, u64, u64);

/// The edit of `a_one_gate_edit_recomputes_only_the_cones_it_reaches`
/// on five circuits. Logical counts, the same on any host; the reuse
/// split moves only if cone slicing or signing changes.
#[rustfmt::skip]
const ECO_PINNED: [EcoPin; 5] = [
    ("c17", 1, 1, 434, 243),
    ("ripple_carry_8", 8, 1, 5_878, 668),
    ("ripple_carry_16", 16, 1, 17_628, 1_044),
    ("carry_bypass_4x4", 11, 6, 187_317, 153_372),
    ("random_dag_6x30", 9, 1, 19_137, 811),
];

#[test]
fn a_one_gate_edit_recomputes_only_the_cones_it_reaches() {
    // The edit widens the middle gate's max delay by one unit. A cold
    // run analyzes the edited circuit on an empty store; the incremental
    // run analyzes it on a store primed with the unedited circuit, so
    // only the cones reaching the gate do BDD work, and it must report
    // the same answer with strictly fewer ITE calls.
    let d = unit_ninety_percent();
    let suite = [
        c17(mcnc_like_delays),
        ripple_carry(8, d),
        ripple_carry(16, d),
        carry_bypass(4, 4, d),
        random_dag(6, 30, 3, 0x5EED),
    ];
    let policy = policy(1);
    let run = |netlist: &Netlist, store: &mut ConeStore| {
        observe(|| {
            let budget = AnalysisBudget::from_options(&policy.options).shared();
            analyze_eco(netlist, &policy, budget, store, true)
        })
    };
    for (base, pin) in suite.iter().zip(ECO_PINNED) {
        let name = pin.0;
        let edited = bump_gate_delay(base, base.gate_count() / 2);
        let ((cold, cold_eco), cold_obs) = run(&edited, &mut ConeStore::new(256));
        assert_eq!(cold_eco.reused, 0, "{name}: a cold run reused a cone");
        let mut store = ConeStore::new(256);
        let _ = run(base, &mut store);
        let ((incremental, eco), incremental_obs) = run(&edited, &mut store);
        // Debug, not `==`: report equality skips the memory and GC
        // columns, and a reused cone must bring those back as well.
        assert_eq!(
            format!("{incremental:?}"),
            format!("{cold:?}"),
            "{name}: the incremental report differs"
        );
        let cold_ite = cold_obs.counters.get(Metric::IteCalls);
        let incremental_ite = incremental_obs.counters.get(Metric::IteCalls);
        assert!(
            incremental_ite < cold_ite,
            "{name}: incremental {incremental_ite} ITE calls, cold {cold_ite}"
        );
        assert_eq!(
            (name, eco.reused, eco.recomputed, cold_ite, incremental_ite),
            pin,
            "(circuit, reused, recomputed, cold ite calls, incremental ite calls)"
        );
    }
}
