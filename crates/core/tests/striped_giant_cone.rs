//! Referee for the striped within-cone sweep (`speculate`): a single
//! giant cone — above the striping threshold, with a long all-miss
//! breakpoint sweep — must produce the same `CircuitReport` at every
//! worker count, and render to the same bytes across reorder policies.
//!
//! The circuit is a distilled carry-bypass: a `stages`-deep AND ripple
//! chain muxed against a 2-gate bypass on the same propagate signal.
//! When `p = 1` the mux masks the chain, when `p = 0` the chain is
//! killed at every stage by `p` directly — so the deep path is false,
//! the exact delay is the bypass's few gate delays, and the sweep
//! misses at every deep breakpoint before hitting at the shallow end.
//! That shape (one output, > 64 gates, ~`stages` breakpoints, nearly
//! all misses) maximizes the speculative surface of the striped sweep.

use tbf_core::{analyze, two_vector_delay, AnalysisPolicy, DelayOptions, ReorderPolicy};
use tbf_logic::generators::unit_ninety_percent;
use tbf_logic::{GateKind, Netlist, Time};

/// `stages + 5` gates, one output, breakpoints ≈ `stages`.
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

fn policy(threads: usize, reorder: ReorderPolicy) -> AnalysisPolicy {
    AnalysisPolicy::with_options(DelayOptions {
        reorder,
        ..DelayOptions::default()
    })
    .with_threads(threads)
}

#[test]
fn giant_cone_resolves_its_false_path_exactly() {
    let n = bypass_chain(66);
    assert!(
        n.gate_count() > 64,
        "referee must exceed the striping threshold, has {} gates",
        n.gate_count()
    );
    let r = analyze(&n, &AnalysisPolicy::default());
    assert_eq!(r.exact, Some(Time::from_int(3)), "{r}");
    assert_eq!(r.topological, Time::from_int(68));
    // The sweep misses at every deep breakpoint before the shallow hit.
    assert!(r.stats.breakpoints_visited >= 66, "{r}");
    assert!(r.all_exact());
}

#[test]
fn giant_cone_report_is_identical_across_threads_and_reorder() {
    let n = bypass_chain(66);
    let baseline = analyze(&n, &policy(1, ReorderPolicy::None));
    let pressure = ReorderPolicy::OnPressure {
        trigger_nodes: 64,
        max_growth: 150,
    };
    for reorder in [ReorderPolicy::None, pressure] {
        // Within one reorder cell the full report struct — statistics
        // included — must be byte-identical at every worker count:
        // striping is a fixed decomposition, workers only schedule.
        let cell = analyze(&n, &policy(1, reorder));
        for threads in [2, 4, 0] {
            let parallel = analyze(&n, &policy(threads, reorder));
            assert_eq!(cell, parallel, "threads={threads} reorder={reorder:?}");
        }
        // Across cells the node-count statistics legitimately move, but
        // the rendered report — delays, statuses, effort counters — is
        // the same bytes everywhere.
        assert_eq!(
            cell.to_string(),
            baseline.to_string(),
            "reorder={reorder:?}"
        );
    }
}

#[test]
fn striped_sweep_agrees_with_the_classic_direct_engine() {
    // `two_vector_delay` drives the classic sequential sweep whatever
    // the cone size; `analyze` stripes this cone. Same circuit, same
    // options — the answer and the sweep accounting must agree.
    let n = bypass_chain(66);
    let direct = two_vector_delay(&n, &DelayOptions::default()).expect("cone analyzes exactly");
    let driver = analyze(&n, &AnalysisPolicy::default().with_threads(4));
    assert_eq!(Some(direct.delay), driver.exact);
    assert_eq!(
        direct.stats.breakpoints_visited,
        driver.stats.breakpoints_visited
    );
}

#[test]
fn chain_just_below_the_threshold_stays_consistent() {
    // One stage short of the striping threshold: the classic sweep
    // runs. Same structure, same false path — the two sweeps sit on
    // either side of the gate and must tell the same story.
    let n = bypass_chain(59);
    assert!(n.gate_count() <= 64, "{} gates", n.gate_count());
    let r = analyze(&n, &AnalysisPolicy::default());
    assert_eq!(r.exact, Some(Time::from_int(3)), "{r}");
    for threads in [2, 4] {
        let parallel = analyze(&n, &AnalysisPolicy::default().with_threads(threads));
        assert_eq!(r, parallel, "threads={threads}");
    }
}
