//! Cooperative cancellation at allocation granularity.
//!
//! These tests build a circuit whose *static* BDD is exponential under
//! the engine's fanin-DFS variable layout (a decoy AND gate, wired as the
//! hard output's *first* fanin, pins the interleaved order
//! `x0,y0,x1,y1,…`; the rest of the output is the crossing function
//! `⊕ᵢ xᵢ·y_{n−1−i}`, whose pairs sit maximally far apart in that
//! order). The decoy sits inside the hard cone on purpose: the driver
//! analyzes each output on its own cone-restricted engine, so an
//! order-pinning gate in a *sibling* cone would no longer poison this
//! one. A single `try_xor_b`/`try_and_b` chain inside
//! `ConeContext::new` would run for a very long time — so the
//! deadline/token must fire *inside* the operation, not between ladder
//! rungs.

use std::time::{Duration, Instant};

use tbf_core::{
    analyze, analyze_with_token, two_vector_delay, AnalysisPolicy, CancelToken, DegradeCause,
    DelayError, DelayOptions, OutputStatus,
};
use tbf_logic::{DelayBounds, GateKind, Netlist, Time};

fn t(x: i64) -> Time {
    Time::from_int(x)
}

/// 2n inputs; the hard output XORs a decoy AND over `x0,y0,x1,y1,…`
/// (cheap, but first in DFS so it pins the variable order) with
/// `⊕ᵢ xᵢ·y_{n−1−i}` (exponential BDD in that order). A separate cheap
/// output keeps the driver's multi-cone path honest.
fn crossing_circuit(n: usize) -> Netlist {
    let mut b = Netlist::builder();
    let xs: Vec<_> = (0..n).map(|i| b.input(&format!("x{i}"))).collect();
    let ys: Vec<_> = (0..n).map(|i| b.input(&format!("y{i}"))).collect();
    let mut interleaved = Vec::new();
    for i in 0..n {
        interleaved.push(xs[i]);
        interleaved.push(ys[i]);
    }
    let decoy = b
        .gate(
            GateKind::And,
            "decoy",
            interleaved,
            DelayBounds::fixed(t(1)),
        )
        .unwrap();
    let mut fanins = vec![decoy];
    fanins.extend((0..n).map(|i| {
        b.gate(
            GateKind::And,
            &format!("a{i}"),
            vec![xs[i], ys[n - 1 - i]],
            DelayBounds::new(t(1), t(2)),
        )
        .unwrap()
    }));
    let hard = b
        .gate(GateKind::Xor, "hard", fanins, DelayBounds::new(t(1), t(2)))
        .unwrap();
    b.output("decoy_out", decoy);
    b.output("hard_out", hard);
    b.finish().unwrap()
}

/// Caps so large that only the deadline/token can stop the analysis.
fn uncapped_with(time_budget: Option<Duration>) -> DelayOptions {
    DelayOptions {
        max_bdd_nodes: usize::MAX / 4,
        max_straddling_paths: usize::MAX / 4,
        max_cubes: usize::MAX / 4,
        time_budget,
    }
}

#[test]
fn deadline_fires_inside_a_single_bdd_operation() {
    let n = crossing_circuit(20);
    let budget = Duration::from_millis(100);
    let start = Instant::now();
    let err = two_vector_delay(&n, &uncapped_with(Some(budget)))
        .expect_err("the crossing BDD cannot finish inside the budget");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, DelayError::TimedOut { .. }),
        "expected TimedOut, got {err:?}"
    );
    // The acceptance bar: cancellation latency bounded by ~10× the
    // budget, which is only possible if the check runs *inside* the op.
    assert!(
        elapsed < budget * 10,
        "cancellation latency {elapsed:?} exceeds 10× the {budget:?} budget"
    );
}

#[test]
fn anytime_driver_degrades_on_deadline_instead_of_erroring() {
    let n = crossing_circuit(20);
    let budget = Duration::from_millis(100);
    let policy = AnalysisPolicy::with_options(uncapped_with(Some(budget)));
    let start = Instant::now();
    let r = analyze(&n, &policy);
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget * 10,
        "driver cancellation latency {elapsed:?} exceeds 10× the {budget:?} budget"
    );
    assert!(!r.all_exact());
    assert!(r.upper <= n.topological_delay());
    assert!(r.outputs.iter().all(|o| match o.status {
        OutputStatus::Exact => true,
        OutputStatus::Bounded { cause, .. } | OutputStatus::Fallback { cause } =>
            cause == DegradeCause::TimedOut,
    }));
}

#[test]
fn cancel_token_interrupts_mid_operation_from_another_thread() {
    let n = crossing_circuit(20);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let start = Instant::now();
    let r = analyze_with_token(
        &n,
        &AnalysisPolicy::with_options(uncapped_with(None)),
        token,
    );
    let elapsed = start.elapsed();
    canceller.join().expect("canceller thread");
    assert!(
        elapsed < Duration::from_secs(2),
        "token cancellation latency {elapsed:?} too high"
    );
    assert!(!r.all_exact());
    assert!(r.outputs.iter().any(|o| match o.status {
        OutputStatus::Exact => false,
        OutputStatus::Bounded { cause, .. } | OutputStatus::Fallback { cause } =>
            cause == DegradeCause::Cancelled,
    }));
}

#[test]
fn node_cap_confirms_the_crossing_bdd_is_genuinely_exponential() {
    // Guards the premise of the latency tests above: with a finite node
    // cap and no deadline, the static build must blow the cap — i.e. the
    // timeout really happens inside an exploding operation, not after a
    // cheap build.
    let n = crossing_circuit(20);
    let opts = DelayOptions {
        max_bdd_nodes: 2_000_000,
        time_budget: None,
        ..DelayOptions::default()
    };
    let err = two_vector_delay(&n, &opts).expect_err("2M nodes cannot hold the crossing BDD");
    assert!(
        matches!(err, DelayError::BddTooLarge { .. }),
        "expected BddTooLarge, got {err:?}"
    );
}
