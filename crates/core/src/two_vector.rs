//! The exact 2-vector (transition) delay engine (paper §6–§7.3).

use std::collections::HashMap;
use std::sync::Arc;

use tbf_bdd::{Bdd, Cube, OpAbort, OpBudget};
use tbf_logic::{Netlist, NodeId, Time};
use tbf_lp::{PathLp, PathLpOutcome};

use crate::budget::AnalysisBudget;
use crate::error::DelayError;
use crate::fault::{self, Site};
use crate::model::{delay_with_model, DelayModel, Hit};
use crate::network::{ConeContext, QueryOut};
use crate::options::DelayOptions;
use crate::report::{DelayReport, DelayWitness, OutputDelay, OutputStatus, SearchStats};

/// Computes the exact 2-vector delay `D(C, [dᵐⁱⁿ,dᵐᵃˣ], 2)`: the latest
/// possible arrival time of the last output transition when an arbitrary
/// vector pair switches at `t = 0`, over all in-bounds gate delay
/// assignments.
///
/// This is the paper's §7.3 algorithm: descend through the breakpoints
/// `{Kᵢᵐᵃˣ}`; at each query point `t = b⁻` build the TBF as a BDD with
/// resolvents standing in for the delay-dependent variables, compare
/// against the static function `f(∞)`, and check each difference cube's
/// induced linear program for feasibility, maximizing `t`. The first
/// breakpoint interval with a feasible cube yields the exact delay.
///
/// For never-erroring whole-circuit analysis with graceful degradation,
/// see [`analyze`](crate::analyze).
///
/// # Errors
///
/// Returns a [`DelayError`] carrying sound `(lower, upper)` bounds when a
/// resource cap of [`DelayOptions`] is exceeded.
///
/// # Example
///
/// ```
/// use tbf_core::{two_vector_delay, DelayOptions};
/// use tbf_logic::generators::figures::figure4_example3;
/// use tbf_logic::Time;
///
/// // Example 3 of the paper: delay = 4.
/// let report = two_vector_delay(&figure4_example3(), &DelayOptions::default())?;
/// assert_eq!(report.delay, Time::from_int(4));
/// # Ok::<(), tbf_core::DelayError>(())
/// ```
pub fn two_vector_delay(
    netlist: &Netlist,
    options: &DelayOptions,
) -> Result<DelayReport, DelayError> {
    two_vector_delay_budgeted(netlist, AnalysisBudget::from_options(options).shared())
}

/// [`two_vector_delay`] against a caller-supplied (possibly shared,
/// possibly cancellable) budget.
pub(crate) fn two_vector_delay_budgeted(
    netlist: &Netlist,
    budget: Arc<AnalysisBudget>,
) -> Result<DelayReport, DelayError> {
    delay_with_model(netlist, budget, &mut TwoVector)
}

/// The capped cone's [`OutputDelay`] entry (its delay is the sound upper
/// bound carried by the error); `None` for non-degradable errors.
pub(crate) fn degraded_output(
    netlist: &Netlist,
    name: &str,
    out_id: NodeId,
    e: &DelayError,
) -> Option<OutputDelay> {
    let cause = crate::report::DegradeCause::from_error(e)?;
    let topological = netlist.topological_delay_of(out_id);
    let (lo, hi) = e.bounds().unwrap_or((Time::ZERO, topological));
    let hi = hi.min(topological);
    Some(OutputDelay {
        name: name.to_owned(),
        delay: hi,
        topological,
        status: OutputStatus::Bounded {
            lower: lo,
            upper: hi,
            cause,
        },
    })
}

/// Aggregates per-output results into the circuit report, erroring (with
/// widened bounds) only when a non-exact cone could dominate the exact
/// maximum.
pub(crate) fn finish_report(
    netlist: &Netlist,
    outputs: Vec<OutputDelay>,
    witness: Option<DelayWitness>,
    stats: SearchStats,
    first_error: Option<DelayError>,
) -> Result<DelayReport, DelayError> {
    let exact_max = outputs
        .iter()
        .filter(|o| o.is_exact())
        .map(|o| o.delay)
        .max()
        .unwrap_or(Time::ZERO);
    let bound_max = outputs
        .iter()
        .filter(|o| !o.is_exact())
        .map(|o| o.delay)
        .max();
    match (bound_max, first_error) {
        (Some(bound), Some(e)) if bound > exact_max => {
            // Some capped cone could dominate: only bounds are sound.
            Err(e.with_bounds(exact_max, bound))
        }
        _ => Ok(DelayReport {
            delay: exact_max,
            topological: netlist.topological_delay(),
            outputs,
            witness,
            stats,
        }),
    }
}

/// Raw witness parts: (before vector, after vector, per-node delays).
pub(crate) type WitnessParts = (Vec<bool>, Vec<bool>, Vec<Time>);

/// The 2-vector model as a [`DelayModel`] strategy (§7.3): test a
/// breakpoint interval by building the resolvent TBF, XOR-ing against
/// the settled function, and maximizing `t` over each difference cube's
/// induced linear program.
pub(crate) struct TwoVector;

impl DelayModel for TwoVector {
    fn test_at(
        &mut self,
        cx: &mut ConeContext,
        output: NodeId,
        window_lo: Time,
        b: Time,
        stats: &mut SearchStats,
    ) -> Result<Option<Hit>, DelayError> {
        let netlist = cx.netlist_arc();
        let query = cx
            .two_vector_query(output, b)
            .map_err(|e| e.into_error(b, &cx.budget))?;
        stats.resolvents += query.resolvents.len();
        stats.peak_bdd_nodes = stats.peak_bdd_nodes.max(cx.manager.node_count());
        cx.sample_memory(stats);
        tbf_obs::phase::record_peak_nodes(cx.manager.node_count() as u64);

        let found = check_interval(&netlist, cx, output, &query, window_lo, b, stats)?;
        Ok(found.map(|(t, w)| Hit {
            t,
            witness: Some(w),
        }))
    }
}

/// Checks one breakpoint interval `(window_lo, b]`; returns the exact
/// delay if the last output transition can fall inside it.
fn check_interval(
    netlist: &Netlist,
    cx: &mut ConeContext,
    output: NodeId,
    query: &QueryOut,
    window_lo: Time,
    b: Time,
    stats: &mut SearchStats,
) -> Result<Option<(Time, WitnessParts)>, DelayError> {
    let static_out = cx.static_out(output);
    let budget = cx.budget.clone();
    let abort = |a: OpAbort| match a {
        OpAbort::NodeLimit(e) => DelayError::BddTooLarge {
            limit: e.limit,
            at_breakpoint: b,
            bounds: (Time::ZERO, b),
        },
        OpAbort::Cancelled => budget.interrupt_error(b, (Time::ZERO, b)),
    };
    let bud = cx.budget.clone();
    let probe = move || bud.interrupted();
    let op_budget = OpBudget::with_cancel(cx.budget.max_bdd_nodes(), &probe);
    let xor = cx
        .manager
        .try_xor_b(query.f, static_out, &op_budget)
        .map_err(abort)?;
    if xor.is_false() {
        return Ok(None);
    }
    // Project onto the resolvent variables: the input values only need to
    // exist (inputs are arbitrary), so quantify them out and enumerate
    // resolution cubes only (§7.2's implicit enumeration).
    let input_vars = cx.input_vars.clone();
    let projected = cx
        .manager
        .try_exists_all_b(xor, &input_vars, &op_budget)
        .map_err(abort)?;
    debug_assert!(!projected.is_false(), "∃ of a non-false BDD");
    stats.peak_bdd_nodes = stats.peak_bdd_nodes.max(cx.manager.node_count());
    cx.sample_memory(stats);
    tbf_obs::phase::record_peak_nodes(cx.manager.node_count() as u64);

    // Dense LP variable space: every gate on any resolvent path.
    let mut gate_index: HashMap<NodeId, usize> = HashMap::new();
    let mut bounds: Vec<(i64, i64)> = Vec::new();
    for r in &query.resolvents {
        for &g in &r.gates {
            gate_index.entry(g).or_insert_with(|| {
                let d = netlist.node(g).delay();
                bounds.push((d.min.scaled(), d.max.scaled()));
                bounds.len() - 1
            });
        }
    }
    let paths: Vec<Vec<usize>> = query
        .resolvents
        .iter()
        .map(|r| r.gates.iter().map(|g| gate_index[g]).collect())
        .collect();

    // Materialize the cubes first: witness extraction below needs the
    // manager mutably. The cap bounds the allocation.
    let cubes = canonical_cubes(cx, projected, b)?;
    let mut best: Option<(Time, WitnessParts)> = None;
    for (cube_idx, cube) in cubes.iter().enumerate() {
        // LP chains can dominate a breakpoint; honor the budget here too.
        if cube_idx % 64 == 0 && cx.budget.check_now().is_some() {
            let lo = best.as_ref().map(|(t, _)| *t).unwrap_or(Time::ZERO);
            return Err(cx.budget.interrupt_error(b, (lo, b)));
        }
        let mut lp = PathLp::new(&bounds);
        lp.set_t_window(window_lo.scaled(), b.scaled());
        for (r, gates) in query.resolvents.iter().zip(&paths) {
            match cube.phase(r.var) {
                Some(true) => lp.t_greater_than(gates),
                Some(false) => lp.t_less_than(gates),
                None => {}
            }
        }
        stats.lps_solved += 1;
        if let PathLpOutcome::Feasible { t_sup, delays } = lp.solve() {
            let t = Time::from_scaled(t_sup);
            // Only transitions strictly inside the interval count; at or
            // below the window floor the valuation classification no
            // longer matches and the cube re-appears (correctly
            // re-classified) in a lower interval.
            if t > window_lo && best.as_ref().is_none_or(|(cur, _)| t > *cur) {
                let parts = extract_witness(
                    netlist,
                    cx,
                    query,
                    xor,
                    &lp,
                    &gate_index,
                    &paths,
                    b,
                    t_sup,
                    &delays,
                )?;
                let done = t == b;
                best = Some((t, parts));
                if done {
                    break; // cannot improve within this interval
                }
            }
        }
    }
    Ok(best)
}

/// Enumerates the difference cubes of `projected`, stopping at the
/// `max_cubes` cap.
///
/// Cube enumeration walks the ROBDD top-down, so the cube *sequence*
/// follows the variable order — and the sequence decides LP tie-breaks,
/// the early exit at `t = b`, and which cubes a `max_cubes` overflow
/// truncates. That order is the layout's creation order, so the sequence
/// is fixed by the cone alone.
pub(crate) fn canonical_cubes(
    cx: &ConeContext,
    projected: Bdd,
    b: Time,
) -> Result<Vec<Cube>, DelayError> {
    let max_cubes = cx.budget.max_cubes();
    let mut cubes = Vec::new();
    for cube in cx.manager.cubes(projected) {
        if cubes.len() >= max_cubes || fault::trip(Site::CubeEnum) {
            return Err(DelayError::TooManyCubes {
                limit: max_cubes,
                at_breakpoint: b,
                bounds: (Time::ZERO, b),
            });
        }
        cubes.push(cube);
    }
    Ok(cubes)
}

/// Derives a concrete sensitizing scenario for a winning cube.
///
/// The delay assignment comes from a strictly interior LP point near the
/// supremum, so every resolvent has a definite arrived/not-arrived value;
/// restricting the XOR BDD by that *total* valuation leaves a function of
/// the input variables whose any satisfying assignment genuinely realizes
/// the late transition (an input picked against a partial valuation could
/// silently depend on resolvent outcomes the delays contradict).
#[allow(clippy::too_many_arguments)]
fn extract_witness(
    netlist: &Netlist,
    cx: &mut ConeContext,
    query: &QueryOut,
    xor: tbf_bdd::Bdd,
    lp: &PathLp,
    gate_index: &HashMap<NodeId, usize>,
    paths: &[Vec<usize>],
    b: Time,
    t_sup: i64,
    sup_delays: &[i64],
) -> Result<WitnessParts, DelayError> {
    // Prefer an interior point one grid unit below the supremum; fall
    // back to the supremum vertex when the interior solve fails (the
    // scenario then sits on a valuation boundary and replays a hair
    // early, which the caller documents).
    let interior = if fault::trip(Site::LpInterior) {
        None
    } else {
        lp.solve_interior(t_sup - 1)
    };
    let (t_w, d_w) = interior.unwrap_or((t_sup, sup_delays.to_vec()));
    // Total resolvent valuation induced by (t_w, d_w).
    let mut g = xor;
    for (r, gates) in query.resolvents.iter().zip(paths) {
        let sum: i64 = gates.iter().map(|&gi| d_w[gi]).sum();
        let arrived = t_w > sum;
        g = cx.manager.restrict(g, r.var, arrived);
    }
    if g.is_false() {
        // Grid rounding pushed the point onto a boundary; retreat to the
        // partial (cube-only) restriction — still a valid input pair for
        // a nearby delay assignment.
        g = xor;
    }
    if fault::trip(Site::XorSat) {
        g = tbf_bdd::Bdd::FALSE;
    }
    // The lexicographically minimal satisfying cube in variable-identity
    // order: a deterministic pick among the satisfying inputs.
    let sat = cx.manager.min_sat_cube(g).ok_or(DelayError::Internal {
        detail: "witness extraction: xor BDD unsatisfiable in a feasible interval",
        at_breakpoint: b,
        bounds: (Time::ZERO, b),
    })?;
    let n_in = netlist.inputs().len();
    let mut before = vec![false; n_in];
    let mut after = vec![false; n_in];
    for pos in 0..n_in {
        if let Some(v) = sat.phase(cx.leaf_var(pos, true)) {
            after[pos] = v;
        }
        if let Some(v) = sat.phase(cx.leaf_var(pos, false)) {
            before[pos] = v;
        }
    }
    let mut delays: Vec<Time> = netlist.nodes().map(|(_, node)| node.delay().max).collect();
    for (&node, &idx) in gate_index {
        delays[node.index()] = Time::from_scaled(d_w[idx]);
    }
    Ok((before, after, delays))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbf_logic::generators::adders::paper_bypass_adder;
    use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3};
    use tbf_logic::generators::trees::parity_tree;
    use tbf_logic::{DelayBounds, GateKind};

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    fn opts() -> DelayOptions {
        DelayOptions::default()
    }

    #[test]
    fn single_buffer_fixed() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let g = b
            .gate(GateKind::Buf, "g", vec![x], DelayBounds::fixed(t(5)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let r = two_vector_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, t(5));
        assert_eq!(r.topological, t(5));
        assert_eq!(r.false_path_slack(), Time::ZERO);
    }

    #[test]
    fn single_buffer_bounded() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let g = b
            .gate(GateKind::Buf, "g", vec![x], DelayBounds::new(t(3), t(5)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let r = two_vector_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, t(5));
    }

    #[test]
    fn example3_delay_is_4() {
        let r = two_vector_delay(&figure4_example3(), &opts()).unwrap();
        assert_eq!(r.delay, t(4));
        assert_eq!(r.topological, t(4));
    }

    #[test]
    fn bypass_adder_delay_is_24() {
        let r = two_vector_delay(&paper_bypass_adder(), &opts()).unwrap();
        assert_eq!(r.topological, t(40));
        assert_eq!(r.delay, t(24), "the ripple-through path is false");
        assert_eq!(r.false_path_slack(), t(16));
    }

    #[test]
    fn parity_tree_has_no_false_paths() {
        let n = parity_tree(8, DelayBounds::new(Time::from_units(0.9), t(1)));
        let r = two_vector_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, r.topological);
        assert_eq!(r.delay, t(3));
    }

    #[test]
    fn figure1_reports_shorter_exact_delay_for_sensitizable_paths() {
        // The AND output: longest path is P1 (buffer [4,5] + AND 0).
        // P1's last transition is realizable (e.g. x2/x3 held
        // non-controlling), so the exact delay equals the topological 5.
        let r = two_vector_delay(&figure1_three_paths(), &opts()).unwrap();
        assert_eq!(r.topological, t(5));
        assert_eq!(r.delay, t(5));
    }

    #[test]
    fn constant_output_never_transitions() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let inv = b
            .gate(GateKind::Not, "inv", vec![x], DelayBounds::fixed(t(1)))
            .unwrap();
        let g = b
            .gate(GateKind::And, "g", vec![x, inv], DelayBounds::fixed(t(1)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        // x·x̄ = 0 statically; with fixed equal path delays the output
        // can still glitch? Paths: x→g [1,1] and x→inv→g [2,2]: different
        // lengths → a real glitch exists; last transition at 2.
        let r = two_vector_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, t(2));
    }

    #[test]
    fn truly_dead_output_has_zero_delay() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let c = b
            .gate(GateKind::Const0, "c", vec![], DelayBounds::ZERO)
            .unwrap();
        let g = b
            .gate(GateKind::And, "g", vec![x, c], DelayBounds::fixed(t(3)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let r = two_vector_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, Time::ZERO);
    }

    #[test]
    fn multi_output_takes_the_max() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let fast = b
            .gate(GateKind::Buf, "fast", vec![x], DelayBounds::fixed(t(2)))
            .unwrap();
        let slow = b
            .gate(GateKind::Not, "slow", vec![x], DelayBounds::fixed(t(7)))
            .unwrap();
        b.output("a", fast);
        b.output("b", slow);
        let n = b.finish().unwrap();
        let r = two_vector_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, t(7));
        assert_eq!(r.output_delay("a"), Some(t(2)));
        assert_eq!(r.output_delay("b"), Some(t(7)));
    }

    #[test]
    fn zero_time_budget_times_out_with_bounds() {
        let opts = DelayOptions {
            time_budget: Some(std::time::Duration::ZERO),
            ..DelayOptions::default()
        };
        let err = two_vector_delay(&paper_bypass_adder(), &opts).unwrap_err();
        match err {
            DelayError::TimedOut { bounds, .. } => {
                assert!(bounds.0 <= bounds.1);
                assert!(bounds.1 <= t(40));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn generous_time_budget_changes_nothing() {
        let opts = DelayOptions {
            time_budget: Some(std::time::Duration::from_secs(600)),
            ..DelayOptions::default()
        };
        let r = two_vector_delay(&paper_bypass_adder(), &opts).unwrap();
        assert_eq!(r.delay, t(24));
    }

    #[test]
    fn cancelled_token_yields_cancelled_error() {
        use crate::budget::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let budget = AnalysisBudget::from_options(&opts())
            .with_token(token)
            .shared();
        let err = two_vector_delay_budgeted(&paper_bypass_adder(), budget).unwrap_err();
        assert!(
            matches!(err, DelayError::Cancelled { .. }),
            "unexpected {err:?}"
        );
    }

    #[test]
    fn path_cap_produces_typed_error_with_bounds() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let mut bufs = Vec::new();
        for i in 0..10 {
            bufs.push(
                b.gate(
                    GateKind::Buf,
                    &format!("b{i}"),
                    vec![x],
                    DelayBounds::new(t(1), t(3)),
                )
                .unwrap(),
            );
        }
        let g = b
            .gate(GateKind::Xor, "g", bufs, DelayBounds::fixed(t(1)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let tight = DelayOptions {
            max_straddling_paths: 3,
            ..DelayOptions::default()
        };
        let err = two_vector_delay(&n, &tight).unwrap_err();
        match err {
            DelayError::TooManyPaths { limit, bounds, .. } => {
                assert_eq!(limit, 3);
                assert!(bounds.1 <= t(4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
