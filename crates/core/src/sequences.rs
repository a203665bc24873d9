//! The exact delay-by-sequences-of-vectors engine (paper §8–§9).

use std::sync::Arc;

use tbf_logic::{Netlist, NodeId, Time};

use crate::budget::AnalysisBudget;
use crate::error::DelayError;
use crate::model::{delay_with_model, DelayModel, Hit};
use crate::network::ConeContext;
use crate::options::DelayOptions;
use crate::report::{DelayReport, SearchStats};

/// Computes the exact delay by sequences of vectors
/// `D(C, [dᵐⁱⁿ,dᵐᵃˣ], ω⁻)`: the latest possible arrival time of the last
/// output transition when an arbitrary train of input vectors ends with a
/// final vector at `t = 0`.
///
/// This is the paper's §9.4 algorithm: descend through the breakpoints
/// `{Kᵢᵐᵃˣ}`; at each query point replace settled TBF variables
/// (`kᵐᵃˣ < b`) by `x(0⁺)` and unsettled ones by fresh free Boolean
/// variables (distinct per distinct TBF variable, per the §9.1 worst-case
/// delay assignment); the first breakpoint where the TBF differs from the
/// static function is the exact delay. No linear programming is needed,
/// and by Theorem 3 the result is invariant under the gate-delay lower
/// bounds.
///
/// For circuits in which every gate has variable delay and no two paths
/// share a gate set, this equals the **floating** and **viability**
/// delays (Theorems 1–2); see [`floating_delay`].
///
/// # Errors
///
/// Returns a [`DelayError`] carrying sound bounds when a resource cap is
/// exceeded.
///
/// # Example
///
/// ```
/// use tbf_core::{sequences_delay, DelayOptions};
/// use tbf_logic::generators::figures::figure6_glitch;
/// use tbf_logic::{DelayBounds, Time};
///
/// // Figure 6 with fixed delays: the output never moves — delay 0 —
/// // while the floating delay (unbounded model) would be 2.
/// let fixed = figure6_glitch();
/// let r = sequences_delay(&fixed, &DelayOptions::default())?;
/// assert_eq!(r.delay, Time::ZERO);
///
/// // With variable delays the sequences delay rises to the floating
/// // delay (Theorem 2).
/// let variable = fixed.map_delays(|d| DelayBounds::new(d.max - Time::EPSILON, d.max));
/// let r = sequences_delay(&variable, &DelayOptions::default())?;
/// assert_eq!(r.delay, Time::from_int(2));
/// # Ok::<(), tbf_core::DelayError>(())
/// ```
pub fn sequences_delay(
    netlist: &Netlist,
    options: &DelayOptions,
) -> Result<DelayReport, DelayError> {
    sequences_delay_budgeted(netlist, AnalysisBudget::from_options(options).shared())
}

/// [`sequences_delay`] against a caller-supplied budget.
pub(crate) fn sequences_delay_budgeted(
    netlist: &Netlist,
    budget: Arc<AnalysisBudget>,
) -> Result<DelayReport, DelayError> {
    delay_with_model(netlist, budget, &mut Sequences)
}

/// The floating delay of the circuit under the unbounded gate delay model
/// `[0, dᵐᵃˣ]`.
///
/// By Theorem 3 the sequences delay is invariant in the lower bounds, and
/// by Theorems 1–2 and 4 it coincides with the floating and viability
/// delays whenever gate delays are genuinely variable — so this simply
/// relaxes every gate to `[0, dᵐᵃˣ]` (making every delay variable) and
/// runs [`sequences_delay`].
///
/// # Errors
///
/// As for [`sequences_delay`].
pub fn floating_delay(
    netlist: &Netlist,
    options: &DelayOptions,
) -> Result<DelayReport, DelayError> {
    delay_with_model(
        netlist,
        AnalysisBudget::from_options(options).shared(),
        &mut Floating,
    )
}

/// The ω⁻ model as a [`DelayModel`] strategy (§9.4): test a breakpoint
/// by building the sequences TBF (fresh free variables for unsettled
/// timed variables) and comparing it against the settled function — no
/// cube enumeration or linear programming. The
/// [`analyze`](crate::analyze) driver uses it as the sound upper-bound
/// rung of the degradation ladder (ω⁻ dominates the 2-vector delay).
pub(crate) struct Sequences;

impl DelayModel for Sequences {
    fn test_at(
        &mut self,
        cx: &mut ConeContext,
        output: NodeId,
        _window_lo: Time,
        b: Time,
        stats: &mut SearchStats,
    ) -> Result<Option<Hit>, DelayError> {
        let f = cx
            .sequences_query(output, b)
            .map_err(|e| e.into_error(b, &cx.budget))?;
        stats.peak_bdd_nodes = stats.peak_bdd_nodes.max(cx.manager.node_count());
        cx.sample_memory(stats);
        tbf_obs::phase::record_peak_nodes(cx.manager.node_count() as u64);
        // When the TBF still differs from the settled function, a
        // transition exists arbitrarily close below b (§9.3): the exact
        // delay (supremum) is b itself.
        let differs = f != cx.static_out(output);
        Ok(differs.then_some(Hit {
            t: b,
            witness: None,
        }))
    }
}

/// The floating-mode model: ω⁻ on the netlist with every gate relaxed
/// to `[0, dᵐᵃˣ]` (Theorems 1–4). Purely a [`prepare`] step — the sweep
/// and tests are exactly [`Sequences`] on the relaxed netlist.
///
/// [`prepare`]: DelayModel::prepare
pub(crate) struct Floating;

impl DelayModel for Floating {
    fn prepare(&self, netlist: &Netlist) -> Option<Netlist> {
        Some(netlist.map_delays(|d| tbf_logic::DelayBounds::unbounded(d.max)))
    }

    fn test_at(
        &mut self,
        cx: &mut ConeContext,
        output: NodeId,
        window_lo: Time,
        b: Time,
        stats: &mut SearchStats,
    ) -> Result<Option<Hit>, DelayError> {
        Sequences.test_at(cx, output, window_lo, b, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_vector::two_vector_delay;
    use tbf_logic::generators::adders::paper_bypass_adder;
    use tbf_logic::generators::figures::{figure4_example3, figure6_glitch};
    use tbf_logic::generators::trees::parity_tree;
    use tbf_logic::{DelayBounds, GateKind};

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    fn opts() -> DelayOptions {
        DelayOptions::default()
    }

    #[test]
    fn figure6_fixed_vs_variable() {
        // The paper's Example 5 head-to-head.
        let fixed = figure6_glitch();
        assert_eq!(sequences_delay(&fixed, &opts()).unwrap().delay, Time::ZERO);
        let variable = fixed.map_delays(|d| DelayBounds::new(d.max - Time::EPSILON, d.max));
        assert_eq!(sequences_delay(&variable, &opts()).unwrap().delay, t(2));
        // Floating delay is 2 in both cases (Theorem 4: invariant across
        // gate delay models).
        assert_eq!(floating_delay(&fixed, &opts()).unwrap().delay, t(2));
        assert_eq!(floating_delay(&variable, &opts()).unwrap().delay, t(2));
    }

    #[test]
    fn sequences_dominates_two_vector() {
        // ω⁻ includes vector pairs, so D(ω⁻) ≥ D(2).
        for n in [
            figure4_example3(),
            paper_bypass_adder(),
            parity_tree(6, DelayBounds::new(Time::from_units(0.9), t(1))),
        ] {
            let seq = sequences_delay(&n, &opts()).unwrap().delay;
            let two = two_vector_delay(&n, &opts()).unwrap().delay;
            assert!(seq >= two, "sequences {seq} < 2-vector {two}");
        }
    }

    #[test]
    fn lower_bound_invariance_theorem3() {
        // D(C,[dmin,dmax],ω⁻) must not depend on dmin (for dmin < dmax).
        let base = paper_bypass_adder();
        let d_of = |f: f64| {
            let n = base.map_delays(|d| DelayBounds::scaled_min(d.max, f));
            sequences_delay(&n, &opts()).unwrap().delay
        };
        let at_0 = d_of(0.0);
        let at_half = d_of(0.5);
        let at_90 = d_of(0.9);
        assert_eq!(at_0, at_half);
        assert_eq!(at_half, at_90);
    }

    #[test]
    fn bypass_adder_floating_delay() {
        // The floating delay of the §11 adder also sees the false path:
        // under single-vector floating-mode sensitization the ripple path
        // still cannot propagate the last transition past the bypass.
        let r = floating_delay(&paper_bypass_adder(), &opts()).unwrap();
        assert!(r.delay <= r.topological);
        let two = two_vector_delay(&paper_bypass_adder(), &opts())
            .unwrap()
            .delay;
        assert!(r.delay >= two);
    }

    #[test]
    fn parity_tree_sequences_equals_topological() {
        let n = parity_tree(8, DelayBounds::new(Time::from_units(0.9), t(1)));
        let r = sequences_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, r.topological);
    }

    #[test]
    fn chain_delay_is_sum_of_max() {
        let mut b = Netlist::builder();
        let mut cur = b.input("x");
        for i in 0..5 {
            cur = b
                .gate(
                    GateKind::Not,
                    &format!("g{i}"),
                    vec![cur],
                    DelayBounds::new(t(1), t(2)),
                )
                .unwrap();
        }
        b.output("f", cur);
        let n = b.finish().unwrap();
        let r = sequences_delay(&n, &opts()).unwrap();
        assert_eq!(r.delay, t(10));
    }

    #[test]
    fn multi_output_reports_per_output() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let f1 = b
            .gate(GateKind::Buf, "f1", vec![x], DelayBounds::new(t(1), t(2)))
            .unwrap();
        let f2 = b
            .gate(GateKind::Not, "f2", vec![f1], DelayBounds::new(t(1), t(3)))
            .unwrap();
        b.output("a", f1);
        b.output("b", f2);
        let n = b.finish().unwrap();
        let r = sequences_delay(&n, &opts()).unwrap();
        assert_eq!(r.output_delay("a"), Some(t(2)));
        assert_eq!(r.output_delay("b"), Some(t(5)));
        assert_eq!(r.delay, t(5));
    }
}
