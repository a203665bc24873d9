//! An independent floating-delay oracle by ternary (X-valued)
//! simulation.
//!
//! Classic floating-mode analysis (McGeer–Brayton, Chen–Du): under the
//! unbounded gate delay model `[0, dᵐᵃˣ]` and a single applied vector
//! `v`, with all node values unknown beforehand, a gate's output becomes
//! *determined* at the earliest instant the already-settled subset of its
//! fanins forces its value regardless of the unsettled ones; the gate's
//! settle time is its maximum delay past that instant:
//!
//! ```text
//! T(input) = 0
//! T(g)     = dᵐᵃˣ_g + min { τ : fanins settled by τ force g under v }
//! ```
//!
//! The floating delay of the circuit is the maximum settle time over all
//! input vectors — an **exponential** enumeration, implemented here as a
//! brute-force oracle to cross-validate the symbolic
//! [`floating_delay`](crate::floating_delay) engine on small circuits
//! (see `crates/core/tests/props.rs`).

use tbf_logic::{GateKind, Netlist, Time};

/// Ternary value for X-propagation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ternary {
    False,
    True,
    Unknown,
}

impl Ternary {
    fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::True
        } else {
            Ternary::False
        }
    }

    fn is_known(self) -> bool {
        self != Ternary::Unknown
    }
}

/// Evaluates a gate over ternary inputs: returns a binary value only if
/// every completion of the unknowns agrees. `groups[i]` identifies the
/// *node* behind pin `i`: pins tied to the same unsettled node share one
/// unknown (a node holds a single value, even an arbitrary one — the
/// distinction behind Example 5's correlations).
fn eval_ternary(kind: GateKind, inputs: &[Ternary], groups: &[usize]) -> Ternary {
    debug_assert_eq!(inputs.len(), groups.len());
    let mut unknown_groups: Vec<usize> = inputs
        .iter()
        .zip(groups)
        .filter(|(v, _)| !v.is_known())
        .map(|(_, &g)| g)
        .collect();
    unknown_groups.sort_unstable();
    unknown_groups.dedup();
    if unknown_groups.is_empty() {
        let concrete: Vec<bool> = inputs.iter().map(|&v| v == Ternary::True).collect();
        return Ternary::from_bool(kind.eval(&concrete));
    }
    // Small counts: try both phases of each unknown node exhaustively.
    if unknown_groups.len() <= 16 {
        let mut first: Option<bool> = None;
        for mask in 0..(1u32 << unknown_groups.len()) {
            let concrete: Vec<bool> = inputs
                .iter()
                .zip(groups)
                .map(|(&v, &g)| match v {
                    Ternary::True => true,
                    Ternary::False => false,
                    Ternary::Unknown => {
                        let j = unknown_groups.binary_search(&g).expect("group is unknown");
                        (mask >> j) & 1 == 1
                    }
                })
                .collect();
            let out = kind.eval(&concrete);
            match first {
                None => first = Some(out),
                Some(f) if f != out => return Ternary::Unknown,
                Some(_) => {}
            }
        }
        Ternary::from_bool(first.expect("at least one completion"))
    } else {
        Ternary::Unknown
    }
}

/// Floating settle time of every node for one input vector (the inner
/// recursion above), plus the final values.
fn settle_times(netlist: &Netlist, vector: &[bool]) -> Vec<Time> {
    let mut settle = vec![Time::MAX; netlist.len()];
    let final_values = netlist.evaluate(vector);
    for (id, node) in netlist.nodes() {
        let i = id.index();
        settle[i] = match node.kind() {
            GateKind::Input => Time::ZERO,
            GateKind::Const0 | GateKind::Const1 => Time::ZERO,
            kind => {
                // Candidate instants: the settle times of the fanins, in
                // ascending order (plus 0 for "already forced" covers
                // constant-output gates with no settled fanin — cannot
                // happen for nontrivial kinds, but harmless).
                let fanins = node.fanins();
                let mut taus: Vec<Time> = fanins.iter().map(|f| settle[f.index()]).collect();
                taus.sort_unstable();
                taus.dedup();
                let groups: Vec<usize> = fanins.iter().map(|f| f.index()).collect();
                let mut determined_at = None;
                for &tau in std::iter::once(&Time::ZERO).chain(taus.iter()) {
                    let ternary: Vec<Ternary> = fanins
                        .iter()
                        .map(|f| {
                            if settle[f.index()] <= tau {
                                Ternary::from_bool(final_values[f.index()])
                            } else {
                                Ternary::Unknown
                            }
                        })
                        .collect();
                    if eval_ternary(kind, &ternary, &groups).is_known() {
                        determined_at = Some(tau);
                        break;
                    }
                }
                let tau = determined_at.expect("all fanins settled forces the gate");
                tau + node.delay().max
            }
        };
    }
    settle
}

/// Hard input-count cap for [`floating_delay_oracle`]: past this the
/// `2^n` enumeration is no longer an oracle, just a heater.
pub const ORACLE_INPUT_CAP: usize = 24;

/// The typed refusal of [`floating_delay_oracle`] on circuits whose
/// input count makes the `2^n` enumeration intractable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleTooLarge {
    /// The circuit's primary input count.
    pub inputs: usize,
    /// The cap it exceeded ([`ORACLE_INPUT_CAP`]).
    pub cap: usize,
}

impl std::fmt::Display for OracleTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oracle is exponential; {} inputs exceeds the cap of {}",
            self.inputs, self.cap
        )
    }
}

impl std::error::Error for OracleTooLarge {}

/// The exact floating delay by brute force: maximum settle time over all
/// `2^n` input vectors under the unbounded gate delay model.
///
/// Exponential in the input count — a ground-truth oracle for testing
/// the symbolic engine, not a production algorithm.
///
/// # Errors
///
/// Returns [`OracleTooLarge`] when the netlist has more than
/// [`ORACLE_INPUT_CAP`] inputs, so harnesses can skip (rather than
/// crash on) circuits the oracle cannot check.
pub fn floating_delay_oracle(netlist: &Netlist) -> Result<Time, OracleTooLarge> {
    let n = netlist.inputs().len();
    if n > ORACLE_INPUT_CAP {
        return Err(OracleTooLarge {
            inputs: n,
            cap: ORACLE_INPUT_CAP,
        });
    }
    let mut worst = Time::ZERO;
    for bits in 0..(1u64 << n) {
        let vector: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
        let settle = settle_times(netlist, &vector);
        for &(_, out) in netlist.outputs() {
            // An output that is already forced with no dependence on the
            // vector still "settles" at its determination time; the
            // floating delay counts the worst over outputs.
            worst = worst.max(settle[out.index()]);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{floating_delay, DelayOptions};
    use tbf_logic::generators::adders::paper_bypass_adder;
    use tbf_logic::generators::figures::{figure4_example3, figure6_glitch};
    use tbf_logic::{DelayBounds, GateKind};

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    #[test]
    fn ternary_evaluation() {
        use Ternary::*;
        let g2 = [0usize, 1];
        let g3 = [0usize, 1, 2];
        // AND with a controlling 0 is determined despite unknowns.
        assert_eq!(eval_ternary(GateKind::And, &[False, Unknown], &g2), False);
        assert_eq!(eval_ternary(GateKind::And, &[True, Unknown], &g2), Unknown);
        assert_eq!(eval_ternary(GateKind::Or, &[True, Unknown], &g2), True);
        assert_eq!(eval_ternary(GateKind::Xor, &[True, Unknown], &g2), Unknown);
        assert_eq!(eval_ternary(GateKind::Not, &[Unknown], &[0]), Unknown);
        assert_eq!(eval_ternary(GateKind::Not, &[False], &[0]), True);
        // MAJ determined by two agreeing knowns.
        assert_eq!(
            eval_ternary(GateKind::Maj, &[True, True, Unknown], &g3),
            True
        );
        assert_eq!(
            eval_ternary(GateKind::Maj, &[True, False, Unknown], &g3),
            Unknown
        );
        // MUX with both data equal is determined despite unknown select.
        assert_eq!(
            eval_ternary(GateKind::Mux, &[Unknown, True, True], &g3),
            True
        );
        assert_eq!(
            eval_ternary(GateKind::Mux, &[Unknown, True, False], &g3),
            Unknown
        );
        // Same-node pins share one unknown: XOR(a, a) = 0, AND(a, a) = a.
        assert_eq!(
            eval_ternary(GateKind::Xor, &[Unknown, Unknown], &[7, 7]),
            False
        );
        assert_eq!(
            eval_ternary(GateKind::And, &[Unknown, Unknown], &[7, 7]),
            Unknown
        );
        // Distinct nodes stay independent: XOR(a, b) unknown.
        assert_eq!(
            eval_ternary(GateKind::Xor, &[Unknown, Unknown], &[7, 8]),
            Unknown
        );
    }

    #[test]
    fn chain_settles_at_topological() {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let g1 = b
            .gate(GateKind::Not, "g1", vec![x], DelayBounds::unbounded(t(2)))
            .unwrap();
        let g2 = b
            .gate(GateKind::Buf, "g2", vec![g1], DelayBounds::unbounded(t(3)))
            .unwrap();
        b.output("f", g2);
        let n = b.finish().unwrap();
        assert_eq!(floating_delay_oracle(&n).unwrap(), t(5));
    }

    #[test]
    fn controlling_value_shortens_settling() {
        // AND(slow-buffer(x), y): with y = 0 the output settles at the
        // AND's own delay; with y = 1 it waits for the slow side.
        let mut b = Netlist::builder();
        let x = b.input("x");
        let y = b.input("y");
        let slow = b
            .gate(
                GateKind::Buf,
                "slow",
                vec![x],
                DelayBounds::unbounded(t(10)),
            )
            .unwrap();
        let g = b
            .gate(
                GateKind::And,
                "g",
                vec![slow, y],
                DelayBounds::unbounded(t(1)),
            )
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        // Worst vector keeps y non-controlling: 10 + 1.
        assert_eq!(floating_delay_oracle(&n).unwrap(), t(11));
    }

    #[test]
    fn figure6_oracle_is_2() {
        // Fig. 6's floating delay is 2 (Theorem 4: whatever the bounds).
        assert_eq!(floating_delay_oracle(&figure6_glitch()).unwrap(), t(2));
    }

    #[test]
    fn oracle_matches_engine_on_figure4() {
        let n = figure4_example3();
        let engine = floating_delay(&n, &DelayOptions::default()).unwrap().delay;
        assert_eq!(floating_delay_oracle(&n).unwrap(), engine);
    }

    #[test]
    fn oracle_matches_engine_on_bypass_adder() {
        let n = paper_bypass_adder();
        let engine = floating_delay(&n, &DelayOptions::default()).unwrap().delay;
        assert_eq!(floating_delay_oracle(&n).unwrap(), engine);
    }

    #[test]
    fn too_many_inputs_is_a_typed_error() {
        use tbf_logic::generators::trees::parity_tree;
        let n = parity_tree(25, DelayBounds::unbounded(t(1)));
        let err = floating_delay_oracle(&n).unwrap_err();
        assert_eq!(
            err,
            OracleTooLarge {
                inputs: 25,
                cap: ORACLE_INPUT_CAP
            }
        );
        assert!(err.to_string().contains("exponential"), "{err}");
        // It is a std error, so harnesses can `?` it.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("25"));
    }

    #[test]
    fn oracle_cap_boundary_is_inclusive() {
        use tbf_logic::generators::trees::parity_tree;
        // Exactly at the cap the oracle must still run (on a cheap
        // netlist shape this stays fast: the bottleneck is 2^n vectors
        // times a linear sweep, so keep n small here and only check the
        // *refusal* boundary arithmetic).
        let err =
            floating_delay_oracle(&parity_tree(25, DelayBounds::unbounded(t(1)))).unwrap_err();
        assert_eq!(err.cap, 24);
        assert!(floating_delay_oracle(&parity_tree(4, DelayBounds::unbounded(t(1)))).is_ok());
    }

    #[test]
    fn oracle_cross_checks_c17() {
        // End-to-end: the ISCAS-85 c17 under MCNC-like delays, run
        // through the symbolic floating-delay engine, cross-checked
        // against the brute-force ternary oracle. c17 has 5 inputs, so
        // the oracle is exact and cheap.
        let n = tbf_logic::parsers::bench::c17(tbf_logic::parsers::mcnc_like_delays);
        let engine = floating_delay(&n, &DelayOptions::default()).unwrap().delay;
        assert_eq!(floating_delay_oracle(&n).unwrap(), engine);
    }
}
