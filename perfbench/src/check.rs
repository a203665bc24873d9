//! Answer checks. They run outside every timed interval, and apart from
//! the pinned values none of them trusts the engine: the witness is
//! replayed in the simulator, bounds are compared with the topological
//! delay, and small cones are compared with the exhaustive floating
//! oracle.

use std::time::Instant;

use tbf_core::oracle::floating_delay_oracle;
use tbf_core::CircuitReport;
use tbf_logic::transform::extract_cone_slice;
use tbf_logic::{Netlist, Time};
use tbf_sim::{simulate, Stimulus};

use crate::expected::Verdict;

/// Cones with at most this many primary inputs are checked against the
/// exhaustive floating-delay oracle.
const ORACLE_MAX_INPUTS: usize = 12;

/// What the simulator replays cost, for the traced run.
#[derive(Default)]
pub struct ReplayCost {
    pub seconds: f64,
    pub replays: u64,
}

/// Compares every output with its pinned verdict: same names in the
/// same order, same bounds, exact exactly when the bounds meet.
pub fn pinned(report: &CircuitReport, expected: &[Verdict]) -> Vec<String> {
    let mut errors = Vec::new();
    if report.outputs.len() != expected.len() {
        errors.push(format!(
            "{} outputs, expected {}",
            report.outputs.len(),
            expected.len()
        ));
        return errors;
    }
    for (o, &(name, lower, upper)) in report.outputs.iter().zip(expected) {
        let (lo, hi) = o.bounds();
        if o.name != name || lo.scaled() != lower || hi.scaled() != upper {
            errors.push(format!(
                "output `{}` is [{lo}, {hi}], expected `{name}` in [{}, {}]",
                o.name,
                Time::from_scaled(lower),
                Time::from_scaled(upper)
            ));
        } else if o.is_exact() != (lower == upper) {
            errors.push(format!(
                "output `{name}` exactness differs from the pinned verdict"
            ));
        }
    }
    errors
}

/// The engine-independent checks on one report of `netlist`.
pub fn independent(
    netlist: &Netlist,
    report: &CircuitReport,
    cost: &mut ReplayCost,
) -> Vec<String> {
    let mut errors = Vec::new();
    if report.outputs.len() != netlist.outputs().len() {
        errors.push("report and netlist disagree on the outputs".to_owned());
        return errors;
    }
    for (i, (o, (_, node))) in report.outputs.iter().zip(netlist.outputs()).enumerate() {
        let (lower, upper) = o.bounds();
        let topological = netlist.topological_delay_of(*node);
        if !(lower <= o.delay && o.delay <= upper && upper <= topological) {
            errors.push(format!(
                "output `{}`: lower {lower} <= delay {} <= upper {upper} <= topological \
                 {topological} does not hold",
                o.name, o.delay
            ));
        }
        let cone = extract_cone_slice(netlist, i).netlist;
        if cone.inputs().len() <= ORACLE_MAX_INPUTS {
            if let Ok(floating) = floating_delay_oracle(&cone) {
                // The floating delay bounds the 2-vector delay from above,
                // so it bounds an exact delay and any sound lower bound.
                if lower > floating {
                    errors.push(format!(
                        "output `{}`: {lower} exceeds the floating-delay oracle {floating}",
                        o.name
                    ));
                }
            }
        }
    }
    let needs_witness = report
        .outputs
        .iter()
        .any(|o| o.is_exact() && o.delay > Time::ZERO);
    match &report.witness {
        Some(w) => {
            let started = Instant::now();
            let found = netlist
                .outputs()
                .iter()
                .zip(&report.outputs)
                .find(|((name, _), _)| *name == w.output);
            let Some(((_, node), o)) = found else {
                errors.push(format!("the witness names no output `{}`", w.output));
                return errors;
            };
            let stimulus = Stimulus::vector_pair(&w.before, &w.after);
            let sim = simulate(netlist, &w.delays, &stimulus.waveforms(netlist));
            let last = sim.waveform(*node).last_transition();
            cost.seconds += started.elapsed().as_secs_f64();
            cost.replays += 1;
            let close = last.is_some_and(|t| (t.scaled() - o.delay.scaled()).abs() <= 1);
            if !o.is_exact() || !close {
                errors.push(format!(
                    "witness on `{}` replays to a last transition at {last:?}, reported exact \
                     delay {}",
                    w.output, o.delay
                ));
            }
        }
        None if needs_witness => {
            errors.push("an exact nonzero delay came without a witness".to_owned())
        }
        None => {}
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbf_core::{analyze, AnalysisPolicy};
    use tbf_logic::generators::adders::paper_bypass_adder;

    #[test]
    fn the_paper_adder_passes_every_check() {
        let n = paper_bypass_adder();
        let r = analyze(&n, &AnalysisPolicy::default());
        assert!(pinned(&r, &[("cout", 240_000, 240_000)]).is_empty());
        let mut cost = ReplayCost::default();
        assert_eq!(independent(&n, &r, &mut cost), Vec::<String>::new());
        assert_eq!(cost.replays, 1);
    }

    #[test]
    fn a_perturbed_pin_fails() {
        let n = paper_bypass_adder();
        let r = analyze(&n, &AnalysisPolicy::default());
        assert_eq!(pinned(&r, &[("cout", 240_001, 240_001)]).len(), 1);
        assert_eq!(pinned(&r, &[("cout", 230_000, 240_000)]).len(), 1);
        assert_eq!(pinned(&r, &[("carry", 240_000, 240_000)]).len(), 1);
        assert_eq!(pinned(&r, &[]).len(), 1);
    }

    #[test]
    fn a_report_above_the_oracle_or_topology_fails() {
        let n = paper_bypass_adder();
        let mut r = analyze(&n, &AnalysisPolicy::default());
        r.outputs[0].delay = Time::from_int(41);
        let mut cost = ReplayCost::default();
        let errors = independent(&n, &r, &mut cost);
        assert!(errors.len() >= 2, "{errors:?}");
    }
}
