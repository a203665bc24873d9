//! The pluggable delay-model layer of the unified engine.
//!
//! Every exact delay model in the paper's taxonomy follows the same
//! computation shape (§7.3, §9.4): compile the cone once (a
//! [`ConeContext`] holds the BDD manager, statics and interned timed
//! variables), then sweep
//! the distinct maximum path lengths `{Kᵢᵐᵃˣ}` downward, testing at
//! each query point `t = b⁻` whether the timed function still differs
//! from the settled function. What varies between models is only *how*
//! a breakpoint is tested — resolvents plus linear programs for the
//! 2-vector delay, fresh free variables for ω⁻ — and whether the
//! netlist is transformed up front (the floating delay relaxes every
//! gate to `[0, dᵐᵃˣ]`).
//!
//! [`DelayModel`] captures exactly that variation; [`cone_delay`] and
//! [`delay_with_model`] own the shared sweep and report assembly. The
//! concrete strategies live next to their algorithms:
//! [`TwoVector`](crate::two_vector::TwoVector),
//! [`Sequences`](crate::sequences::Sequences) and
//! [`Floating`](crate::sequences::Floating).

use std::sync::Arc;

use tbf_logic::{Netlist, NodeId, Time};

use crate::budget::AnalysisBudget;
use crate::error::DelayError;
use crate::fault::{self, Site};
use crate::network::ConeContext;
use crate::report::{DelayReport, DelayWitness, OutputDelay, OutputStatus, SearchStats};
use crate::two_vector::{degraded_output, finish_report, WitnessParts};

/// A breakpoint interval test that succeeded: the last output transition
/// falls at `t`, optionally with a concrete sensitizing scenario.
pub(crate) struct Hit {
    /// The exact delay realized inside the tested interval.
    pub t: Time,
    /// Raw witness parts, when the model extracts scenarios.
    pub witness: Option<WitnessParts>,
}

/// One delay model of the paper's taxonomy, as a strategy plugged into
/// the shared breakpoint sweep.
///
/// Implementations are thin: all heavy state (manager, statics, timed
/// tables, caches) lives in the per-cone [`ConeContext`], so one model
/// value can serve many cones and rungs.
pub(crate) trait DelayModel {
    /// Transforms the netlist before compilation, or `None` to analyze
    /// it as given. The floating delay relaxes every gate to
    /// `[0, dᵐᵃˣ]` here (Theorems 1–4 reduce it to ω⁻ on the relaxed
    /// netlist).
    fn prepare(&self, _netlist: &Netlist) -> Option<Netlist> {
        None
    }

    /// The next query point strictly below `below`, or `None` when the
    /// sweep is exhausted. The default descends the cone's memoized
    /// `{Kᵢᵐᵃˣ}` enumeration; models with coarser sound grids may skip.
    fn breakpoints(&mut self, cx: &mut ConeContext, output: NodeId, below: Time) -> Option<Time> {
        cx.next_breakpoint(output, below)
    }

    /// Tests the interval `(window_lo, b]`: builds the model's timed
    /// function at `t = b⁻` through the context and decides whether the
    /// last output transition can fall inside the interval.
    fn test_at(
        &mut self,
        cx: &mut ConeContext,
        output: NodeId,
        window_lo: Time,
        b: Time,
        stats: &mut SearchStats,
    ) -> Result<Option<Hit>, DelayError>;

    /// Folds a hit into the final per-cone result. The default passes
    /// the hit through; models whose hits are suprema of open intervals
    /// need nothing more.
    fn certificate(&self, hit: Hit) -> (Time, Option<WitnessParts>) {
        (hit.t, hit.witness)
    }
}

/// The shared descending breakpoint sweep (§7.3 step structure): one
/// cone, one model, the context's budget. Exposed to the
/// [`analyze`](crate::analyze) driver so the degradation ladder can
/// retry and degrade per cone with any model on any rung.
///
/// The sweep starts at the top breakpoint, or at `resume` — a
/// breakpoint of this output where an earlier sweep of the same model
/// stopped. Every interval above `resume` then already tested
/// transition-free, and that answer holds under any cap.
pub(crate) fn cone_delay(
    model: &mut dyn DelayModel,
    cx: &mut ConeContext,
    output: NodeId,
    resume: Option<Time>,
    stats: &mut SearchStats,
) -> Result<(Time, Option<WitnessParts>), DelayError> {
    let mut b_opt = resume.or_else(|| model.breakpoints(cx, output, Time::MAX));
    while let Some(b) = b_opt {
        stats.breakpoints_visited += 1;
        if cx.budget.check_now().is_some() || fault::trip(Site::Breakpoint) {
            return Err(cx.budget.interrupt_error(b, (Time::ZERO, b)));
        }
        let lower_bp = model.breakpoints(cx, output, b);
        let window_lo = lower_bp.unwrap_or(Time::ZERO);
        if let Some(hit) = model.test_at(cx, output, window_lo, b, stats)? {
            return Ok(model.certificate(hit));
        }
        cx.maybe_compact()
            .map_err(|e| e.into_error(b, &cx.budget))?;
        b_opt = lower_bp;
    }
    // No interval ever differed: the output cannot transition at all.
    Ok((Time::ZERO, None))
}

/// Whole-circuit analysis under one model: compile each output's cone
/// once, sweep it with [`cone_delay`], degrade capped cones to sound
/// bounds, and fold the per-output results into a [`DelayReport`].
/// This is the single implementation behind
/// [`two_vector_delay`](crate::two_vector_delay),
/// [`sequences_delay`](crate::sequences_delay) and
/// [`floating_delay`](crate::floating_delay).
pub(crate) fn delay_with_model(
    netlist: &Netlist,
    budget: Arc<AnalysisBudget>,
    model: &mut dyn DelayModel,
) -> Result<DelayReport, DelayError> {
    let prepared = model.prepare(netlist);
    let netlist = prepared.as_ref().unwrap_or(netlist);
    let mut cx = ConeContext::new(Arc::new(netlist.clone()), budget.clone())
        .map_err(|e| e.into_error(netlist.topological_delay(), &budget))?;
    let mut stats = SearchStats::default();
    let mut outputs = Vec::new();
    let mut witness: Option<DelayWitness> = None;
    let mut witness_delay = Time::MIN;
    let mut first_error: Option<DelayError> = None;
    for (name, out_id) in netlist.outputs() {
        #[cfg(feature = "obs")]
        let _cone = budget
            .counters()
            .is_some()
            .then(|| crate::obs::RungSpan::open(&format!("cone:{name}"), &budget));
        match cone_delay(model, &mut cx, *out_id, None, &mut stats) {
            Ok((delay, w)) => {
                if delay > witness_delay {
                    if let Some((before, after, delays)) = w {
                        witness = Some(DelayWitness {
                            output: name.clone(),
                            before,
                            after,
                            delays,
                        });
                        witness_delay = delay;
                    }
                }
                outputs.push(OutputDelay {
                    name: name.clone(),
                    delay,
                    topological: netlist.topological_delay_of(*out_id),
                    status: OutputStatus::Exact,
                });
            }
            Err(e) => {
                // This cone hit a cap: keep its sound upper bound and move
                // on — if another output dominates it, the circuit-level
                // delay is still exact.
                let Some(entry) = degraded_output(netlist, name, *out_id, &e) else {
                    return Err(e); // netlist errors are not degradable
                };
                first_error.get_or_insert(e);
                outputs.push(entry);
            }
        }
    }
    finish_report(netlist, outputs, witness, stats, first_error)
}
