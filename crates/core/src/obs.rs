//! Run-scoped observability: the [`observe`] entry point that collects
//! effort counters and the phase tree for everything executed inside it.
//!
//! The instrumentation changes *nothing* about the analysis — counters
//! record deterministic logical work, phase spans record structure plus
//! volatile wall time — so every report produced under [`observe`] is
//! byte-identical to the same run outside it.
//!
//! # How the pieces connect
//!
//! * [`observe`] installs a thread-local *session* counter registry and
//!   a phase capture root, then runs the closure.
//! * Every [`AnalysisBudget`](crate::AnalysisBudget) built inside (all
//!   engine entry points build one) picks the session registry up and
//!   carries it — through [`fork`](crate::AnalysisBudget::fork) — to
//!   every cone on every worker thread.
//! * The engines install the registry on each `BddManager` they create,
//!   so the BDD hot-path counters land in the same place.
//! * A budget built outside `observe` carries no registry, and neither
//!   do its forks or the managers built on them: unobserved work counts
//!   nothing and opens no cone or rung span, and every counter hook
//!   costs one `None` check. (A request fork made inside a later
//!   `observe` binds that session.)
//! * Code that reports per unit of work it wraps in `observe` (a serve
//!   session's artifact row per frame) reads the registry back with
//!   [`session_counters`].
//! * The anytime driver captures a phase subtree per cone job on the
//!   worker that runs it and attaches the subtrees on the coordinating
//!   thread in netlist output order (merge-on-join), so the tree is
//!   independent of scheduling.
//!
//! # Example
//!
//! ```
//! use tbf_core::{analyze, AnalysisPolicy};
//! use tbf_logic::generators::adders::paper_bypass_adder;
//!
//! let adder = paper_bypass_adder();
//! let (report, obs) = tbf_core::obs::observe(|| {
//!     analyze(&adder, &AnalysisPolicy::default())
//! });
//! assert!(report.exact.is_some());
//! assert!(obs.counters.get(tbf_obs::Metric::IteCalls) > 0);
//! assert!(!obs.phases.is_empty());
//! ```

use std::cell::RefCell;
use std::sync::Arc;

use tbf_obs::{phase, Counters, PhaseNode};

thread_local! {
    static SESSION: RefCell<Option<Arc<Counters>>> = const { RefCell::new(None) };
}

/// The session registry installed by an enclosing [`observe`], if any.
/// [`AnalysisBudget::from_options`](crate::AnalysisBudget::from_options)
/// calls this so every budget created inside an observed run reports
/// into the run's registry, and every other budget into none.
pub fn session_counters() -> Option<Arc<Counters>> {
    SESSION.with(|s| s.borrow().clone())
}

/// Everything recorded by one [`observe`] call.
#[derive(Clone, Debug)]
pub struct RunObservation {
    /// The run's effort-counter registry (deterministic totals).
    pub counters: Arc<Counters>,
    /// The run's phase tree, merged on join in deterministic order.
    pub phases: Vec<PhaseNode>,
}

/// Restores the previous session registry even if the closure unwinds.
struct SessionGuard {
    previous: Option<Arc<Counters>>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SESSION.with(|s| *s.borrow_mut() = previous);
    }
}

/// Runs `f` with observability collection enabled and returns its result
/// together with the recorded [`RunObservation`].
///
/// Nesting replaces the outer session for the inner closure's duration;
/// the outer session resumes afterwards (inner work is counted only in
/// the inner registry).
pub fn observe<R>(f: impl FnOnce() -> R) -> (R, RunObservation) {
    let counters = Counters::shared();
    let guard = SessionGuard {
        previous: SESSION.with(|s| s.borrow_mut().replace(Arc::clone(&counters))),
    };
    let (r, phases) = phase::capture(f);
    drop(guard);
    (r, RunObservation { counters, phases })
}

/// A phase span that also books the budget polls consumed while it was
/// open (the delta of the cone-fork's poll counter) into its phase node.
/// Used for ladder rungs and per-output cone spans. Inert when the
/// budget carries no counter registry, the same test that decides
/// whether the anytime driver captures a cone's subtree, so a budget
/// built outside [`observe`] records no spans on any thread.
pub(crate) struct RungSpan<'b> {
    phase: Option<tbf_obs::Phase>,
    budget: &'b crate::AnalysisBudget,
    polls_at_entry: u64,
}

impl<'b> RungSpan<'b> {
    /// Opens the span; the name should be a stable rung or cone label.
    pub fn open(name: &str, budget: &'b crate::AnalysisBudget) -> RungSpan<'b> {
        RungSpan {
            phase: budget
                .counters()
                .is_some()
                .then(|| tbf_obs::Phase::enter(name)),
            budget,
            polls_at_entry: budget.poll_count(),
        }
    }
}

impl Drop for RungSpan<'_> {
    fn drop(&mut self) {
        // Runs before `phase` drops, so the span's frame is still the
        // innermost open one and receives the delta.
        if self.phase.is_some() {
            phase::record_budget_polls(
                self.budget.poll_count().saturating_sub(self.polls_at_entry),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ConeContext;
    use crate::{AnalysisBudget, CancelToken, DelayOptions};
    use tbf_obs::Metric;

    #[test]
    fn observe_installs_and_restores_the_session() {
        assert!(session_counters().is_none());
        let ((), obs) = observe(|| {
            assert!(session_counters().is_some());
        });
        assert!(session_counters().is_none());
        assert_eq!(obs.counters.get(Metric::IteCalls), 0);
    }

    #[test]
    fn nested_observe_shadows_the_outer_session() {
        let opts = DelayOptions::default();
        let ((), outer) = observe(|| {
            let outer_session = session_counters().expect("outer installed");
            let ((), inner) = observe(|| {
                let _ = AnalysisBudget::from_options(&opts).poll();
            });
            assert_eq!(inner.counters.get(Metric::BudgetPolls), 1);
            assert!(Arc::ptr_eq(
                &outer_session,
                &session_counters().expect("outer restored")
            ));
        });
        assert_eq!(outer.counters.get(Metric::BudgetPolls), 0);
    }

    /// The registry installed on the manager of a cone engine built on
    /// `budget`.
    fn cone_manager_counters(budget: AnalysisBudget) -> Option<Arc<Counters>> {
        let netlist = Arc::new(tbf_logic::generators::figures::figure1_three_paths());
        let cx = ConeContext::new(netlist, budget.shared()).expect("small circuit");
        cx.manager.counters().cloned()
    }

    #[test]
    fn budgets_inside_observe_share_the_registry() {
        let opts = DelayOptions::default();
        let ((), obs) = observe(|| {
            let session = session_counters().expect("observe installs a session");
            let budget = AnalysisBudget::from_options(&opts);
            let fork = budget.fork(&opts);
            let request = budget.fork_request(&opts, CancelToken::new());
            for b in [&budget, &fork, &request] {
                assert!(Arc::ptr_eq(b.counters().expect("observed"), &session));
            }
            let _ = fork.poll();
        });
        assert_eq!(obs.counters.get(Metric::BudgetPolls), 1);
        let (manager, obs) = observe(|| cone_manager_counters(AnalysisBudget::from_options(&opts)));
        assert!(Arc::ptr_eq(&manager.expect("observed"), &obs.counters));
    }

    #[test]
    fn unobserved_budgets_and_managers_carry_no_registry() {
        let opts = DelayOptions::default();
        let budget = AnalysisBudget::from_options(&opts);
        assert!(budget.counters().is_none());
        assert!(budget.fork(&opts).counters().is_none());
        let request = budget.fork_request(&opts, CancelToken::new());
        assert!(request.counters().is_none());
        assert!(cone_manager_counters(budget).is_none());
    }

    #[test]
    fn a_request_fork_binds_the_session_observing_it() {
        // A warm session's budget is built unobserved; the requests it
        // forks inside a later `observe` still report into that run.
        let opts = DelayOptions::default();
        let parent = AnalysisBudget::from_options(&opts);
        let ((request, fork), obs) = observe(|| {
            let request = parent.fork_request(&opts, CancelToken::new());
            let _ = request.poll();
            (request, parent.fork(&opts))
        });
        assert!(Arc::ptr_eq(
            request.counters().expect("bound"),
            &obs.counters
        ));
        assert_eq!(obs.counters.get(Metric::BudgetPolls), 1);
        assert!(fork.counters().is_none(), "a plain fork follows its parent");
    }
}
