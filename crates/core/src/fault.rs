//! Deterministic fault injection for exercising the degradation ladder.
//!
//! Tests arm a thread-local `FaultPlan` naming *injection sites*
//! ([`Site`]) and hit counts; the engines consult `trip` at those sites
//! and fail exactly where the plan says, letting tests walk every error
//! variant and every ladder rung without constructing pathological
//! circuits.
//!
//! The harness is always compiled in. An unarmed site costs one read of
//! a const-initialised thread-local flag that `with_plan` keeps equal
//! to "this thread's plan is non-empty": while it is clear, `trip`,
//! `snapshot` and an empty `with_plan` return at once.
//!
//! Plans are per-thread and scoped: `with_plan` arms the plan, runs
//! the closure, and disarms on exit (including on panic), so one test
//! cannot leak faults into another.

use std::cell::{Cell, RefCell};

/// A named injection point inside the analysis pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// Inside a budgeted BDD operation (forces `BddTooLarge`).
    BddOp,
    /// During straddling-path discovery (forces `TooManyPaths`).
    PathCollect,
    /// During difference-cube enumeration (forces `TooManyCubes`).
    CubeEnum,
    /// At the top of a breakpoint iteration (forces deadline expiry —
    /// `TimedOut`).
    Breakpoint,
    /// At the start of an output cone (panics, for exercising panic
    /// isolation).
    ConeStart,
    /// Before the interior LP solve in witness extraction (forces the
    /// documented supremum-vertex fallback).
    LpInterior,
    /// Before the XOR satisfiability read in witness extraction (forces
    /// the internal-invariant error path).
    XorSat,
    /// While decoding a service request frame (`tbf serve`): forces the
    /// malformed-frame error path without needing malformed input.
    FrameParse,
    /// Right after a service request is admitted: cancels the request's
    /// token mid-flight, exercising the cancellation drain path.
    RequestCancel,
    /// After a service request completes: poisons the request's
    /// warm-cache entries so they are evicted and rebuilt rather than
    /// served stale.
    CachePoison,
}

/// One armed fault: fires on the `after`-th hit of its site
/// (0 = first hit), then disarms.
#[derive(Clone, Copy, Debug)]
struct Armed {
    site: Site,
    after: usize,
    hits: usize,
    fired: bool,
}

thread_local! {
    static PLAN: RefCell<Vec<Armed>> = const { RefCell::new(Vec::new()) };
    /// Whether `PLAN` is non-empty: the one read an unarmed site pays.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn armed() -> bool {
    ARMED.with(Cell::get)
}

/// A deterministic set of faults to arm for the duration of a
/// [`with_plan`] scope.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    armed: Vec<(Site, usize)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `site` to fire once, on its `after`-th hit (0-based).
    #[must_use]
    pub fn once_at(mut self, site: Site, after: usize) -> Self {
        self.armed.push((site, after));
        self
    }

    /// Arms `site` to fire on its first hit.
    #[must_use]
    pub fn once(self, site: Site) -> Self {
        self.once_at(site, 0)
    }
}

/// RAII guard restoring the previous plan, and the flag with it, when a
/// scope ends.
struct PlanGuard {
    previous: Vec<Armed>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(!self.previous.is_empty()));
        PLAN.with(|p| *p.borrow_mut() = std::mem::take(&mut self.previous));
    }
}

/// Runs `f` with `plan` armed on this thread; the previous plan is
/// restored on exit, even if `f` panics. An empty plan still shelves an
/// armed outer plan for the scope; with nothing armed it runs `f`
/// directly.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    if plan.armed.is_empty() && !armed() {
        return f();
    }
    let faults: Vec<Armed> = plan
        .armed
        .into_iter()
        .map(|(site, after)| Armed {
            site,
            after,
            hits: 0,
            fired: false,
        })
        .collect();
    ARMED.with(|a| a.set(!faults.is_empty()));
    let guard = PlanGuard {
        previous: PLAN.with(|p| std::mem::replace(&mut *p.borrow_mut(), faults)),
    };
    let r = f();
    drop(guard);
    r
}

/// Captures the calling thread's plan as a re-armable template: the
/// `(site, after)` pairs of every fault that has not yet fired.
///
/// The parallel driver snapshots once at `analyze()` entry and re-arms
/// a fresh copy per cone job, so each cone sees the same deterministic
/// fault schedule regardless of worker count or scheduling order; a
/// service loop snapshots once per retry attempt so one-shot faults stay
/// spent across retries.
#[must_use]
pub fn snapshot() -> FaultPlan {
    if !armed() {
        return FaultPlan::new();
    }
    FaultPlan {
        armed: PLAN.with(|p| {
            p.borrow()
                .iter()
                .filter(|a| !a.fired)
                .map(|a| (a.site, a.after))
                .collect()
        }),
    }
}

/// Records a hit at `site`; returns `true` exactly when an armed fault
/// fires here.
#[inline]
pub fn trip(site: Site) -> bool {
    armed() && trip_armed(site)
}

/// [`trip`] on a thread with a plan armed, kept out of line so that the
/// engines' inner loops carry only the flag read.
#[cold]
#[inline(never)]
fn trip_armed(site: Site) -> bool {
    PLAN.with(|p| {
        let mut plan = p.borrow_mut();
        for a in plan.iter_mut() {
            if a.site != site || a.fired {
                continue;
            }
            let hit = a.hits;
            a.hits += 1;
            if hit == a.after {
                a.fired = true;
                return true;
            }
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With no plan armed, the production state, no site ever fires.
    #[test]
    fn disabled_trip_is_always_false() {
        assert!(!trip(Site::BddOp));
        assert!(!trip(Site::ConeStart));
        assert!(snapshot().armed.is_empty());
    }

    #[test]
    fn fires_once_at_the_requested_hit() {
        with_plan(FaultPlan::new().once_at(Site::Breakpoint, 2), || {
            assert!(!trip(Site::Breakpoint)); // hit 0
            assert!(!trip(Site::Breakpoint)); // hit 1
            assert!(trip(Site::Breakpoint)); // hit 2 fires
            assert!(!trip(Site::Breakpoint)); // disarmed
            assert!(!trip(Site::BddOp)); // other sites unaffected
        });
    }

    #[test]
    fn plan_is_scoped_and_panic_safe() {
        let result = std::panic::catch_unwind(|| {
            with_plan(FaultPlan::new().once(Site::ConeStart), || {
                panic!("boom");
            })
        });
        assert!(result.is_err());
        // The plan armed inside the scope must be gone, flag included.
        assert!(!armed());
        assert!(!trip(Site::ConeStart));
    }

    #[test]
    fn snapshot_rearms_per_cone() {
        with_plan(FaultPlan::new().once(Site::BddOp), || {
            let template = snapshot();
            // Two "cones" each see the one-shot fault fresh.
            for _ in 0..2 {
                with_plan(template.clone(), || {
                    assert!(trip(Site::BddOp));
                    assert!(!trip(Site::BddOp));
                });
            }
            // The outer plan was shelved during the cone scopes, so its
            // own one-shot is still live.
            assert!(trip(Site::BddOp));
            // A fired fault drops out of later snapshots.
            assert!(snapshot().armed.is_empty());
        });
    }

    #[test]
    fn an_empty_plan_shelves_an_armed_outer_plan() {
        with_plan(FaultPlan::new().once(Site::CubeEnum), || {
            with_plan(FaultPlan::new(), || {
                assert!(!armed());
                assert!(!trip(Site::CubeEnum), "the outer fault is shelved");
            });
            assert!(trip(Site::CubeEnum), "and fires once the scope ends");
        });
        assert!(!armed());
    }

    #[test]
    fn multiple_sites_fire_independently() {
        with_plan(
            FaultPlan::new().once(Site::BddOp).once(Site::CubeEnum),
            || {
                assert!(trip(Site::BddOp));
                assert!(trip(Site::CubeEnum));
                assert!(!trip(Site::BddOp));
            },
        );
    }
}
