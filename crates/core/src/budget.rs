//! Shared analysis budget: resource caps, a wall-clock deadline, and a
//! cooperative cancellation token, polled at allocation granularity
//! inside the BDD operations.
//!
//! One [`AnalysisBudget`] is threaded through a whole analysis — the
//! engine, the breakpoint loops, the cube/LP loops and (via a cancel
//! probe) every budgeted BDD operation. The caps are interior-mutable
//! (atomics, so budgets are `Send + Sync` and per-cone workers can carry
//! them across threads) so the degradation ladder can
//! [`escalate`](AnalysisBudget::escalate) them between retry rungs
//! without rebuilding the budget, and the deadline/token state is
//! *sticky*: once an interrupt fires, every subsequent poll reports it
//! until the analysis unwinds.
//!
//! The parallel driver gives every cone its own budget via
//! [`fork`](AnalysisBudget::fork): caps start fresh from the options (so
//! one cone's retry escalation can never leak into a sibling's caps),
//! while the epoch, deadline and token are shared so wall-clock budgets
//! and Ctrl-C cut across all workers at once.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tbf_logic::Time;

use crate::error::DelayError;
use crate::options::DelayOptions;

/// Poll granularity for the wall clock: reading `Instant::now()` on
/// every BDD allocation would dominate small operations, so only every
/// `CLOCK_STRIDE`-th poll consults the clock. The cancel token (an
/// atomic load) is checked on every poll.
const CLOCK_STRIDE: u64 = 32;

/// A cloneable, thread-safe cooperative cancellation handle.
///
/// Hand a clone to another thread (or a ctrl-C handler) and call
/// [`cancel`](CancelToken::cancel); every analysis polling a budget
/// carrying this token stops at the next allocation-granularity check
/// and degrades its in-flight cones instead of erroring.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What cut an analysis short (distinct from resource caps, which are
/// per-cone and carry their own error variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Interrupt {
    /// The wall-clock deadline derived from
    /// [`DelayOptions::time_budget`] passed.
    Deadline,
    /// A [`CancelToken`] fired.
    Cancelled,
}

/// Sticky interrupt state, packed into an `AtomicU8` so budgets stay
/// `Sync` without locks.
const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_CANCELLED: u8 = 2;

fn decode_trip(raw: u8) -> Option<Interrupt> {
    match raw {
        TRIP_DEADLINE => Some(Interrupt::Deadline),
        TRIP_CANCELLED => Some(Interrupt::Cancelled),
        _ => None,
    }
}

/// The shared per-analysis budget.
///
/// Created from [`DelayOptions`] (whose caps become live views onto this
/// budget for the duration of the analysis); consumed by the engines and
/// the [`analyze`](crate::analyze) driver. `Send + Sync`: the parallel
/// driver forks one per cone and moves them into scoped worker threads.
#[derive(Debug)]
pub struct AnalysisBudget {
    max_paths: AtomicUsize,
    max_bdd_nodes: AtomicUsize,
    max_cubes: AtomicUsize,
    started: Instant,
    time_budget: Option<Duration>,
    deadline: Option<Instant>,
    token: Option<CancelToken>,
    polls: AtomicU64,
    tripped: AtomicU8,
    /// The observed run's shared counter registry, `None` outside
    /// [`observe`](crate::obs::observe) so unobserved work counts
    /// nothing. Forks clone the `Arc`, so every cone on every worker
    /// reports into one registry; u64 sums are commutative and the
    /// per-cone work is deterministic, so totals are identical at every
    /// thread count.
    counters: Option<Arc<tbf_obs::Counters>>,
}

impl AnalysisBudget {
    /// Builds a budget from the option caps; the deadline clock starts
    /// *now*.
    #[must_use]
    pub fn from_options(options: &DelayOptions) -> Self {
        let started = Instant::now();
        AnalysisBudget {
            max_paths: AtomicUsize::new(options.max_straddling_paths),
            max_bdd_nodes: AtomicUsize::new(options.max_bdd_nodes),
            max_cubes: AtomicUsize::new(options.max_cubes),
            started,
            time_budget: options.time_budget,
            deadline: options.time_budget.map(|b| started + b),
            token: None,
            polls: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            counters: crate::obs::session_counters(),
        }
    }

    /// Attaches a cancellation token (builder style).
    #[must_use]
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Wraps the budget for shared ownership between a driver and the
    /// engines it builds.
    #[must_use]
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// An independent per-cone budget: caps reset to `options` (so a
    /// sibling cone's escalation never inflates this cone's limits, and
    /// vice versa), while the epoch, wall-clock deadline and cancel
    /// token are *shared* with `self` — time is a whole-analysis
    /// resource, space is per-cone.
    ///
    /// The sticky interrupt state starts clear: an already-cancelled
    /// token re-trips on the fork's first poll, and an already-expired
    /// deadline re-trips on its first clock poll, so no interrupt is
    /// lost.
    #[must_use]
    pub fn fork(&self, options: &DelayOptions) -> Self {
        AnalysisBudget {
            max_paths: AtomicUsize::new(options.max_straddling_paths),
            max_bdd_nodes: AtomicUsize::new(options.max_bdd_nodes),
            max_cubes: AtomicUsize::new(options.max_cubes),
            started: self.started,
            time_budget: self.time_budget,
            deadline: self.deadline,
            token: self.token.clone(),
            polls: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            counters: self.counters.clone(),
        }
    }

    /// A request-scoped budget for a long-running service: caps restart
    /// from `options`, the clock restarts *now*, and `token` (the
    /// request's own cancel handle) replaces the parent's. The parent's
    /// wall-clock deadline still applies — the effective deadline is the
    /// earlier of `now + options.time_budget` and the parent (session)
    /// deadline — so a session time budget cuts across every request it
    /// admits.
    ///
    /// Unlike [`fork`](Self::fork), which clones the parent's counter
    /// registry, a request fork binds to the *currently observed*
    /// session registry (see [`crate::obs::observe`]) when one is
    /// installed, else to the parent's (if any). A warm process that
    /// wraps each request in `observe` therefore gets per-request
    /// counters instead of accumulating the whole session into one
    /// misleading artifact.
    #[must_use]
    pub fn fork_request(&self, options: &DelayOptions, token: CancelToken) -> Self {
        let started = Instant::now();
        let own_deadline = options.time_budget.map(|b| started + b);
        let deadline = match (own_deadline, self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        AnalysisBudget {
            max_paths: AtomicUsize::new(options.max_straddling_paths),
            max_bdd_nodes: AtomicUsize::new(options.max_bdd_nodes),
            max_cubes: AtomicUsize::new(options.max_cubes),
            started,
            time_budget: options.time_budget,
            deadline,
            token: Some(token),
            polls: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            counters: crate::obs::session_counters().or_else(|| self.counters.clone()),
        }
    }

    /// The counter registry this budget (and its forks) report into;
    /// `None` when the budget was built outside an observed run.
    pub(crate) fn counters(&self) -> Option<&Arc<tbf_obs::Counters>> {
        self.counters.as_ref()
    }

    /// Cancellation probes consumed so far. Forks start from zero, so on
    /// a per-cone budget this is the cone's own consumption.
    pub(crate) fn poll_count(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Current straddling-path cap.
    pub fn max_paths(&self) -> usize {
        self.max_paths.load(Ordering::Relaxed)
    }

    /// Current BDD node cap.
    pub fn max_bdd_nodes(&self) -> usize {
        self.max_bdd_nodes.load(Ordering::Relaxed)
    }

    /// Current difference-cube cap.
    pub fn max_cubes(&self) -> usize {
        self.max_cubes.load(Ordering::Relaxed)
    }

    /// Multiplies every resource cap by `factor` (saturating). The
    /// deadline and token are untouched: escalation buys space, not
    /// time.
    pub fn escalate(&self, factor: usize) {
        for cap in [&self.max_paths, &self.max_bdd_nodes, &self.max_cubes] {
            let cur = cap.load(Ordering::Relaxed);
            cap.store(cur.saturating_mul(factor), Ordering::Relaxed);
        }
    }

    /// Milliseconds since the budget was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The configured time budget, if any.
    pub fn time_budget(&self) -> Option<Duration> {
        self.time_budget
    }

    fn trip(&self, cause: Interrupt) {
        let raw = match cause {
            Interrupt::Deadline => TRIP_DEADLINE,
            Interrupt::Cancelled => TRIP_CANCELLED,
        };
        // First writer wins; a lost race means another thread already
        // recorded an interrupt, which is just as sticky.
        let _ = self
            .tripped
            .compare_exchange(TRIP_NONE, raw, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Rate-limited interrupt poll: the token is checked every call, the
    /// clock every [`CLOCK_STRIDE`]-th call (and on the very first).
    /// Sticky — once tripped, always tripped.
    pub(crate) fn poll(&self) -> Option<Interrupt> {
        if let Some(t) = decode_trip(self.tripped.load(Ordering::Relaxed)) {
            return Some(t);
        }
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                self.trip(Interrupt::Cancelled);
                return self.cause();
            }
        }
        let n = self.polls.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.counters {
            c.bump(tbf_obs::Metric::BudgetPolls);
        }
        if n.is_multiple_of(CLOCK_STRIDE) {
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    self.trip(Interrupt::Deadline);
                }
            }
        }
        self.cause()
    }

    /// Non-rate-limited check (used at rung boundaries, where a stale
    /// answer would waste a whole ladder step).
    pub(crate) fn check_now(&self) -> Option<Interrupt> {
        if let Some(t) = self.cause() {
            return Some(t);
        }
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                self.trip(Interrupt::Cancelled);
            }
        }
        if self.cause().is_none() {
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    self.trip(Interrupt::Deadline);
                }
            }
        }
        self.cause()
    }

    /// `true` when the analysis should stop — the shape the BDD layer's
    /// cancel probe wants.
    pub(crate) fn interrupted(&self) -> bool {
        self.poll().is_some()
    }

    /// The interrupt recorded so far, without probing clock or token.
    pub(crate) fn cause(&self) -> Option<Interrupt> {
        decode_trip(self.tripped.load(Ordering::Relaxed))
    }

    /// The typed error for the recorded interrupt — `Cancelled` when the
    /// token fired, `TimedOut` otherwise (an unrecorded cause can only
    /// mean the deadline was observed inside a BDD probe whose sticky
    /// state has since been read).
    pub(crate) fn interrupt_error(&self, at_breakpoint: Time, bounds: (Time, Time)) -> DelayError {
        match self.cause() {
            Some(Interrupt::Cancelled) => DelayError::Cancelled {
                at_breakpoint,
                bounds,
            },
            _ => DelayError::TimedOut {
                elapsed_ms: self.elapsed_ms(),
                at_breakpoint,
                bounds,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_mirror_options_and_escalate() {
        let opts = DelayOptions {
            max_straddling_paths: 10,
            max_bdd_nodes: 100,
            max_cubes: 7,
            ..DelayOptions::default()
        };
        let b = AnalysisBudget::from_options(&opts);
        assert_eq!(b.max_paths(), 10);
        assert_eq!(b.max_bdd_nodes(), 100);
        b.escalate(4);
        assert_eq!(b.max_paths(), 40);
        assert_eq!(b.max_bdd_nodes(), 400);
        assert_eq!(b.max_cubes(), 28);
        // Escalation saturates instead of overflowing.
        let huge = AnalysisBudget::from_options(&DelayOptions::default());
        huge.max_cubes.store(usize::MAX, Ordering::Relaxed);
        huge.escalate(1000);
        assert_eq!(huge.max_cubes(), usize::MAX);
    }

    #[test]
    fn forked_budgets_have_independent_caps() {
        let opts = DelayOptions {
            max_straddling_paths: 10,
            max_bdd_nodes: 100,
            max_cubes: 7,
            ..DelayOptions::default()
        };
        let base = AnalysisBudget::from_options(&opts);
        let cone_a = base.fork(&opts);
        let cone_b = base.fork(&opts);
        // One cone's rung-2 escalation must not inflate its siblings.
        cone_a.escalate(4);
        assert_eq!(cone_a.max_paths(), 40);
        assert_eq!(cone_b.max_paths(), 10);
        assert_eq!(base.max_paths(), 10);
        // And a fork made *after* an escalation still starts from the
        // configured options, not the escalated parent.
        base.escalate(8);
        let cone_c = base.fork(&opts);
        assert_eq!(cone_c.max_paths(), 10);
        assert_eq!(cone_c.max_cubes(), 7);
    }

    #[test]
    fn forks_share_deadline_and_token() {
        let token = CancelToken::new();
        let base = AnalysisBudget::from_options(&DelayOptions::default()).with_token(token.clone());
        let fork = base.fork(&DelayOptions::default());
        assert_eq!(fork.poll(), None);
        token.cancel();
        assert_eq!(fork.poll(), Some(Interrupt::Cancelled));
        // A fork taken after cancellation re-trips immediately.
        let late = base.fork(&DelayOptions::default());
        assert_eq!(late.poll(), Some(Interrupt::Cancelled));

        let timed = AnalysisBudget::from_options(&DelayOptions {
            time_budget: Some(Duration::ZERO),
            ..DelayOptions::default()
        });
        let timed_fork = timed.fork(&DelayOptions::default());
        // First poll consults the clock and finds the shared epoch's
        // deadline already expired.
        assert_eq!(timed_fork.poll(), Some(Interrupt::Deadline));
    }

    #[test]
    fn request_fork_combines_session_and_request_deadlines() {
        // Session with a generous deadline; the request's tighter budget
        // wins.
        let session = AnalysisBudget::from_options(&DelayOptions {
            time_budget: Some(Duration::from_secs(3600)),
            ..DelayOptions::default()
        });
        let req = session.fork_request(
            &DelayOptions {
                time_budget: Some(Duration::ZERO),
                ..DelayOptions::default()
            },
            CancelToken::new(),
        );
        assert_eq!(req.poll(), Some(Interrupt::Deadline));

        // Session deadline already spent: even a deadline-free request
        // inherits it.
        let spent = AnalysisBudget::from_options(&DelayOptions {
            time_budget: Some(Duration::ZERO),
            ..DelayOptions::default()
        });
        let req = spent.fork_request(&DelayOptions::default(), CancelToken::new());
        assert_eq!(req.poll(), Some(Interrupt::Deadline));

        // Neither side bounded: the request never trips.
        let free = AnalysisBudget::from_options(&DelayOptions::default());
        let req = free.fork_request(&DelayOptions::default(), CancelToken::new());
        assert_eq!(req.poll(), None);
    }

    #[test]
    fn request_fork_has_its_own_token() {
        let session_token = CancelToken::new();
        let session = AnalysisBudget::from_options(&DelayOptions::default())
            .with_token(session_token.clone());
        let request_token = CancelToken::new();
        let req = session.fork_request(&DelayOptions::default(), request_token.clone());
        // Cancelling the request does not touch the session…
        request_token.cancel();
        assert_eq!(req.poll(), Some(Interrupt::Cancelled));
        assert_eq!(session.poll(), None);
        // …and a fresh request starts clean.
        let next = session.fork_request(&DelayOptions::default(), CancelToken::new());
        assert_eq!(next.poll(), None);
    }

    #[test]
    fn budgets_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisBudget>();
        assert_send_sync::<CancelToken>();
    }

    #[test]
    fn token_trips_poll_and_sticks() {
        let token = CancelToken::new();
        let b = AnalysisBudget::from_options(&DelayOptions::default()).with_token(token.clone());
        assert_eq!(b.poll(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.poll(), Some(Interrupt::Cancelled));
        // Sticky.
        assert_eq!(b.poll(), Some(Interrupt::Cancelled));
        assert_eq!(b.cause(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn zero_deadline_trips_first_poll() {
        let opts = DelayOptions {
            time_budget: Some(Duration::ZERO),
            ..DelayOptions::default()
        };
        let b = AnalysisBudget::from_options(&opts);
        // The very first poll consults the clock.
        assert_eq!(b.poll(), Some(Interrupt::Deadline));
        assert!(b.interrupted());
    }

    #[test]
    fn no_budget_never_trips() {
        let b = AnalysisBudget::from_options(&DelayOptions::default());
        for _ in 0..1000 {
            assert_eq!(b.poll(), None);
        }
        assert_eq!(b.check_now(), None);
    }
}
