//! A serve session: warm state, admission control, the per-request
//! retry ladder, and the final session-metrics artifact.
//!
//! One [`Session`] owns everything that survives between requests — the
//! [`WarmCache`], the session-level [`AnalysisBudget`] (whose deadline
//! cuts across every request it admits), the shutdown [`CancelToken`],
//! and the metrics the final artifact reports. [`Session::handle_line`]
//! is the whole request lifecycle: decode → admit → (cache lookup) →
//! analyze with bounded retry → respond; every failure mode inside it
//! becomes a typed one-line error response, never a dead session.
//!
//! # Panic quarantine
//!
//! The analysis runs under `catch_unwind` at two layers: per-cone inside
//! the anytime driver (a cone panic degrades that cone), and per-request
//! here (anything escaping the driver is caught, the request's
//! warm-cache entry is poisoned, and the client gets a typed
//! `internal_panic` response). A poisoned entry is rebuilt from scratch
//! on the circuit's next request — the blast radius of one bad request
//! is exactly its own cache key.
//!
//! # Determinism contract
//!
//! The `result` member of every response depends only on the request
//! batch prefix that precedes it (through the warm cache) — not on
//! worker-thread count, recovered injected faults, or whether the
//! session restarted mid-batch. Volatile telemetry lives in the
//! `effort` member, which consumers strip (see
//! [`crate::protocol::deterministic_view`]).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tbf_core::{AnalysisBudget, AnalysisPolicy, CancelToken, ConeStore, DelayOptions, EcoStats};
use tbf_logic::Netlist;
use tbf_obs::json::Value;
use tbf_obs::RunArtifact;

use crate::cache::WarmCache;
use crate::protocol::{
    effort_value, error_response, ok_response, parse_request, report_value, EcoEffort, FrameLimits,
    Request, ServeError,
};
use crate::workspace::{cone_keys, SessionWorkspace, WorkspaceStats};

/// Session-level knobs, all settable from the `tbf serve` CLI.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads per analysis (`AnalysisPolicy::threads`).
    pub threads: usize,
    /// Admission cap on circuit size, in gates (0 = unlimited).
    pub max_gates: usize,
    /// Longest accepted request frame, in bytes.
    pub max_frame_bytes: usize,
    /// Session wall-clock budget: once spent, every further request is
    /// rejected `overloaded` (`None` = run forever).
    pub session_time_budget: Option<Duration>,
    /// Total request budget (admitted analyses; 0 = unlimited).
    pub max_requests: u64,
    /// Attempts per request (1 = no retry) for transient failures.
    pub max_attempts: u32,
    /// Warm-cache capacity in results (0 disables the cache).
    pub cache_capacity: usize,
    /// Live ECO sessions the workspace retains (LRU beyond it).
    pub max_sessions: usize,
    /// How long shutdown lets in-flight/queued work drain before
    /// cancelling the rest.
    pub drain: Duration,
    /// Engine-cap defaults applied to requests that don't override them.
    pub defaults: DelayOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            max_gates: 0,
            max_frame_bytes: 1 << 20,
            session_time_budget: None,
            max_requests: 0,
            max_attempts: 3,
            cache_capacity: 1024,
            max_sessions: 8,
            drain: Duration::from_millis(2000),
            defaults: DelayOptions::default(),
        }
    }
}

/// Whole-session effort totals, reported in the final artifact.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionMetrics {
    /// Frames received (every line, good or bad).
    pub frames: u64,
    /// OK responses sent.
    pub ok: u64,
    /// Error responses sent (all kinds).
    pub errors: u64,
    /// Requests rejected by admission control (`overloaded`).
    pub rejected_overloaded: u64,
    /// Requests refused because the session was draining.
    pub rejected_shutdown: u64,
    /// Analysis attempts beyond the first (retry ladder re-entries).
    pub retries: u64,
    /// Request-level panics caught and quarantined.
    pub panics_caught: u64,
    /// Requests cancelled mid-flight (shutdown or injected).
    pub cancelled: u64,
}

/// One warm serve session. Not `Sync` — the stdio/socket runners funnel
/// frames into the single session thread; only cancel tokens cross
/// threads.
pub struct Session {
    config: ServeConfig,
    cache: WarmCache,
    /// The persistent ECO workspace: named incremental sessions whose
    /// exact per-cone results survive across requests.
    workspace: SessionWorkspace,
    /// The session budget, kept for its clock: every request budget is
    /// forked from it and inherits its deadline, and admission meters
    /// the session time budget against it.
    budget: AnalysisBudget,
    /// Cancelling this token starts refusing new work.
    shutdown: CancelToken,
    /// The in-flight request's cancel handle, for the drain watchdog.
    live_token: Arc<Mutex<Option<CancelToken>>>,
    metrics: SessionMetrics,
    /// Admitted analyses, for the `max_requests` budget.
    admitted: u64,
    /// Artifact rows of the most recent [`MAX_ARTIFACT_ROWS`] frames.
    rows: VecDeque<Value>,
}

/// Frames whose artifact rows the session keeps; older rows are
/// dropped so a long-lived process does not grow with every frame
/// (`SessionMetrics::frames` still counts them all).
const MAX_ARTIFACT_ROWS: usize = 1024;

/// How one analysis attempt ended, before retry classification.
enum AttemptOutcome {
    Report(Box<tbf_core::CircuitReport>, EcoStats),
    Panicked(String),
}

/// What [`Session::analyze_request`] hands back: the response line plus
/// the artifact-row facts `(status, attempts, error_kind)`.
type RequestOutcome = (String, (&'static str, u64, Option<&'static str>));

impl Session {
    /// A fresh session; the session clock starts now.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let session_options = DelayOptions {
            time_budget: config.session_time_budget,
            ..config.defaults.clone()
        };
        Session {
            cache: WarmCache::new(config.cache_capacity),
            workspace: SessionWorkspace::new(config.max_sessions),
            budget: AnalysisBudget::from_options(&session_options),
            shutdown: CancelToken::new(),
            live_token: Arc::new(Mutex::new(None)),
            metrics: SessionMetrics::default(),
            admitted: 0,
            rows: VecDeque::new(),
            config,
        }
    }

    /// The shutdown handle: cancel it (from a signal hook or the drain
    /// watchdog) and the session refuses new requests.
    #[must_use]
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// A handle that cancels whatever request is in flight *right now* —
    /// the drain watchdog fires this when the drain deadline passes.
    #[must_use]
    pub fn live_request_handle(&self) -> Arc<Mutex<Option<CancelToken>>> {
        Arc::clone(&self.live_token)
    }

    /// Session totals so far.
    #[must_use]
    pub fn metrics(&self) -> SessionMetrics {
        self.metrics
    }

    /// Warm-cache counters so far.
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats
    }

    /// ECO workspace totals so far.
    #[must_use]
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats
    }

    /// Live ECO sessions right now.
    #[must_use]
    pub fn workspace_len(&self) -> usize {
        self.workspace.len()
    }

    /// Handles one request frame end-to-end and returns the one-line
    /// response. Never panics outward; never leaves the session dead.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.metrics.frames += 1;
        let limits = FrameLimits {
            max_frame_bytes: self.config.max_frame_bytes,
        };
        let request = match parse_request(line, &limits, &self.config.defaults) {
            Ok(r) => r,
            Err((id, err)) => return self.refuse(id.as_deref(), err),
        };
        if let Err(err) = self.admit(&request) {
            return self.refuse(Some(&request.id), err);
        }
        self.admitted += 1;

        // Session routing: an analyze request carrying `session`
        // establishes (or re-bases) the named ECO session; an `eco`
        // request must hit an existing one.
        // Either way the warm result cache is bypassed below — session
        // reuse happens at cone granularity in the workspace. The
        // request's cone keys are computed here, once: an analyze request
        // makes them the session base, an eco request diffs them against
        // it and commits them once answered.
        let mut eco_keys = None;
        if let Some(name) = request.session.clone() {
            let keys = cone_keys(&request.netlist);
            let routed = if request.eco {
                eco_keys = Some(keys);
                self.workspace.route_eco(&name)
            } else {
                self.workspace.establish(&name, keys);
                Ok(())
            };
            if let Err(detail) = routed {
                return self.refuse(Some(&request.id), ServeError::BadRequest { detail });
            }
        }

        // Warm path: an exact answer for the same structure and delay
        // model is cap-independent, so any earlier caps the cached
        // result was computed under still apply to this asker.
        // Deadline-limited requests skip the read (never the write): a
        // cold restart could not reproduce a borrowed exact answer
        // inside the request's own budget, and restart determinism
        // outranks the shortcut.
        if request.use_cache && !request.has_deadline && request.session.is_none() {
            if let Some(result) = self.cache.lookup(&request.cache_key) {
                self.metrics.ok += 1;
                let response = ok_response(&request.id, result, effort_value(true, 0, 0, 0, None));
                self.push_row(&request.id, "ok", true, 0, None, None);
                return response;
            }
        }

        let (response, (status, attempts, error_kind)) = self.analyze_request(&request, eco_keys);
        // The row carries the counters of the `observe` around this
        // frame, if the caller opened one (the runners do, one per
        // frame, under `--emit-metrics`); the session opens none.
        let counters = tbf_core::obs::session_counters().map(|c| {
            Value::Obj(
                c.snapshot()
                    .into_iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(k, v)| (k.to_owned(), Value::u64(v)))
                    .collect(),
            )
        });
        self.push_row(&request.id, status, false, attempts, error_kind, counters);
        response
    }

    /// Answers a frame a runner refused before decoding it (over the
    /// byte cap, or not UTF-8): it is counted and recorded like any
    /// other refused frame.
    pub(crate) fn refuse_frame(&mut self, err: ServeError) -> String {
        self.metrics.frames += 1;
        self.refuse(None, err)
    }

    /// Admission control: reject up front rather than queue unboundedly.
    fn admit(&self, request: &Request) -> Result<(), ServeError> {
        if self.shutdown.is_cancelled() {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(budget) = self.budget.time_budget() {
            if self.budget.elapsed_ms() >= budget.as_millis() as u64 {
                return Err(ServeError::Overloaded {
                    detail: format!("session time budget of {} ms is spent", budget.as_millis()),
                });
            }
        }
        if self.config.max_requests != 0 && self.admitted >= self.config.max_requests {
            return Err(ServeError::Overloaded {
                detail: format!(
                    "session request budget of {} is spent",
                    self.config.max_requests
                ),
            });
        }
        if self.config.max_gates != 0 && request.netlist.gate_count() > self.config.max_gates {
            return Err(ServeError::Overloaded {
                detail: format!(
                    "circuit has {} gates, admission cap is {}",
                    request.netlist.gate_count(),
                    self.config.max_gates
                ),
            });
        }
        Ok(())
    }

    /// The analysis path: bounded retry around the degradation ladder,
    /// per-request panic quarantine, warm-cache fill. `eco_keys` are the
    /// cone keys of an eco request's netlist.
    ///
    /// Returns the response line plus `(status, attempts, error_kind)`
    /// for the artifact row.
    fn analyze_request(
        &mut self,
        request: &Request,
        mut eco_keys: Option<Vec<Vec<u8>>>,
    ) -> RequestOutcome {
        let policy = AnalysisPolicy {
            options: request.options.clone(),
            threads: self.config.threads,
        };
        // The explicit cone-granular diff against the session base, for
        // the effort telemetry. Computed before the base is
        // re-committed, so it describes what this edit changed.
        let eco_changed = match (&request.session, &eco_keys) {
            (Some(name), Some(keys)) => self.workspace.changed_cones(name, keys),
            _ => None,
        };
        let mut attempts: u64 = 0;
        let mut panics: u64 = 0;
        let max_attempts = self.config.max_attempts.max(1) as u64;
        loop {
            attempts += 1;
            let token = CancelToken::new();
            if let Ok(mut live) = self.live_token.lock() {
                *live = Some(token.clone());
            }
            // An injected mid-request cancel: fires the request token
            // before the analysis starts, exercising the same drain path
            // a shutdown watchdog uses.
            if tbf_core::fault::trip(tbf_core::fault::Site::RequestCancel) {
                token.cancel();
            }
            let budget = self.budget.fork_request(&request.options, token).shared();
            let outcome = match request.session.as_deref() {
                None => run_attempt(&request.netlist, &policy, budget, attempts == 1, None),
                Some(name) => {
                    // Deadline-limited session requests recompute every
                    // cone — merging a retained result a cold restart
                    // could not have afforded inside the same budget
                    // would break restart determinism — but they still
                    // *retain* what they solve exactly.
                    let reuse = !request.has_deadline;
                    match self.workspace.session_mut(name) {
                        Some(sess) => run_attempt(
                            &request.netlist,
                            &policy,
                            budget,
                            attempts == 1,
                            Some((sess.store_mut(), reuse)),
                        ),
                        None => run_attempt(&request.netlist, &policy, budget, attempts == 1, None),
                    }
                }
            };
            if let Ok(mut live) = self.live_token.lock() {
                *live = None;
            }
            match outcome {
                AttemptOutcome::Report(report, eco) => {
                    if report_is_transient(&report) && attempts < max_attempts {
                        self.metrics.retries += 1;
                        continue;
                    }
                    if report
                        .outputs
                        .iter()
                        .any(|o| cause_of(o) == Some(tbf_core::DegradeCause::Cancelled))
                    {
                        self.metrics.cancelled += 1;
                    }
                    let result = report_value(&report);
                    let poisoned = tbf_core::fault::trip(tbf_core::fault::Site::CachePoison);
                    if poisoned {
                        // The injected fault says this request's warm
                        // state is suspect: quarantine its key only.
                        self.cache.poison(&request.cache_key);
                    } else if request.use_cache && report.all_exact() && request.session.is_none() {
                        self.cache.insert(request.cache_key.clone(), result.clone());
                    }
                    let eco_effort = request.session.as_deref().map(|name| {
                        // The answered netlist becomes the base the next
                        // eco request diffs against (an analyze request
                        // made it the base when it established the
                        // session).
                        if let Some(keys) = eco_keys.take() {
                            self.workspace.commit(name, keys);
                        }
                        self.workspace.record(eco);
                        EcoEffort {
                            reused: eco.reused as u64,
                            recomputed: eco.recomputed as u64,
                            changed: eco_changed,
                        }
                    });
                    self.metrics.ok += 1;
                    let ladder_retries = report.stats.retries as u64;
                    let response = ok_response(
                        &request.id,
                        result,
                        effort_value(false, attempts, ladder_retries, panics, eco_effort),
                    );
                    return (response, ("ok", attempts, None));
                }
                AttemptOutcome::Panicked(detail) => {
                    self.metrics.panics_caught += 1;
                    panics += 1;
                    // Whatever warm state this request touched is
                    // suspect; evict its own entry, leave the rest. A
                    // session request additionally drops its session's
                    // retained cones — the workspace stays unpoisoned
                    // and the next request rebuilds from cold.
                    self.cache.poison(&request.cache_key);
                    if let Some(name) = request.session.as_deref() {
                        self.workspace.clear_session(name);
                    }
                    if attempts < max_attempts {
                        self.metrics.retries += 1;
                        continue;
                    }
                    let err = ServeError::InternalPanic { detail };
                    return (
                        self.refuse(Some(&request.id), err),
                        ("error", attempts, Some("internal_panic")),
                    );
                }
            }
        }
    }

    fn refuse(&mut self, id: Option<&str>, err: ServeError) -> String {
        self.metrics.errors += 1;
        match err {
            ServeError::Overloaded { .. } => self.metrics.rejected_overloaded += 1,
            ServeError::ShuttingDown => self.metrics.rejected_shutdown += 1,
            _ => {}
        }
        if !matches!(err, ServeError::InternalPanic { .. }) {
            self.push_row(id.unwrap_or("-"), "error", false, 0, Some(err.kind()), None);
        }
        error_response(id, &err)
    }

    /// Records one per-request artifact row.
    fn push_row(
        &mut self,
        id: &str,
        status: &str,
        cached: bool,
        attempts: u64,
        error_kind: Option<&str>,
        counters: Option<Value>,
    ) {
        let mut row = vec![
            ("id".to_owned(), Value::str(id)),
            ("status".to_owned(), Value::str(status)),
            ("cached".to_owned(), Value::Bool(cached)),
            ("attempts".to_owned(), Value::u64(attempts)),
        ];
        if let Some(kind) = error_kind {
            row.push(("error_kind".to_owned(), Value::str(kind)));
        }
        if let Some(c) = counters {
            row.push(("counters".to_owned(), c));
        }
        if self.rows.len() == MAX_ARTIFACT_ROWS {
            self.rows.pop_front();
        }
        self.rows.push_back(Value::Obj(row));
    }

    /// Renders the final session-metrics artifact (emitted on shutdown).
    #[must_use]
    pub fn final_artifact(&self) -> RunArtifact {
        let m = self.metrics;
        let c = self.cache.stats;
        let mut artifact = RunArtifact::new();
        artifact.section("kind", Value::str("tbf-serve-session"));
        artifact.section(
            "session",
            Value::Obj(vec![
                ("frames".to_owned(), Value::u64(m.frames)),
                ("ok".to_owned(), Value::u64(m.ok)),
                ("errors".to_owned(), Value::u64(m.errors)),
                (
                    "rejected_overloaded".to_owned(),
                    Value::u64(m.rejected_overloaded),
                ),
                (
                    "rejected_shutdown".to_owned(),
                    Value::u64(m.rejected_shutdown),
                ),
                ("retries".to_owned(), Value::u64(m.retries)),
                ("panics_caught".to_owned(), Value::u64(m.panics_caught)),
                ("cancelled".to_owned(), Value::u64(m.cancelled)),
            ]),
        );
        artifact.section(
            "warm_cache",
            Value::Obj(vec![
                ("hits".to_owned(), Value::u64(c.hits)),
                ("misses".to_owned(), Value::u64(c.misses)),
                ("insertions".to_owned(), Value::u64(c.insertions)),
                ("evictions".to_owned(), Value::u64(c.evictions)),
                ("poisons".to_owned(), Value::u64(c.poisons)),
                ("entries".to_owned(), Value::u64(self.cache.len() as u64)),
            ]),
        );
        let w = self.workspace.stats;
        artifact.section(
            "workspace",
            Value::Obj(vec![
                (
                    "sessions".to_owned(),
                    Value::u64(self.workspace.len() as u64),
                ),
                (
                    "sessions_created".to_owned(),
                    Value::u64(w.sessions_created),
                ),
                (
                    "sessions_evicted".to_owned(),
                    Value::u64(w.sessions_evicted),
                ),
                ("resets".to_owned(), Value::u64(w.resets)),
                ("eco_cones_reused".to_owned(), Value::u64(w.cones_reused)),
                (
                    "eco_cones_recomputed".to_owned(),
                    Value::u64(w.cones_recomputed),
                ),
            ]),
        );
        artifact.section(
            "config",
            Value::Obj(vec![
                ("threads".to_owned(), Value::u64(self.config.threads as u64)),
                (
                    "max_frame_bytes".to_owned(),
                    Value::u64(self.config.max_frame_bytes as u64),
                ),
                (
                    "cache_capacity".to_owned(),
                    Value::u64(self.config.cache_capacity as u64),
                ),
                (
                    "max_sessions".to_owned(),
                    Value::u64(self.config.max_sessions as u64),
                ),
                (
                    "max_attempts".to_owned(),
                    Value::u64(u64::from(self.config.max_attempts)),
                ),
                (
                    "drain_ms".to_owned(),
                    Value::u64(self.config.drain.as_millis() as u64),
                ),
            ]),
        );
        artifact.section("requests", Value::Arr(self.rows.iter().cloned().collect()));
        artifact
    }
}

/// The degrade cause of one output, if it degraded.
fn cause_of(o: &tbf_core::OutputDelay) -> Option<tbf_core::DegradeCause> {
    match o.status {
        tbf_core::OutputStatus::Exact => None,
        tbf_core::OutputStatus::Bounded { cause, .. }
        | tbf_core::OutputStatus::Fallback { cause } => Some(cause),
    }
}

/// Whether a degraded report is worth retrying: engine panics and typed
/// internal-invariant failures are transient (a rebuilt engine may
/// succeed — and under fault injection the retry runs fault-free);
/// deadline/cancel/cap degradations are not (the same caps produce the
/// same rung).
fn report_is_transient(report: &tbf_core::CircuitReport) -> bool {
    use tbf_core::DegradeCause::{EnginePanic, InternalInvariant};
    report
        .outputs
        .iter()
        .any(|o| matches!(cause_of(o), Some(EnginePanic | InternalInvariant)))
}

/// One analysis attempt under per-request panic quarantine.
///
/// Fault-plan scoping: the first attempt re-arms a snapshot of the
/// session's armed (not-yet-fired) engine faults, so a seeded plan hits
/// the request deterministically; retries run under an empty plan, so a
/// fault injected into attempt 1 cannot re-fire forever and the retry
/// actually recovers. Serve-level sites (`FrameParse`, `RequestCancel`,
/// `CachePoison`) trip on the session thread's own plan instead and are
/// one-shot per session.
fn run_attempt(
    netlist: &Netlist,
    policy: &AnalysisPolicy,
    budget: Arc<AnalysisBudget>,
    first_attempt: bool,
    eco: Option<(&mut ConeStore, bool)>,
) -> AttemptOutcome {
    let plan = if first_attempt {
        tbf_core::fault::snapshot()
    } else {
        tbf_core::fault::FaultPlan::new()
    };
    let run = move || {
        tbf_core::fault::with_plan(plan, move || match eco {
            None => (
                tbf_core::analyze_with_budget(netlist, policy, budget),
                EcoStats::default(),
            ),
            Some((store, reuse_results)) => {
                tbf_core::analyze_eco(netlist, policy, budget, store, reuse_results)
            }
        })
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok((report, eco)) => AttemptOutcome::Report(Box::new(report), eco),
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            AttemptOutcome::Panicked(detail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::validate_response;

    fn req(id: &str) -> String {
        format!(r#"{{"id":"{id}","circuit":"INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n"}}"#)
    }

    #[test]
    fn repeated_circuit_hits_the_warm_cache() {
        let mut s = Session::new(ServeConfig::default());
        let first = s.handle_line(&req("r1"));
        let second = s.handle_line(&req("r2"));
        assert_eq!(s.cache_stats().hits, 1, "second request is a warm hit");
        let a = validate_response(&first).expect("valid");
        let b = validate_response(&second).expect("valid");
        assert_eq!(
            a.get("result"),
            b.get("result"),
            "cached result is byte-identical"
        );
        assert_eq!(
            b.get("effort").and_then(|e| e.get("cached")),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn no_option_member_partitions_the_warm_cache() {
        // No engine option changes an exact result, so none is part of
        // the warm-cache key: caps only decide whether exactness is
        // reached, and `threads` and the retired engine knobs are unknown
        // members that select nothing. Every variant below must hit the
        // entry the `{}` run wrote.
        let mut s = Session::new(ServeConfig::default());
        let line = |id: &str, opts: &str| {
            format!(
                r#"{{"id":"{id}","circuit":"INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n","options":{opts}}}"#
            )
        };
        let cold = validate_response(&s.handle_line(&line("c", "{}"))).expect("valid");
        assert_eq!(s.cache_stats().insertions, 1);
        for (i, opts) in [
            r#"{"max_paths":7}"#,
            r#"{"threads":2}"#,
            r#"{"reorder":"pressure"}"#,
            r#"{"reorder":"manual"}"#,
            r#"{"gc":"off"}"#,
            r#"{"complement_edges":false}"#,
            r#"{"tbf_cache":"off"}"#,
        ]
        .iter()
        .enumerate()
        {
            let hits = s.cache_stats().hits;
            let warm =
                validate_response(&s.handle_line(&line(&format!("w{i}"), opts))).expect("valid");
            assert_eq!(
                s.cache_stats().hits,
                hits + 1,
                "{opts} missed the `{{}}` entry"
            );
            assert_eq!(cold.get("result"), warm.get("result"), "{opts}");
        }
        assert_eq!(s.cache_stats().insertions, 1);
    }

    #[test]
    fn cache_opt_out_recomputes() {
        let mut s = Session::new(ServeConfig::default());
        let line =
            r#"{"id":"r","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n","options":{"cache":false}}"#;
        let _ = s.handle_line(line);
        let _ = s.handle_line(line);
        assert_eq!(s.cache_stats().hits, 0);
        assert_eq!(s.cache_stats().insertions, 0);
    }

    #[test]
    fn admission_rejects_when_draining() {
        let mut s = Session::new(ServeConfig::default());
        s.shutdown_token().cancel();
        let resp = s.handle_line(&req("r1"));
        let doc = validate_response(&resp).expect("valid");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Value::str("shutting_down"))
        );
        assert_eq!(s.metrics().rejected_shutdown, 1);
    }

    #[test]
    fn admission_rejects_oversized_circuits_and_spent_budgets() {
        let mut s = Session::new(ServeConfig {
            max_gates: 0,
            max_requests: 1,
            ..ServeConfig::default()
        });
        let ok = s.handle_line(&req("r1"));
        assert!(validate_response(&ok)
            .expect("valid")
            .get("result")
            .is_some());
        let rejected = s.handle_line(&req("r2"));
        let doc = validate_response(&rejected).expect("valid");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Value::str("overloaded"))
        );

        let mut tiny = Session::new(ServeConfig {
            max_gates: 1,
            ..ServeConfig::default()
        });
        let line = r#"{"id":"big","circuit":"INPUT(a)\nINPUT(b)\nOUTPUT(f)\nx = AND(a, b)\nf = OR(x, a)\n"}"#;
        let doc = validate_response(&tiny.handle_line(line)).expect("valid");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Value::str("overloaded"))
        );
    }

    #[test]
    fn malformed_frames_leave_the_session_alive() {
        let mut s = Session::new(ServeConfig::default());
        let bad = s.handle_line("}{ not json");
        let doc = validate_response(&bad).expect("valid error line");
        assert_eq!(doc.get("id"), Some(&Value::Null));
        let good = s.handle_line(&req("after"));
        assert!(validate_response(&good)
            .expect("valid")
            .get("result")
            .is_some());
        assert_eq!(s.metrics().frames, 2);
        assert_eq!(s.metrics().errors, 1);
        assert_eq!(s.metrics().ok, 1);
    }

    #[test]
    fn per_request_deadline_degrades_instead_of_erroring() {
        let mut s = Session::new(ServeConfig::default());
        let line = r#"{"id":"d","circuit":"INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n","deadline_ms":0}"#;
        let doc = validate_response(&s.handle_line(line)).expect("valid");
        assert_eq!(doc.get("status"), Some(&Value::str("ok")));
        let rung = doc
            .get("result")
            .and_then(|r| r.get("rung"))
            .and_then(Value::as_str)
            .expect("rung");
        assert_ne!(rung, "exact", "a zero deadline cannot reach exactness");
        // Degraded results must not poison the warm cache.
        assert_eq!(s.cache_stats().insertions, 0);
    }

    #[test]
    fn final_artifact_validates() {
        let mut s = Session::new(ServeConfig::default());
        let _ = s.handle_line(&req("r1"));
        let _ = s.handle_line("garbage");
        let artifact = s.final_artifact();
        let rendered = artifact.render();
        tbf_obs::RunArtifact::validate(&rendered).expect("artifact schema-valid");
        let doc = Value::parse(&rendered).expect("parses");
        assert_eq!(
            doc.get("session").and_then(|v| v.get("frames")),
            Some(&Value::u64(2))
        );
        assert_eq!(
            doc.get("requests")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn the_artifact_keeps_the_most_recent_rows() {
        // Frames that fail in the parser run no analysis, so this stays
        // fast; each still records an artifact row.
        let mut s = Session::new(ServeConfig::default());
        let frames = MAX_ARTIFACT_ROWS + 5;
        for i in 0..frames {
            let line = format!(r#"{{"id":"r{i}","circuit":"INPUT(a)\nOUTPUT(f)\nf = FROB(a)\n"}}"#);
            assert!(s.handle_line(&line).contains("bad_request"));
        }
        let doc = Value::parse(&s.final_artifact().render()).expect("parses");
        assert_eq!(
            doc.get("session").and_then(|v| v.get("frames")),
            Some(&Value::u64(frames as u64))
        );
        let rows = doc
            .get("requests")
            .and_then(Value::as_array)
            .expect("requests section");
        let ids: Vec<&str> = rows
            .iter()
            .map(|row| row.get("id").and_then(Value::as_str).expect("row id"))
            .collect();
        let expected: Vec<String> = (5..frames).map(|i| format!("r{i}")).collect();
        assert_eq!(ids, expected);
    }

    const BASE2: &str = "INPUT(a)\\nINPUT(b)\\nINPUT(c)\\nOUTPUT(f1)\\nOUTPUT(f2)\\n\
                         g1 = AND(a, b)\\ng2 = OR(b, c)\\nf1 = NOT(g1)\\nf2 = NOT(g2)\\n";
    const EDIT2: &str = "INPUT(a)\\nINPUT(b)\\nINPUT(c)\\nOUTPUT(f1)\\nOUTPUT(f2)\\n\
                         g1 = AND(a, b)\\ng2 = XOR(b, c)\\nf1 = NOT(g1)\\nf2 = NOT(g2)\\n";

    fn eco_counter(doc: &Value, key: &str) -> Option<u64> {
        doc.get("effort")
            .and_then(|e| e.get("eco"))
            .and_then(|e| e.get(key))
            .and_then(Value::as_u64)
    }

    #[test]
    fn eco_requests_reuse_unchanged_cones_and_match_cold_results() {
        let mut warm = Session::new(ServeConfig::default());
        let establish = format!(r#"{{"id":"e","session":"s","circuit":"{BASE2}"}}"#);
        let doc = validate_response(&warm.handle_line(&establish)).expect("valid");
        assert_eq!(doc.get("status"), Some(&Value::str("ok")));
        assert_eq!(eco_counter(&doc, "reused"), Some(0));
        assert_eq!(eco_counter(&doc, "recomputed"), Some(2));

        // One-gate edit: only f2's cone changed, so only it recomputes.
        let eco = format!(r#"{{"id":"q","kind":"eco","session":"s","circuit":"{EDIT2}"}}"#);
        let incremental = validate_response(&warm.handle_line(&eco)).expect("valid");
        assert_eq!(incremental.get("status"), Some(&Value::str("ok")));
        assert_eq!(eco_counter(&incremental, "reused"), Some(1));
        assert_eq!(eco_counter(&incremental, "recomputed"), Some(1));
        assert_eq!(eco_counter(&incremental, "changed"), Some(1));

        // Byte-identical to a cold session analyzing the edited netlist.
        let mut cold = Session::new(ServeConfig::default());
        let plain = format!(r#"{{"id":"q","circuit":"{EDIT2}"}}"#);
        let fresh = validate_response(&cold.handle_line(&plain)).expect("valid");
        assert_eq!(
            crate::protocol::deterministic_view(&incremental),
            crate::protocol::deterministic_view(&fresh),
            "incremental result must be byte-identical to a cold run"
        );

        // Session requests bypass the warm result cache entirely.
        assert_eq!(warm.cache_stats().hits + warm.cache_stats().insertions, 0);
        assert_eq!(warm.workspace_stats().cones_reused, 1);
        assert_eq!(warm.workspace_stats().cones_recomputed, 3);
    }

    #[test]
    fn eco_under_another_delay_model_matches_a_cold_run() {
        // Sessions pin no options: an `eco` request under unit delays
        // against a session established under the default delay model
        // is served, and its cones are reused only where the scaled
        // delays left the slice signatures unchanged.
        let mut warm = Session::new(ServeConfig::default());
        let establish = format!(r#"{{"id":"e","session":"s","circuit":"{BASE2}"}}"#);
        let _ = warm.handle_line(&establish);
        let eco = format!(
            r#"{{"id":"q","kind":"eco","session":"s","delays":"unit","circuit":"{EDIT2}"}}"#
        );
        let incremental = validate_response(&warm.handle_line(&eco)).expect("valid");
        assert_eq!(incremental.get("status"), Some(&Value::str("ok")));

        let mut cold = Session::new(ServeConfig::default());
        let plain = format!(r#"{{"id":"q","delays":"unit","circuit":"{EDIT2}"}}"#);
        let fresh = validate_response(&cold.handle_line(&plain)).expect("valid");
        assert_eq!(
            crate::protocol::deterministic_view(&incremental),
            crate::protocol::deterministic_view(&fresh),
            "incremental result must be byte-identical to a cold run"
        );
    }

    #[test]
    fn eco_against_an_unknown_session_is_a_bad_request() {
        let mut s = Session::new(ServeConfig::default());
        let eco = format!(r#"{{"id":"q","kind":"eco","session":"nope","circuit":"{BASE2}"}}"#);
        let doc = validate_response(&s.handle_line(&eco)).expect("valid");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("kind")),
            Some(&Value::str("bad_request"))
        );
        let after = s.handle_line(&req("after"));
        assert!(validate_response(&after)
            .expect("valid")
            .get("result")
            .is_some());
    }

    #[test]
    fn deadline_session_requests_recompute_everything_but_still_retain() {
        let mut s = Session::new(ServeConfig::default());
        let establish = format!(r#"{{"id":"e","session":"s","circuit":"{BASE2}"}}"#);
        let _ = s.handle_line(&establish);
        // A deadline request never merges retained results (restart
        // determinism) — everything recomputes...
        let eco = format!(
            r#"{{"id":"d","kind":"eco","session":"s","deadline_ms":60000,"circuit":"{BASE2}"}}"#
        );
        let doc = validate_response(&s.handle_line(&eco)).expect("valid");
        assert_eq!(eco_counter(&doc, "reused"), Some(0));
        assert_eq!(eco_counter(&doc, "recomputed"), Some(2));
        // ...but what it solved exactly stays retained for the next
        // deadline-free request.
        let eco2 = format!(r#"{{"id":"q","kind":"eco","session":"s","circuit":"{BASE2}"}}"#);
        let doc2 = validate_response(&s.handle_line(&eco2)).expect("valid");
        assert_eq!(eco_counter(&doc2, "reused"), Some(2));
        assert_eq!(eco_counter(&doc2, "recomputed"), Some(0));
    }
}
