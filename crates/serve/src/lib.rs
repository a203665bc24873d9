//! `tbf-serve` — the resilient long-running analysis service behind
//! `tbf serve`.
//!
//! The paper's exact TBF algorithms are expensive to set up but cheap to
//! re-query; that trade only pays off when one warm process answers many
//! requests. This crate is that process: a line-delimited JSON request
//! loop (stdin/stdout, or a `--listen` unix socket) in front of the
//! anytime driver, built so that hostile input, deadline pressure, and
//! injected faults degrade *requests*, never the *session*.
//!
//! # Architecture
//!
//! | module | job |
//! |---|---|
//! | [`protocol`] | frame decoding with typed errors, schema-versioned response rendering |
//! | [`cache`] | the warm result cache: structural-signature keys, deterministic LRU, poison quarantine |
//! | [`session`] | admission control, the per-request retry ladder, panic quarantine, session metrics |
//! | [`workspace`] | the persistent ECO workspace: named incremental sessions, cone-slice keyed retention |
//! | [`runner`] | stdio/socket loops, SIGTERM/EOF drain, the final session artifact |
//!
//! # Robustness pillars
//!
//! * **Quarantine** — warm state is keyed by structural signature; a
//!   request that panics or trips an injected fault poisons only its own
//!   key, which is evicted and rebuilt. Panics are caught per cone (in
//!   the driver) and again per request (here); nothing unwinds past a
//!   frame boundary.
//! * **Admission control** — a session wall-clock/request budget forked
//!   from [`AnalysisBudget`](tbf_core::AnalysisBudget) and a gate-count
//!   cap reject over-budget work up front with a typed `overloaded`
//!   response instead of queuing unboundedly.
//! * **Bounded retry** — transient failures (engine panics, internal
//!   invariants) re-enter the degradation ladder at once, up to
//!   [`ServeConfig::max_attempts`] attempts in all; the response's
//!   `effort` member records attempts and ladder retries.
//! * **Graceful shutdown** — SIGTERM/EOF stops intake, drains received
//!   frames under a drain deadline, cancels the remainder via
//!   [`CancelToken`](tbf_core::CancelToken), and emits a final
//!   session-metrics artifact; a drained session exits 0.
//!
//! # Determinism
//!
//! The `result` member of every response depends only on the request
//! batch prefix before it — not on thread count, recovered faults, or
//! mid-batch restarts. Volatile telemetry is
//! confined to the `effort` member, which
//! [`protocol::deterministic_view`] strips for comparisons.
//!
//! ```
//! use tbf_serve::runner::run_lines;
//! use tbf_serve::session::{ServeConfig, Session};
//!
//! let mut session = Session::new(ServeConfig::default());
//! let mut out = Vec::new();
//! run_lines(
//!     &mut session,
//!     [r#"{"id":"r1","circuit":"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"}"#],
//!     &mut out,
//! )
//! .unwrap();
//! let line = String::from_utf8(out).unwrap();
//! let doc = tbf_serve::protocol::validate_response(line.trim()).unwrap();
//! assert_eq!(
//!     doc.get("status").and_then(tbf_obs::json::Value::as_str),
//!     Some("ok")
//! );
//! ```

#![deny(unsafe_code)] // one audited exception: runner::signal's signal(2) binding
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(clippy::large_enum_variant)]
#![deny(clippy::result_large_err)]

pub mod cache;
pub mod protocol;
pub mod runner;
pub mod session;
pub mod workspace;

pub use protocol::{Request, ServeError};
pub use runner::{run_lines, serve_stdio, serve_unix_socket, RunnerConfig};
pub use session::{ServeConfig, Session, SessionMetrics};
pub use workspace::{SessionWorkspace, WorkspaceStats};
// Re-exported so servers can build `ServeConfig::defaults` without
// depending on tbf-core directly.
pub use tbf_core::DelayOptions;
