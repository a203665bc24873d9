//! # tbf-core — Exact circuit delay computation with Timed Boolean Functions
//!
//! A from-scratch implementation of *"Circuit Delay Models and Their Exact
//! Computation Using Timed Boolean Functions"* (W. K. C. Lam, R. K.
//! Brayton, A. L. Sangiovanni-Vincentelli, UCB/ERL M93/6, DAC 1993).
//!
//! The paper formulates **exact** (not upper-bound) delay computation for
//! combinational circuits with bounded gate delays `[dᵐⁱⁿ, dᵐᵃˣ]` as a
//! *mixed Boolean linear program*: the delay is the largest `t` such that
//! the circuit's **Timed Boolean Function** `f(t, x, d)` differs from its
//! settled static function `f(∞, x)` for some input family member and
//! some in-bounds delay assignment. This crate implements:
//!
//! * [`two_vector_delay`] — the exact 2-vector (transition) delay
//!   `D(C, [dᵐⁱⁿ,dᵐᵃˣ], 2)` by descending breakpoint search, implicit
//!   resolvent enumeration with BDDs, and exact-rational LP feasibility
//!   (paper §5–§7),
//! * [`sequences_delay`] — the exact delay by sequences of vectors
//!   `D(C, ·, ω⁻)`, equal to the floating/viability delay for circuits
//!   with variable gate delays (paper §8–§9, Theorems 1–3),
//! * [`topological_delay`] — the classical STA baseline re-exported for
//!   side-by-side comparison,
//! * [`lower_bounds`] — the Theorem 5 analysis of when gate-delay lower
//!   bounds affect the 2-vector delay, with the `f* = D(C,[0,dᵐᵃˣ],2)/L`
//!   threshold,
//! * [`TbfExpr`] — the explicit TBF algebra of §4 (timed variables,
//!   Boolean connectives, waveform evaluation),
//! * [`analyze`] — the **anytime driver**: a graceful-degradation ladder
//!   (exact → escalated retry → sequences upper bound → topological
//!   bound) with cooperative cancellation ([`CancelToken`]), wall-clock
//!   deadlines checked at BDD-allocation granularity, and per-cone panic
//!   isolation. It never errors on a well-formed netlist: every output
//!   gets sound `[lower, upper]` delay bounds and a
//!   [`OutputStatus`] saying which ladder rung produced them.
//!
//! # Example
//!
//! The paper's §11 worked example: a 4-bit ripple-bypass adder whose
//! longest topological path is 40 but whose exact 2-vector carry delay is
//! 24 — the ripple-through path is false.
//!
//! ```
//! use tbf_core::{two_vector_delay, DelayOptions};
//! use tbf_logic::generators::adders::paper_bypass_adder;
//! use tbf_logic::Time;
//!
//! let adder = paper_bypass_adder();
//! assert_eq!(adder.topological_delay(), Time::from_int(40));
//! let report = two_vector_delay(&adder, &DelayOptions::default())?;
//! assert_eq!(report.delay, Time::from_int(24));
//! # Ok::<(), tbf_core::DelayError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Library code must degrade through typed `DelayError`s, never panic:
// `.unwrap()` is banned outside tests (`.expect()` remains for documented
// invariants, each carrying its justification string).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// The engine's core types flow through every hot call chain; keep enums
// and error payloads small enough to pass in registers.
#![deny(clippy::large_enum_variant)]
#![deny(clippy::result_large_err)]

mod budget;
mod driver;
mod error;
mod model;
mod network;
mod options;
mod report;
mod static_fn;
mod tbf;

pub mod fault;
pub mod lower_bounds;
#[cfg(feature = "obs")]
pub mod obs;
pub mod oracle;
mod sequences;
mod two_vector;

pub use budget::{AnalysisBudget, CancelToken};
pub use driver::{
    analyze, analyze_eco, analyze_with_budget, analyze_with_token, AnalysisPolicy, CircuitReport,
    ConeStore, EcoStats,
};
pub use error::DelayError;
pub use options::DelayOptions;
pub use report::{DegradeCause, DelayReport, DelayWitness, OutputDelay, OutputStatus, SearchStats};
pub use sequences::{floating_delay, sequences_delay};
pub use tbf::TbfExpr;
pub use two_vector::two_vector_delay;

use tbf_logic::{Netlist, Time};

/// The classical topological (static timing analysis) delay — the
/// baseline the paper's table compares against. Identical to
/// [`Netlist::topological_delay`], re-exported here so the three delay
/// models are side by side.
///
/// # Example
///
/// ```
/// use tbf_logic::generators::adders::paper_bypass_adder;
/// use tbf_logic::Time;
/// assert_eq!(
///     tbf_core::topological_delay(&paper_bypass_adder()),
///     Time::from_int(40),
/// );
/// ```
pub fn topological_delay(netlist: &Netlist) -> Time {
    netlist.topological_delay()
}
