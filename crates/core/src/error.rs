//! Typed failures of the exact-delay engines.

use std::fmt;

use tbf_logic::Time;

/// Why an exact delay could not be computed.
///
/// The engines never silently truncate: resource caps surface as errors
/// carrying the best bounds established before the cap was hit, so the
/// caller still learns something sound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelayError {
    /// More simultaneously delay-dependent paths than
    /// [`DelayOptions::max_straddling_paths`](crate::DelayOptions)
    /// at some breakpoint.
    TooManyPaths {
        /// The configured cap.
        limit: usize,
        /// The breakpoint being examined when the cap was hit.
        at_breakpoint: Time,
        /// Sound bounds on the delay established so far:
        /// `(lower, upper)` — the true delay lies within.
        bounds: (Time, Time),
    },
    /// The BDD manager exceeded
    /// [`DelayOptions::max_bdd_nodes`](crate::DelayOptions).
    BddTooLarge {
        /// The configured cap.
        limit: usize,
        /// The breakpoint being examined when the cap was hit.
        at_breakpoint: Time,
        /// Sound bounds on the delay established so far.
        bounds: (Time, Time),
    },
    /// The XOR BDD produced more cubes than
    /// [`DelayOptions::max_cubes`](crate::DelayOptions).
    TooManyCubes {
        /// The configured cap.
        limit: usize,
        /// The breakpoint being examined when the cap was hit.
        at_breakpoint: Time,
        /// Sound bounds on the delay established so far.
        bounds: (Time, Time),
    },
    /// The configured time budget ran out
    /// ([`DelayOptions::time_budget`](crate::DelayOptions)).
    TimedOut {
        /// Milliseconds spent before giving up.
        elapsed_ms: u64,
        /// The breakpoint being examined when the budget ran out.
        at_breakpoint: Time,
        /// Sound bounds on the delay established so far.
        bounds: (Time, Time),
    },
    /// A [`CancelToken`](crate::CancelToken) fired mid-analysis.
    Cancelled {
        /// The breakpoint being examined when cancellation was observed.
        at_breakpoint: Time,
        /// Sound bounds on the delay established so far.
        bounds: (Time, Time),
    },
    /// An internal invariant failed. Never expected on well-formed
    /// netlists; surfaced as a typed error (instead of a panic) so one
    /// bad cone cannot take down a whole-circuit analysis.
    Internal {
        /// What was violated.
        detail: &'static str,
        /// The breakpoint being examined when the invariant failed.
        at_breakpoint: Time,
        /// Sound bounds on the delay established so far.
        bounds: (Time, Time),
    },
    /// A netlist error surfaced during analysis (e.g. no outputs).
    Netlist(tbf_logic::NetlistError),
}

impl DelayError {
    /// Replaces the carried bounds with circuit-level ones (the per-output
    /// search only knows its own cone; the engines widen with the other
    /// outputs' results before surfacing the error).
    pub(crate) fn with_bounds(mut self, lo: Time, hi: Time) -> DelayError {
        match &mut self {
            DelayError::TooManyPaths { bounds, .. }
            | DelayError::BddTooLarge { bounds, .. }
            | DelayError::TooManyCubes { bounds, .. }
            | DelayError::TimedOut { bounds, .. }
            | DelayError::Cancelled { bounds, .. }
            | DelayError::Internal { bounds, .. } => *bounds = (lo, hi),
            DelayError::Netlist(_) => {}
        }
        self
    }

    /// The breakpoint being examined when the analysis stopped, unless
    /// the failure was a netlist error.
    pub(crate) fn at_breakpoint(&self) -> Option<Time> {
        match self {
            DelayError::TooManyPaths { at_breakpoint, .. }
            | DelayError::BddTooLarge { at_breakpoint, .. }
            | DelayError::TooManyCubes { at_breakpoint, .. }
            | DelayError::TimedOut { at_breakpoint, .. }
            | DelayError::Cancelled { at_breakpoint, .. }
            | DelayError::Internal { at_breakpoint, .. } => Some(*at_breakpoint),
            DelayError::Netlist(_) => None,
        }
    }

    /// The sound `(lower, upper)` delay bounds established before the
    /// failure, when the failure was a resource cap.
    pub fn bounds(&self) -> Option<(Time, Time)> {
        match self {
            DelayError::TooManyPaths { bounds, .. }
            | DelayError::BddTooLarge { bounds, .. }
            | DelayError::TooManyCubes { bounds, .. }
            | DelayError::TimedOut { bounds, .. }
            | DelayError::Cancelled { bounds, .. }
            | DelayError::Internal { bounds, .. } => Some(*bounds),
            DelayError::Netlist(_) => None,
        }
    }
}

impl fmt::Display for DelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayError::TooManyPaths {
                limit,
                at_breakpoint,
                bounds,
            } => write!(
                f,
                "more than {limit} delay-dependent paths at breakpoint {at_breakpoint}; \
                 delay is within [{}, {}]",
                bounds.0, bounds.1
            ),
            DelayError::BddTooLarge {
                limit,
                at_breakpoint,
                bounds,
            } => write!(
                f,
                "BDD grew past {limit} nodes at breakpoint {at_breakpoint}; \
                 delay is within [{}, {}]",
                bounds.0, bounds.1
            ),
            DelayError::TooManyCubes {
                limit,
                at_breakpoint,
                bounds,
            } => write!(
                f,
                "XOR BDD produced more than {limit} cubes at breakpoint {at_breakpoint}; \
                 delay is within [{}, {}]",
                bounds.0, bounds.1
            ),
            DelayError::TimedOut {
                elapsed_ms,
                at_breakpoint,
                bounds,
            } => write!(
                f,
                "time budget exhausted after {elapsed_ms} ms at breakpoint {at_breakpoint}; \
                 delay is within [{}, {}]",
                bounds.0, bounds.1
            ),
            DelayError::Cancelled {
                at_breakpoint,
                bounds,
            } => write!(
                f,
                "analysis cancelled at breakpoint {at_breakpoint}; \
                 delay is within [{}, {}]",
                bounds.0, bounds.1
            ),
            DelayError::Internal {
                detail,
                at_breakpoint,
                bounds,
            } => write!(
                f,
                "internal invariant violated ({detail}) at breakpoint {at_breakpoint}; \
                 delay is within [{}, {}]",
                bounds.0, bounds.1
            ),
            DelayError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for DelayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DelayError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tbf_logic::NetlistError> for DelayError {
    fn from(e: tbf_logic::NetlistError) -> Self {
        DelayError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_bounds() {
        let e = DelayError::TooManyPaths {
            limit: 10,
            at_breakpoint: Time::from_int(5),
            bounds: (Time::from_int(3), Time::from_int(5)),
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.contains("[3, 5]"));
        assert_eq!(e.bounds(), Some((Time::from_int(3), Time::from_int(5))));
    }

    #[test]
    fn cancelled_and_internal_carry_bounds() {
        let c = DelayError::Cancelled {
            at_breakpoint: Time::from_int(7),
            bounds: (Time::ZERO, Time::from_int(7)),
        };
        assert!(c.to_string().contains("cancelled"));
        assert_eq!(c.bounds(), Some((Time::ZERO, Time::from_int(7))));
        let i = DelayError::Internal {
            detail: "xor non-false",
            at_breakpoint: Time::from_int(3),
            bounds: (Time::ZERO, Time::from_int(3)),
        };
        assert!(i.to_string().contains("xor non-false"));
        assert!(i.bounds().is_some());
    }

    #[test]
    fn netlist_error_wraps() {
        let e: DelayError = tbf_logic::NetlistError::NoOutputs.into();
        assert!(e.to_string().contains("no primary"));
        assert!(e.bounds().is_none());
        assert!(std::error::Error::source(&e).is_some());
    }
}
