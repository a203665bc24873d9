//! Resource caps and knobs for the exact-delay engines.

/// Configuration for [`two_vector_delay`](crate::two_vector_delay) and
/// [`sequences_delay`](crate::sequences_delay).
///
/// The defaults are sized for ISCAS-85-scale circuits; raise the caps for
/// pathological inputs (the engines fail with typed
/// [`DelayError`](crate::DelayError)s carrying sound bounds instead of
/// silently truncating).
///
/// # Example
///
/// ```
/// use tbf_core::DelayOptions;
/// let opts = DelayOptions {
///     max_straddling_paths: 100_000,
///     ..DelayOptions::default()
/// };
/// assert!(opts.max_bdd_nodes > 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayOptions {
    /// Cap on simultaneously delay-dependent (straddling) paths per
    /// breakpoint (2-vector engine) and on unsettled TBF variables per
    /// breakpoint (sequences engine).
    pub max_straddling_paths: usize,
    /// Cap on total BDD nodes in the manager.
    pub max_bdd_nodes: usize,
    /// Cap on XOR-BDD cubes examined per breakpoint.
    pub max_cubes: usize,
    /// Wall-clock budget for one engine invocation (`None` = unlimited).
    /// Exceeding it yields [`DelayError::TimedOut`](crate::DelayError)
    /// with sound bounds, checked between breakpoints.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for DelayOptions {
    fn default() -> Self {
        DelayOptions {
            max_straddling_paths: 20_000,
            max_bdd_nodes: 4_000_000,
            max_cubes: 50_000,
            time_budget: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous() {
        let o = DelayOptions::default();
        assert!(o.max_straddling_paths >= 10_000);
        assert!(o.max_bdd_nodes >= 1_000_000);
        assert!(o.max_cubes >= 10_000);
        assert!(o.time_budget.is_none());
    }

    #[test]
    fn struct_update_syntax_works() {
        let o = DelayOptions {
            max_cubes: 7,
            ..DelayOptions::default()
        };
        assert_eq!(o.max_cubes, 7);
        assert_eq!(o.max_bdd_nodes, DelayOptions::default().max_bdd_nodes);
    }
}
