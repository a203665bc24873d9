//! Result types for the delay engines.

use std::fmt;

use tbf_logic::Time;

use crate::error::DelayError;

/// A sensitizing scenario realizing (or approaching within one
/// fixed-point unit of) the exact 2-vector delay: the input vector pair
/// and an in-bounds delay assignment extracted from the winning cube's
/// linear program.
///
/// Feed it to `tbf_sim::simulate` to watch the last output transition
/// land at the computed delay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayWitness {
    /// Name of the output whose transition realizes the circuit delay.
    pub output: String,
    /// Input vector applied since `t = −∞`, in primary-input order.
    pub before: Vec<bool>,
    /// Input vector applied at `t = 0`.
    pub after: Vec<bool>,
    /// Per-node delay assignment (indexed like the netlist's nodes).
    pub delays: Vec<Time>,
}

/// Why a cone's result was degraded below exactness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeCause {
    /// More delay-dependent paths than the straddling-path cap.
    TooManyPaths,
    /// The BDD manager outgrew its node cap.
    BddTooLarge,
    /// The XOR difference produced more cubes than the cube cap.
    TooManyCubes,
    /// The wall-clock budget ran out.
    TimedOut,
    /// A cancellation token fired.
    Cancelled,
    /// An internal invariant failed (typed, not a panic).
    InternalInvariant,
    /// The engine panicked inside this cone; the panic was isolated and
    /// the cone degraded.
    EnginePanic,
}

impl DegradeCause {
    /// Classifies a [`DelayError`] into the cause it degrades with.
    /// `None` for netlist errors, which are caller mistakes rather than
    /// resource exhaustion.
    pub fn from_error(e: &DelayError) -> Option<DegradeCause> {
        Some(match e {
            DelayError::TooManyPaths { .. } => DegradeCause::TooManyPaths,
            DelayError::BddTooLarge { .. } => DegradeCause::BddTooLarge,
            DelayError::TooManyCubes { .. } => DegradeCause::TooManyCubes,
            DelayError::TimedOut { .. } => DegradeCause::TimedOut,
            DelayError::Cancelled { .. } => DegradeCause::Cancelled,
            DelayError::Internal { .. } => DegradeCause::InternalInvariant,
            DelayError::Netlist(_) => return None,
        })
    }
}

impl fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render the `Debug` name in spaced lowercase
        // (`TooManyPaths` → `too many paths`).
        let name = format!("{self:?}");
        let mut out = String::with_capacity(name.len() + 4);
        for (i, c) in name.chars().enumerate() {
            if c.is_uppercase() {
                if i > 0 {
                    out.push(' ');
                }
                out.extend(c.to_lowercase());
            } else {
                out.push(c);
            }
        }
        f.write_str(&out)
    }
}

/// How trustworthy a per-output `delay` figure is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputStatus {
    /// `delay` is the exact delay of this output's cone.
    Exact,
    /// Exactness was abandoned but sound bounds survived: the true
    /// delay lies in `[lower, upper]`, and `delay` equals `upper`.
    Bounded {
        /// Sound lower bound on the cone's delay.
        lower: Time,
        /// Sound upper bound on the cone's delay.
        upper: Time,
        /// Why the ladder stopped short of exactness.
        cause: DegradeCause,
    },
    /// Every analytic rung failed; `delay` is the cone's topological
    /// bound (always sound, maximally pessimistic).
    Fallback {
        /// Why the ladder fell through to the topological bound.
        cause: DegradeCause,
    },
}

/// Per-output delay result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputDelay {
    /// The primary output's name.
    pub name: String,
    /// Its delay: exact when [`status`](Self::status) is
    /// [`OutputStatus::Exact`], otherwise a sound upper bound.
    pub delay: Time,
    /// The output's topological delay, for the exact-vs-topological gap.
    pub topological: Time,
    /// How the `delay` figure was obtained (exact, bounded, or
    /// topological fallback).
    pub status: OutputStatus,
}

impl OutputDelay {
    /// Whether `delay` is exact for this output.
    pub fn is_exact(&self) -> bool {
        matches!(self.status, OutputStatus::Exact)
    }

    /// The sound `(lower, upper)` bounds this entry certifies. Exact
    /// entries collapse to `(delay, delay)`; fallback entries to
    /// `(0, topological)`.
    pub fn bounds(&self) -> (Time, Time) {
        match self.status {
            OutputStatus::Exact => (self.delay, self.delay),
            OutputStatus::Bounded { lower, upper, .. } => (lower, upper),
            OutputStatus::Fallback { .. } => (Time::ZERO, self.topological),
        }
    }
}

/// Search-effort counters, reported for the paper's CPU-time-style table
/// columns and for regression tracking.
///
/// Equality is *semantic*: representation-dependent telemetry —
/// `peak_bdd_nodes` and the memory fields (`peak_arena_nodes`,
/// `arena_bytes`, `gc_sweeps`, `gc_reclaimed`) — is excluded, so two
/// reports compare equal whenever the search did the same logical work,
/// whatever the thread count or the garbage collector happened to do.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Breakpoints (`Kᵢᵐᵃˣ` values) examined across all outputs.
    pub breakpoints_visited: usize,
    /// Delay-dependent paths expanded (resolvents created).
    pub resolvents: usize,
    /// Linear programs solved.
    pub lps_solved: usize,
    /// Peak BDD node count.
    pub peak_bdd_nodes: usize,
    /// Ladder retries (cap escalation + engine reset) attempted.
    pub retries: usize,
    /// Cones that fell back to the sequences-delay upper bound.
    pub sequences_fallbacks: usize,
    /// Cones that fell all the way through to the topological bound.
    pub topological_fallbacks: usize,
    /// Engine panics caught and isolated by the driver.
    pub panics_caught: usize,
    /// Peak arena *slots* (live + dead) of any one manager — the real
    /// high-water memory mark, unlike `peak_bdd_nodes` which counts
    /// occupied slots and therefore shrinks when GC reclaims.
    pub peak_arena_nodes: usize,
    /// Largest arena + unique-subtable footprint, in bytes, sampled
    /// wherever `peak_bdd_nodes` is.
    pub arena_bytes: usize,
    /// Mark-and-sweep passes run across all managers.
    pub gc_sweeps: u64,
    /// Arena nodes reclaimed by those sweeps.
    pub gc_reclaimed: u64,
}

impl PartialEq for SearchStats {
    fn eq(&self, other: &Self) -> bool {
        // Deliberately skips peak_bdd_nodes, peak_arena_nodes,
        // arena_bytes, gc_sweeps and gc_reclaimed: those describe the
        // representation and the memory manager — not the search.
        self.breakpoints_visited == other.breakpoints_visited
            && self.resolvents == other.resolvents
            && self.lps_solved == other.lps_solved
            && self.retries == other.retries
            && self.sequences_fallbacks == other.sequences_fallbacks
            && self.topological_fallbacks == other.topological_fallbacks
            && self.panics_caught == other.panics_caught
    }
}

impl Eq for SearchStats {}

impl SearchStats {
    /// Folds another cone's counters into this one: effort counters add,
    /// `peak_bdd_nodes` takes the max (each parallel worker owns its own
    /// BDD manager, so peaks are concurrent, not cumulative).
    pub fn merge(&mut self, other: &SearchStats) {
        self.breakpoints_visited += other.breakpoints_visited;
        self.resolvents += other.resolvents;
        self.lps_solved += other.lps_solved;
        self.peak_bdd_nodes = self.peak_bdd_nodes.max(other.peak_bdd_nodes);
        self.retries += other.retries;
        self.sequences_fallbacks += other.sequences_fallbacks;
        self.topological_fallbacks += other.topological_fallbacks;
        self.panics_caught += other.panics_caught;
        self.peak_arena_nodes = self.peak_arena_nodes.max(other.peak_arena_nodes);
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.gc_sweeps += other.gc_sweeps;
        self.gc_reclaimed += other.gc_reclaimed;
    }

    /// Samples one engine's memory telemetry into this record: peaks
    /// take the max (repeated samples of a growing engine), and the GC
    /// totals too — they are monotone over an engine's life, so the max
    /// absorbs repeated samples without double counting, while distinct
    /// engines' totals are summed by [`merge`](Self::merge).
    pub(crate) fn sample_memory(
        &mut self,
        peak_arena: usize,
        arena_bytes: usize,
        gc: tbf_bdd::GcStats,
    ) {
        self.peak_arena_nodes = self.peak_arena_nodes.max(peak_arena);
        self.arena_bytes = self.arena_bytes.max(arena_bytes);
        self.gc_sweeps = self.gc_sweeps.max(gc.sweeps);
        self.gc_reclaimed = self.gc_reclaimed.max(gc.reclaimed);
    }
}

/// The result of an exact delay computation.
///
/// The circuit delay of Definition 1 is the maximum over outputs of the
/// per-output last-transition time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayReport {
    /// The circuit's exact delay.
    pub delay: Time,
    /// The circuit's topological delay (baseline).
    pub topological: Time,
    /// Per-output breakdown.
    pub outputs: Vec<OutputDelay>,
    /// A sensitizing scenario for the circuit delay (2-vector engine
    /// only; `None` when the delay is 0 or the engine was ω⁻).
    pub witness: Option<DelayWitness>,
    /// Effort counters.
    pub stats: SearchStats,
}

impl DelayReport {
    /// The gap between the pessimistic topological estimate and the exact
    /// delay, in time units (0 when every critical path is true).
    pub fn false_path_slack(&self) -> Time {
        self.topological - self.delay
    }

    /// The delay of a named output, if present.
    pub fn output_delay(&self, name: &str) -> Option<Time> {
        self.outputs
            .iter()
            .find(|o| o.name == name)
            .map(|o| o.delay)
    }
}

impl fmt::Display for DelayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "exact delay {} (topological {}, slack {})",
            self.delay,
            self.topological,
            self.false_path_slack()
        )?;
        for o in &self.outputs {
            writeln!(
                f,
                "  {}: {}{} (topological {})",
                o.name,
                if o.is_exact() { "" } else { "≤ " },
                o.delay,
                o.topological
            )?;
        }
        write!(
            f,
            "  [{} breakpoints, {} resolvents, {} LPs, {} peak BDD nodes]",
            self.stats.breakpoints_visited,
            self.stats.resolvents,
            self.stats.lps_solved,
            self.stats.peak_bdd_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    #[test]
    fn slack_and_lookup() {
        let r = DelayReport {
            delay: t(24),
            topological: t(40),
            outputs: vec![OutputDelay {
                name: "cout".into(),
                delay: t(24),
                topological: t(40),
                status: OutputStatus::Exact,
            }],
            witness: None,
            stats: SearchStats::default(),
        };
        assert_eq!(r.false_path_slack(), t(16));
        assert_eq!(r.output_delay("cout"), Some(t(24)));
        assert_eq!(r.output_delay("nope"), None);
    }

    #[test]
    fn display_is_informative() {
        let r = DelayReport {
            delay: t(3),
            topological: t(5),
            outputs: vec![],
            witness: None,
            stats: SearchStats {
                breakpoints_visited: 2,
                resolvents: 1,
                lps_solved: 4,
                peak_bdd_nodes: 100,
                ..SearchStats::default()
            },
        };
        let s = r.to_string();
        assert!(s.contains("exact delay 3"));
        assert!(s.contains("topological 5"));
        assert!(s.contains("4 LPs"));
    }

    #[test]
    fn status_bounds_and_exactness() {
        let exact = OutputDelay {
            name: "a".into(),
            delay: t(4),
            topological: t(6),
            status: OutputStatus::Exact,
        };
        assert!(exact.is_exact());
        assert_eq!(exact.bounds(), (t(4), t(4)));

        let bounded = OutputDelay {
            name: "b".into(),
            delay: t(6),
            topological: t(8),
            status: OutputStatus::Bounded {
                lower: t(2),
                upper: t(6),
                cause: DegradeCause::TooManyPaths,
            },
        };
        assert!(!bounded.is_exact());
        assert_eq!(bounded.bounds(), (t(2), t(6)));

        let fallback = OutputDelay {
            name: "c".into(),
            delay: t(8),
            topological: t(8),
            status: OutputStatus::Fallback {
                cause: DegradeCause::EnginePanic,
            },
        };
        assert!(!fallback.is_exact());
        assert_eq!(fallback.bounds(), (Time::ZERO, t(8)));
    }

    #[test]
    fn stats_equality_ignores_representation_telemetry() {
        let a = SearchStats {
            peak_bdd_nodes: 10,
            peak_arena_nodes: 500,
            gc_sweeps: 2,
            ..SearchStats::default()
        };
        let b = SearchStats {
            peak_bdd_nodes: 99,
            ..SearchStats::default()
        };
        assert_eq!(a, b, "representation telemetry must not affect equality");
        let c = SearchStats {
            lps_solved: 1,
            ..SearchStats::default()
        };
        assert_ne!(a, c, "search-effort counters still distinguish");
    }

    #[test]
    fn degrade_cause_classification() {
        let e = DelayError::TimedOut {
            elapsed_ms: 10,
            at_breakpoint: t(5),
            bounds: (Time::ZERO, t(5)),
        };
        assert_eq!(DegradeCause::from_error(&e), Some(DegradeCause::TimedOut));
        let n: DelayError = tbf_logic::NetlistError::NoOutputs.into();
        assert_eq!(DegradeCause::from_error(&n), None);
        assert_eq!(DegradeCause::EnginePanic.to_string(), "engine panic");
        assert_eq!(DegradeCause::TooManyPaths.to_string(), "too many paths");
    }
}
