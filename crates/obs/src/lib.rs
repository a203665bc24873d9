//! # tbf-obs — observability substrate for the TBF delay suite
//!
//! A zero-dependency metrics layer shared by every crate in the
//! workspace. It deliberately separates two kinds of telemetry:
//!
//! * **Deterministic effort counters** ([`Counters`], [`Metric`]) —
//!   lock-free atomic tallies of *logical work* (ITE calls, cache
//!   hits, nodes allocated, GC sweeps). Because the
//!   engines' work is deterministic and u64 addition is commutative,
//!   counter totals are byte-identical at every thread count.
//! * **Volatile timing** — wall-clock figures attached to the phase
//!   tree ([`phase`]), kept in a separate artifact section so the
//!   deterministic sections of a [`RunArtifact`] can be diffed across
//!   runs, machines, and thread counts.
//!
//! The [`phase`] module provides RAII spans
//! (`Phase::enter("two_vector_exact")`) building a per-thread tree;
//! worker threads record into a local tree via [`phase::capture`] and
//! the driver attaches each cone's tree to the main tree **in netlist
//! output order** (merge-on-join), so the tree structure is independent
//! of scheduling.
//!
//! The [`json`] module is a minimal, hand-rolled JSON value
//! (parser + stable-key-order writer) used by the [`artifact`] emitter —
//! the workspace is dependency-free by design, so no serde.
//!
//! # Example
//!
//! ```
//! use tbf_obs::{Counters, Metric};
//! let c = Counters::new();
//! c.bump(Metric::IteCalls);
//! c.add(Metric::NodesAllocated, 3);
//! assert_eq!(c.get(Metric::IteCalls), 1);
//! assert_eq!(c.get(Metric::NodesAllocated), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod counters;
pub mod diag;
pub mod json;
pub mod phase;

pub use artifact::RunArtifact;
pub use counters::{Counters, Metric};
pub use json::Value;
pub use phase::{Phase, PhaseNode};
