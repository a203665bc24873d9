//! Lock-free named counters.
//!
//! A [`Counters`] registry is a fixed array of `AtomicU64`s indexed by
//! the [`Metric`] enum. All updates are `Ordering::Relaxed` — the registry
//! records *totals of deterministic work*, so no ordering between
//! threads is ever needed: u64 sums are commutative and the engines do
//! the same logical work at every thread count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Named effort counters instrumented throughout the workspace.
///
/// The variant set is the metric *registry*: adding a variant (and its
/// [`Metric::name`]) is the only step needed to introduce a new counter.
/// Names are `snake_case` and appear verbatim in the `counters` section
/// of a [`RunArtifact`](crate::RunArtifact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Entries into the BDD `ite` / `try_ite_b` recursion (terminal
    /// cases included).
    IteCalls,
    /// Hits in the BDD computed table (ite, quantify, compose).
    CacheHits,
    /// Misses in the BDD computed table.
    CacheMisses,
    /// Probes of the unique table in `BddManager::mk`.
    UniqueTableProbes,
    /// BDD nodes freshly allocated (unique-table misses).
    NodesAllocated,
    /// Budget cancellation probes (`AnalysisBudget::poll`).
    BudgetPolls,
    /// Timed-function gate BDDs actually built by the delay-model
    /// engine (misses of its per-breakpoint build memo).
    TbfInstantiations,
    /// Timed-function gate BDDs reused within one breakpoint's build
    /// because an equal k-function reached the same gate before (hits
    /// of the build memo).
    TbfCacheHits,
    /// Cones answered from the incremental (ECO) retention store
    /// without recomputation — their slice signature was unchanged.
    EcoConesReused,
    /// Cones the incremental engine actually ran: changed slices,
    /// never-seen slices, or every cone on a volatile request.
    EcoConesRecomputed,
    /// Unique-table probes that found an interned node; the other
    /// probes allocate, so probes = hits + `NodesAllocated`.
    UniqueTableHits,
    /// Mark-and-sweep garbage-collection passes over the node arena.
    GcSweeps,
    /// Arena nodes reclaimed by mark-and-sweep passes.
    GcNodesReclaimed,
}

impl Metric {
    /// Every metric, in registry (serialization) order.
    pub const ALL: [Metric; 13] = [
        Metric::IteCalls,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::UniqueTableProbes,
        Metric::NodesAllocated,
        Metric::BudgetPolls,
        Metric::TbfInstantiations,
        Metric::TbfCacheHits,
        Metric::EcoConesReused,
        Metric::EcoConesRecomputed,
        Metric::UniqueTableHits,
        Metric::GcSweeps,
        Metric::GcNodesReclaimed,
    ];

    /// The metric's stable `snake_case` name, as serialized.
    pub fn name(self) -> &'static str {
        match self {
            Metric::IteCalls => "ite_calls",
            Metric::CacheHits => "cache_hits",
            Metric::CacheMisses => "cache_misses",
            Metric::UniqueTableProbes => "unique_table_probes",
            Metric::NodesAllocated => "nodes_allocated",
            Metric::BudgetPolls => "budget_polls",
            Metric::TbfInstantiations => "tbf_instantiations",
            Metric::TbfCacheHits => "tbf_cache_hits",
            Metric::EcoConesReused => "eco_cones_reused",
            Metric::EcoConesRecomputed => "eco_cones_recomputed",
            Metric::UniqueTableHits => "unique_table_hits",
            Metric::GcSweeps => "gc_sweeps",
            Metric::GcNodesReclaimed => "gc_nodes_reclaimed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The lock-free counter registry shared (via [`Arc`]) by every BDD
/// manager, budget, and worker thread of one observed run.
///
/// # Example
///
/// ```
/// use tbf_obs::{Counters, Metric};
/// let c = Counters::new();
/// c.bump(Metric::GcSweeps);
/// c.add(Metric::GcNodesReclaimed, 40);
/// assert_eq!(c.get(Metric::GcSweeps), 1);
/// assert_eq!(c.get(Metric::GcNodesReclaimed), 40);
/// ```
#[derive(Debug)]
pub struct Counters {
    vals: [AtomicU64; Metric::ALL.len()],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            vals: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Counters {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// A fresh registry behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Counters> {
        Arc::new(Counters::new())
    }

    /// Increments `metric` by one.
    #[inline]
    pub fn bump(&self, metric: Metric) {
        self.vals[metric.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Increments `metric` by `n`.
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        self.vals[metric.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// The current total of `metric`.
    pub fn get(&self, metric: Metric) -> u64 {
        self.vals[metric.index()].load(Ordering::Relaxed)
    }

    /// All counter totals as `(name, value)` pairs in registry order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        Metric::ALL
            .iter()
            .map(|&m| (m.name(), self.get(m)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        for _ in 0..5 {
            c.bump(Metric::CacheHits);
        }
        c.add(Metric::CacheHits, 10);
        assert_eq!(c.get(Metric::CacheHits), 15);
        assert_eq!(c.get(Metric::CacheMisses), 0);
    }

    #[test]
    fn snapshot_is_in_registry_order() {
        let c = Counters::new();
        c.bump(Metric::BudgetPolls);
        let snap = c.snapshot();
        assert_eq!(snap.len(), Metric::ALL.len());
        assert_eq!(snap[0].0, "ite_calls");
        assert_eq!(snap[5], ("budget_polls", 1));
        assert_eq!(snap[11].0, "gc_sweeps");
        assert_eq!(snap[12].0, "gc_nodes_reclaimed");
    }

    #[test]
    fn shared_counters_sum_across_threads() {
        let c = Counters::shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.bump(Metric::IteCalls);
                    }
                });
            }
        });
        assert_eq!(c.get(Metric::IteCalls), 4000);
    }
}
