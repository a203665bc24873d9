//! Lock-free named counters and log₂ histograms.
//!
//! A [`Counters`] registry is a fixed array of `AtomicU64`s indexed by
//! the [`Metric`] enum plus a fixed array of [`Histogram`]s indexed by
//! [`HistMetric`]. All updates are `Ordering::Relaxed` — the registry
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
    /// Computed-table flushes (`clear_op_caches`; no engine path
    /// flushes). Arena-level mark-and-sweep passes are counted
    /// separately as `GcSweeps`.
    GcRuns,
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
    /// Unique-table probes that found an interned node (probes = hits +
    /// misses; appended after the ECO metrics to keep registry order
    /// stable).
    UniqueTableHits,
    /// Unique-table probes that fell through to an allocation.
    UniqueTableMisses,
    /// Mark-and-sweep garbage-collection passes over the node arena
    /// (distinct from `GcRuns`, the computed-table flushes).
    GcSweeps,
    /// Arena nodes reclaimed by mark-and-sweep passes.
    GcNodesReclaimed,
}

impl Metric {
    /// Every metric, in registry (serialization) order.
    pub const ALL: [Metric; 15] = [
        Metric::IteCalls,
        Metric::CacheHits,
        Metric::CacheMisses,
        Metric::UniqueTableProbes,
        Metric::NodesAllocated,
        Metric::GcRuns,
        Metric::BudgetPolls,
        Metric::TbfInstantiations,
        Metric::TbfCacheHits,
        Metric::EcoConesReused,
        Metric::EcoConesRecomputed,
        Metric::UniqueTableHits,
        Metric::UniqueTableMisses,
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
            Metric::GcRuns => "gc_runs",
            Metric::BudgetPolls => "budget_polls",
            Metric::TbfInstantiations => "tbf_instantiations",
            Metric::TbfCacheHits => "tbf_cache_hits",
            Metric::EcoConesReused => "eco_cones_reused",
            Metric::EcoConesRecomputed => "eco_cones_recomputed",
            Metric::UniqueTableHits => "unique_table_hits",
            Metric::UniqueTableMisses => "unique_table_misses",
            Metric::GcSweeps => "gc_sweeps",
            Metric::GcNodesReclaimed => "gc_nodes_reclaimed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Named log₂-bucket histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistMetric {
    /// Breakpoints visited per analyzed cone.
    ConeBreakpoints,
}

impl HistMetric {
    /// Every histogram metric, in registry (serialization) order.
    pub const ALL: [HistMetric; 1] = [HistMetric::ConeBreakpoints];

    /// The histogram's stable `snake_case` name, as serialized.
    pub fn name(self) -> &'static str {
        match self {
            HistMetric::ConeBreakpoints => "cone_breakpoints",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const N_BUCKETS: usize = 65;

/// A lock-free histogram with log₂ buckets: bucket 0 holds the value 0
/// and bucket `i ≥ 1` holds values in `[2^(i−1), 2^i − 1]`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; N_BUCKETS],
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The non-empty buckets as `(lo, hi, count)` value-range triples,
    /// in ascending order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let (lo, hi) = if i == 0 {
                (0, 0)
            } else {
                (
                    1u64 << (i - 1),
                    (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1),
                )
            };
            out.push((lo, hi, n));
        }
        out
    }
}

/// The lock-free counter registry shared (via [`Arc`]) by every BDD
/// manager, budget, and worker thread of one observed run.
///
/// # Example
///
/// ```
/// use tbf_obs::{Counters, HistMetric, Metric};
/// let c = Counters::new();
/// c.bump(Metric::GcSweeps);
/// c.observe(HistMetric::ConeBreakpoints, 1000);
/// assert_eq!(c.get(Metric::GcSweeps), 1);
/// assert_eq!(c.histogram(HistMetric::ConeBreakpoints).count(), 1);
/// ```
#[derive(Debug)]
pub struct Counters {
    vals: [AtomicU64; Metric::ALL.len()],
    hists: [Histogram; HistMetric::ALL.len()],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            vals: [ZERO; Metric::ALL.len()],
            hists: [Histogram::new()],
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

    /// Records one observation into `metric`'s histogram.
    #[inline]
    pub fn observe(&self, metric: HistMetric, value: u64) {
        self.hists[metric.index()].observe(value);
    }

    /// The named histogram.
    pub fn histogram(&self, metric: HistMetric) -> &Histogram {
        &self.hists[metric.index()]
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
        c.bump(Metric::GcRuns);
        let snap = c.snapshot();
        assert_eq!(snap.len(), Metric::ALL.len());
        assert_eq!(snap[0].0, "ite_calls");
        assert_eq!(snap[5], ("gc_runs", 1));
        assert_eq!(snap[13].0, "gc_sweeps");
        assert_eq!(snap[14].0, "gc_nodes_reclaimed");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (1024, 2047, 1)]
        );
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
