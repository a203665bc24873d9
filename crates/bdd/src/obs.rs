//! Effort counters on the hot paths.
//!
//! Every instrumentation point in the package calls [`BddManager::bump`]
//! or [`BddManager::bump_gc_sweep`]. They report into the
//! [`tbf_obs::Counters`] registry installed via
//! [`BddManager::set_counters`]; a manager with no registry installed
//! (every manager outside an observed run) pays one `None` check.
//!
//! The counters record *logical work* (which is deterministic), never
//! wall time, so totals are byte-identical across thread counts.

use std::sync::Arc;

use tbf_obs::{Counters, Metric};

use crate::manager::BddManager;

impl BddManager {
    /// Installs the shared counter registry this manager reports into.
    pub fn set_counters(&mut self, counters: Arc<Counters>) {
        self.counters = Some(counters);
    }

    /// The counter registry installed on this manager, if any.
    pub fn counters(&self) -> Option<&Arc<Counters>> {
        self.counters.as_ref()
    }

    /// Counts one unit of `metric`'s work.
    #[inline(always)]
    pub(crate) fn bump(&self, metric: Metric) {
        if let Some(c) = &self.counters {
            c.bump(metric);
        }
    }

    /// One mark-and-sweep pass reclaiming `reclaimed` nodes.
    #[inline(always)]
    pub(crate) fn bump_gc_sweep(&self, reclaimed: u64) {
        if let Some(c) = &self.counters {
            c.bump(Metric::GcSweeps);
            c.add(Metric::GcNodesReclaimed, reclaimed);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BddManager;
    use tbf_obs::{Counters, Metric};

    #[test]
    fn counters_record_bdd_work() {
        let c = Counters::shared();
        let mut m = BddManager::new();
        m.set_counters(std::sync::Arc::clone(&c));
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        assert!(c.get(Metric::IteCalls) > 0, "ite recursion counted");
        assert!(c.get(Metric::NodesAllocated) >= 3, "x, y, and x∧y nodes");
        // Asking again hits the interned nodes and the computed table.
        let hits = c.get(Metric::UniqueTableHits);
        assert_eq!(m.var(x), vx);
        assert_eq!(c.get(Metric::UniqueTableHits), hits + 1);
        assert_eq!(c.get(Metric::CacheHits), 0);
        assert_eq!(m.and(vx, vy), f);
        assert_eq!(c.get(Metric::CacheHits), 1);
        assert_eq!(
            c.get(Metric::UniqueTableProbes),
            c.get(Metric::UniqueTableHits) + c.get(Metric::NodesAllocated),
            "a probe either finds an interned node or allocates one"
        );
        assert_eq!(c.get(Metric::GcSweeps), 0, "no mark-and-sweep ran");
        // A forced sweep records its pass and reclaim count.
        let reclaimed = m.collect_garbage(&[]);
        assert!(reclaimed > 0);
        assert_eq!(c.get(Metric::GcSweeps), 1);
        assert_eq!(c.get(Metric::GcNodesReclaimed), reclaimed as u64);
    }

    #[test]
    fn uninstrumented_manager_is_silent() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let _ = m.var(x);
        assert!(m.counters().is_none());
    }
}
