//! Observability shims for the hot paths.
//!
//! Every instrumentation point in the package calls one of the
//! `#[inline(always)]` methods below. With the `obs` feature disabled
//! (the default) each body is empty and the call compiles away — tier-1
//! performance is untouched. With the feature enabled, the shims bump
//! the [`tbf_obs::Counters`] registry installed via
//! [`BddManager::set_counters`]; managers with no registry installed
//! still pay only a `None` check.
//!
//! The counters record *logical work* (which is deterministic), never
//! wall time, so totals are byte-identical across thread counts.

use crate::manager::BddManager;

impl BddManager {
    /// Installs the shared counter registry this manager reports into.
    #[cfg(feature = "obs")]
    pub fn set_counters(&mut self, counters: std::sync::Arc<tbf_obs::Counters>) {
        self.counters = Some(counters);
    }

    /// The counter registry installed on this manager, if any.
    #[cfg(feature = "obs")]
    pub fn counters(&self) -> Option<&std::sync::Arc<tbf_obs::Counters>> {
        self.counters.as_ref()
    }

    #[cfg(feature = "obs")]
    #[inline(always)]
    fn obs_bump(&self, metric: tbf_obs::Metric) {
        if let Some(c) = &self.counters {
            c.bump(metric);
        }
    }

    /// One entry into the `ite`/`try_ite_b` recursion.
    #[inline(always)]
    pub(crate) fn obs_ite_call(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::IteCalls);
    }

    /// One computed-table hit (ite, quantify or compose).
    #[inline(always)]
    pub(crate) fn obs_cache_hit(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::CacheHits);
    }

    /// One computed-table miss.
    #[inline(always)]
    pub(crate) fn obs_cache_miss(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::CacheMisses);
    }

    /// One unique-table probe in [`BddManager::mk`].
    #[inline(always)]
    pub(crate) fn obs_unique_probe(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::UniqueTableProbes);
    }

    /// A probe that found an interned node (probes = hits + misses).
    #[inline(always)]
    pub(crate) fn obs_unique_hit(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::UniqueTableHits);
    }

    /// A probe that fell through to an allocation.
    #[inline(always)]
    pub(crate) fn obs_unique_miss(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::UniqueTableMisses);
    }

    /// One freshly allocated arena node.
    #[inline(always)]
    pub(crate) fn obs_node_alloc(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::NodesAllocated);
    }

    /// One computed-table flush ([`BddManager::clear_op_caches`]).
    #[inline(always)]
    pub(crate) fn obs_gc_run(&self) {
        #[cfg(feature = "obs")]
        self.obs_bump(tbf_obs::Metric::GcRuns);
    }

    /// One mark-and-sweep pass reclaiming `_reclaimed` nodes.
    #[inline(always)]
    pub(crate) fn obs_gc_sweep(&self, _reclaimed: u64) {
        #[cfg(feature = "obs")]
        if let Some(c) = &self.counters {
            c.bump(tbf_obs::Metric::GcSweeps);
            c.add(tbf_obs::Metric::GcNodesReclaimed, _reclaimed);
        }
    }
}

#[cfg(all(test, feature = "obs"))]
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
        let _f = m.and(vx, vy);
        assert!(c.get(Metric::IteCalls) > 0, "ite recursion counted");
        assert!(c.get(Metric::NodesAllocated) >= 3, "x, y, and x∧y nodes");
        assert!(
            c.get(Metric::UniqueTableProbes) >= c.get(Metric::NodesAllocated),
            "every allocation follows a probe"
        );
        assert_eq!(
            c.get(Metric::UniqueTableProbes),
            c.get(Metric::UniqueTableHits) + c.get(Metric::UniqueTableMisses),
            "probes split exactly into hits and misses"
        );
        assert_eq!(
            c.get(Metric::UniqueTableMisses),
            c.get(Metric::NodesAllocated)
        );
        m.clear_op_caches();
        assert_eq!(c.get(Metric::GcRuns), 1);
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
