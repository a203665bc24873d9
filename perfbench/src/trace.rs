//! The traced run's accounting: per-pass samples of every per-layer
//! metric, filled from the benchmark's own spans around public layer
//! calls and from what `tbf_core::obs::observe` records.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tbf_core::obs::RunObservation;
use tbf_core::SearchStats;
use tbf_logic::paths::BreakpointSweep;
use tbf_logic::transform::extract_cone_slice;
use tbf_logic::{Netlist, Time};
use tbf_obs::Metric;

use crate::measure::median;

/// Every per-layer metric: name, unit and which direction is better.
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("logic.parse_s", "s", "lower"),
    ("logic.parse_mb_per_s", "MB/s", "higher"),
    ("logic.slice_s", "s", "lower"),
    ("logic.breakpoints", "count", "lower"),
    ("logic.breakpoint_sweep_s", "s", "lower"),
    ("core.cone_s", "s", "lower"),
    ("core.cone_max_s", "s", "lower"),
    ("core.rung.exact_s", "s", "lower"),
    ("core.rung.retry_s", "s", "lower"),
    ("core.rung.sequences_s", "s", "lower"),
    ("core.rung.topological_s", "s", "lower"),
    ("core.breakpoints_visited", "count", "lower"),
    ("core.resolvents", "count", "lower"),
    ("core.retries", "count", "lower"),
    ("core.sequences_fallbacks", "count", "lower"),
    ("core.topological_fallbacks", "count", "lower"),
    ("core.bound_width", "units", "lower"),
    ("core.tbf_instantiations", "count", "lower"),
    ("core.tbf_cache_hit_ratio", "ratio", "higher"),
    ("wall_s.bypass4x8", "s", "lower"),
    ("wall_s.muxtree5", "s", "lower"),
    ("wall_s.mult4", "s", "lower"),
    ("wall_s.rand100", "s", "lower"),
    ("bdd.ite_calls", "count", "lower"),
    ("bdd.nodes_allocated", "count", "lower"),
    ("bdd.op_cache_hit_ratio", "ratio", "higher"),
    ("bdd.unique_hit_ratio", "ratio", "higher"),
    ("bdd.peak_arena_nodes", "count", "lower"),
    ("bdd.arena_bytes", "bytes", "lower"),
    ("bdd.gc_sweeps", "count", "lower"),
    ("bdd.gc_reclaimed", "count", "lower"),
    ("bdd.budget_polls", "count", "lower"),
    ("lp.solved", "count", "lower"),
    ("sim.replay_s", "s", "lower"),
    ("sim.replays", "count", "higher"),
    ("serve.parse_request_s", "s", "lower"),
    ("serve.latency_p50_ms.hit", "ms", "lower"),
    ("serve.latency_p50_ms.miss", "ms", "lower"),
    ("serve.latency_p50_ms.eco", "ms", "lower"),
    ("serve.warm_cache_hit_ratio", "ratio", "higher"),
    ("serve.eco_reuse_ratio", "ratio", "higher"),
    ("serve.retries", "count", "lower"),
    ("obs.overhead", "ratio", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
];

/// One traced pass. Keys are per-layer metric names, plus `_`-prefixed
/// raw totals that [`Sample::finish`] turns into ratios.
#[derive(Default)]
pub struct Sample(BTreeMap<&'static str, f64>);

impl Sample {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_default() += value;
    }

    pub fn max(&mut self, key: &'static str, value: f64) {
        let e = self.0.entry(key).or_default();
        *e = e.max(value);
    }

    pub fn set(&mut self, key: &'static str, value: f64) {
        self.0.insert(key, value);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Times `f` as a benchmark span of the layer `key`; `_spans` adds
    /// up what the layer spans of a pass cover.
    pub fn span<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        let s = started.elapsed().as_secs_f64();
        self.add(key, s);
        self.add("_spans", s);
        r
    }

    /// Counters and phase spans recorded by one `observe` call.
    pub fn observation(&mut self, obs: &RunObservation) {
        let c = &obs.counters;
        let count = |m: Metric| c.get(m) as f64;
        self.add("bdd.ite_calls", count(Metric::IteCalls));
        self.add("bdd.nodes_allocated", count(Metric::NodesAllocated));
        self.add("bdd.budget_polls", count(Metric::BudgetPolls));
        self.add("_op_hits", count(Metric::CacheHits));
        self.add("_op_misses", count(Metric::CacheMisses));
        self.add("_unique_hits", count(Metric::UniqueTableHits));
        self.add("_unique_probes", count(Metric::UniqueTableProbes));
        self.add("core.tbf_instantiations", count(Metric::TbfInstantiations));
        self.add("_tbf_hits", count(Metric::TbfCacheHits));
        for cone in obs.phases.iter().filter(|p| p.name.starts_with("cone:")) {
            let s = cone.wall_ns as f64 / 1e9;
            self.add("core.cone_s", s);
            self.max("core.cone_max_s", s);
            for rung in &cone.children {
                let key = match rung.name.as_str() {
                    "two_vector_exact" => "core.rung.exact_s",
                    "reorder_retry" | "escalated_retry" => "core.rung.retry_s",
                    "sequences_bound" => "core.rung.sequences_s",
                    "topological_bound" => "core.rung.topological_s",
                    _ => continue,
                };
                self.add(key, rung.wall_ns as f64 / 1e9);
            }
        }
    }

    /// The search and memory counters of one report.
    pub fn stats(&mut self, s: &SearchStats) {
        self.add("core.breakpoints_visited", s.breakpoints_visited as f64);
        self.add("core.resolvents", s.resolvents as f64);
        self.add("core.retries", s.retries as f64);
        self.add("core.sequences_fallbacks", s.sequences_fallbacks as f64);
        self.add("core.topological_fallbacks", s.topological_fallbacks as f64);
        self.add("lp.solved", s.lps_solved as f64);
        self.max("bdd.peak_arena_nodes", s.peak_arena_nodes as f64);
        self.max("bdd.arena_bytes", s.arena_bytes as f64);
        self.add("bdd.gc_sweeps", s.gc_sweeps as f64);
        self.add("bdd.gc_reclaimed", s.gc_reclaimed as f64);
    }

    /// Slicing and breakpoint descent for every output of `netlist`,
    /// timed around the `tbf-logic` calls the engine makes per cone.
    pub fn logic_probe(&mut self, netlist: &Netlist) {
        let started = Instant::now();
        for i in 0..netlist.outputs().len() {
            black_box(extract_cone_slice(netlist, i));
            black_box(netlist.cone_signature(i));
        }
        self.add("logic.slice_s", started.elapsed().as_secs_f64());
        let started = Instant::now();
        let mut breakpoints = 0u64;
        for &(_, out) in netlist.outputs() {
            let mut sweep = BreakpointSweep::new(netlist, out);
            let mut below = Time::MAX;
            while let Some(k) = sweep.next_below(netlist, below) {
                breakpoints += 1;
                below = k;
            }
        }
        self.add("logic.breakpoint_sweep_s", started.elapsed().as_secs_f64());
        self.add("logic.breakpoints", breakpoints as f64);
    }

    /// Turns the raw totals into ratios; `wall_s` is the pass's wall time.
    fn finish(mut self, wall_s: f64) -> Sample {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let parse_s = self.get("logic.parse_s");
        self.set(
            "logic.parse_mb_per_s",
            ratio(self.get("_parse_bytes") / 1e6, parse_s),
        );
        self.set(
            "bdd.op_cache_hit_ratio",
            ratio(
                self.get("_op_hits"),
                self.get("_op_hits") + self.get("_op_misses"),
            ),
        );
        self.set(
            "bdd.unique_hit_ratio",
            ratio(self.get("_unique_hits"), self.get("_unique_probes")),
        );
        let instantiations = self.get("core.tbf_instantiations");
        self.set(
            "core.tbf_cache_hit_ratio",
            ratio(
                self.get("_tbf_hits"),
                self.get("_tbf_hits") + instantiations,
            ),
        );
        self.set(
            "trace.unaccounted_share",
            ratio((wall_s - self.get("_spans")).max(0.0), wall_s),
        );
        self
    }
}

/// The traced passes of one run.
#[derive(Default)]
pub struct Trace {
    passes: Vec<Sample>,
    /// Run-level values (not per pass), such as `obs.overhead`.
    pub run: Sample,
}

impl Trace {
    pub fn push(&mut self, sample: Sample, wall_s: f64) {
        self.passes.push(sample.finish(wall_s));
    }

    /// Every per-layer metric: the median over passes, or the run-level
    /// value where one was set; 0 where the workload has none.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = match self.run.0.get(name) {
                    Some(&v) => v,
                    None => {
                        let per_pass: Vec<f64> = self.passes.iter().map(|p| p.get(name)).collect();
                        median(&per_pass)
                    }
                };
                (name, value, unit)
            })
            .collect()
    }
}
