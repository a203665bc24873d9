//! The anytime analysis driver: a per-cone degradation ladder that always
//! produces sound delay bounds, whatever resource caps, deadlines,
//! cancellations or engine panics occur along the way.
//!
//! [`analyze`] runs every output cone down a ladder of rungs:
//!
//! 1. **Exact** 2-vector analysis under the configured caps.
//! 2. **Retry** once with every cap escalated ×4 after a manager reset
//!    (resource caps only — a spent deadline cannot be escalated away).
//! 3. **Sequences upper bound**: the ω⁻ delay dominates the 2-vector
//!    delay (more switching freedom can only delay the last transition)
//!    and needs no cube enumeration or LP, so it often fits in caps the
//!    exact search blew.
//! 4. **Topological bound**: always available, maximally pessimistic.
//!
//! # Parallel cone analysis
//!
//! Output cones are independent (§7 of the paper analyzes one output at a
//! time), so the driver extracts each output's fanin cone into a
//! self-contained [`ConeJob`] — a cone-restricted netlist slice plus a
//! [forked](AnalysisBudget::fork) per-cone budget — and runs the jobs on
//! a [`std::thread::scope`] worker pool sized by
//! [`AnalysisPolicy::threads`]. Each worker owns its own BDD manager
//! (built per cone, so no symbolic state crosses threads); the shared
//! wall-clock deadline and [`CancelToken`] still fire mid-BDD-op on every
//! worker through the forked budgets. Jobs are scheduled largest
//! estimated cone first so a big cone cannot strand the pool at the end
//! of the queue.
//!
//! The result is **deterministic**: `threads: 1` and `threads: N` return
//! byte-identical [`CircuitReport`]s. Both paths run the identical
//! per-cone pipeline (fresh engine on the cone slice, fresh budget fork,
//! per-cone fault-plan re-arm) and results are merged back in netlist
//! output order — worker count and scheduling order only change
//! wall-clock time, never a single reported value.
//!
//! Each cone runs under `catch_unwind`: an engine panic is counted,
//! isolated to its cone (which degrades to rung 4 with cause
//! [`DegradeCause::EnginePanic`]), and later cones run on their own
//! managers so they never see torn state. The circuit-level result is
//! never an error: well-formed netlists always get a [`CircuitReport`]
//! whose `[lower, upper]` interval soundly contains the exact delay.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tbf_logic::transform::extract_cone_slice;
use tbf_logic::{Netlist, NodeId, Time};

use crate::budget::{AnalysisBudget, CancelToken};
use crate::error::DelayError;
use crate::fault::{self, Site};
use crate::network::ConeContext;
use crate::options::DelayOptions;
use crate::report::{DegradeCause, DelayWitness, OutputDelay, OutputStatus, SearchStats};
use crate::two_vector::WitnessParts;

/// How many times a cone that hit a resource cap is retried with
/// escalated caps (after a manager reset).
const MAX_RETRIES: usize = 1;

/// Cap multiplier applied per retry.
const ESCALATION_FACTOR: usize = 4;

/// How [`analyze`] trades exactness for robustness.
#[derive(Clone, Debug)]
pub struct AnalysisPolicy {
    /// Resource caps and time budget for the underlying engines.
    pub options: DelayOptions,
    /// Worker threads for cone analysis: `1` (the default) runs on the
    /// calling thread, `0` means one worker per available core, any
    /// other value is used as given (clamped to the number of cones).
    /// The report is byte-identical for every setting.
    pub threads: usize,
}

impl Default for AnalysisPolicy {
    fn default() -> Self {
        AnalysisPolicy {
            options: DelayOptions::default(),
            threads: 1,
        }
    }
}

impl AnalysisPolicy {
    /// A single-threaded policy wrapping the given engine options.
    #[must_use]
    pub fn with_options(options: DelayOptions) -> Self {
        AnalysisPolicy {
            options,
            ..AnalysisPolicy::default()
        }
    }

    /// Builder-style worker count (see [`threads`](Self::threads)).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The anytime analysis result: sound circuit-level delay bounds plus the
/// per-output breakdown of how each cone fared on the ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitReport {
    /// Sound lower bound on the circuit's 2-vector delay.
    pub lower: Time,
    /// Sound upper bound on the circuit's 2-vector delay.
    pub upper: Time,
    /// The exact delay, when every potentially-dominating cone resolved
    /// exactly (`lower == upper`).
    pub exact: Option<Time>,
    /// The circuit's topological delay (baseline).
    pub topological: Time,
    /// Per-output results with their ladder status.
    pub outputs: Vec<OutputDelay>,
    /// A sensitizing scenario for the largest exactly-resolved cone.
    pub witness: Option<DelayWitness>,
    /// Effort and degradation counters.
    pub stats: SearchStats,
}

impl CircuitReport {
    /// Whether every output resolved exactly (no degradation anywhere).
    pub fn all_exact(&self) -> bool {
        self.outputs.iter().all(OutputDelay::is_exact)
    }
}

impl std::fmt::Display for CircuitReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.exact {
            Some(d) => writeln!(f, "exact delay {} (topological {})", d, self.topological)?,
            None => writeln!(
                f,
                "delay within [{}, {}] (topological {})",
                self.lower, self.upper, self.topological
            )?,
        }
        for o in &self.outputs {
            match o.status {
                OutputStatus::Exact => {
                    writeln!(
                        f,
                        "  {}: {} (topological {})",
                        o.name, o.delay, o.topological
                    )?;
                }
                OutputStatus::Bounded {
                    lower,
                    upper,
                    cause,
                } => {
                    writeln!(
                        f,
                        "  {}: within [{lower}, {upper}] ({cause}; topological {})",
                        o.name, o.topological
                    )?;
                }
                OutputStatus::Fallback { cause } => {
                    writeln!(
                        f,
                        "  {}: ≤ {} ({cause}; topological bound)",
                        o.name, o.delay
                    )?;
                }
            }
        }
        write!(
            f,
            "  [{} breakpoints, {} LPs, {} retries, {} seq fallbacks, {} topo fallbacks, \
             {} panics caught]",
            self.stats.breakpoints_visited,
            self.stats.lps_solved,
            self.stats.retries,
            self.stats.sequences_fallbacks,
            self.stats.topological_fallbacks,
            self.stats.panics_caught
        )
    }
}

/// Analyzes the circuit with graceful degradation: never fails, always
/// returns sound `[lower, upper]` bounds on the exact 2-vector delay.
///
/// The module-level docs in `driver.rs` describe the ladder and the
/// threading model; per-output statuses report exactly where each cone
/// landed.
///
/// # Example
///
/// ```
/// use tbf_core::{analyze, AnalysisPolicy};
/// use tbf_logic::generators::adders::paper_bypass_adder;
/// use tbf_logic::Time;
///
/// let report = analyze(&paper_bypass_adder(), &AnalysisPolicy::default());
/// assert_eq!(report.exact, Some(Time::from_int(24)));
/// assert!(report.all_exact());
/// ```
#[must_use]
pub fn analyze(netlist: &Netlist, policy: &AnalysisPolicy) -> CircuitReport {
    analyze_budgeted(
        netlist,
        policy,
        AnalysisBudget::from_options(&policy.options).shared(),
    )
}

/// [`analyze`] with a cooperative [`CancelToken`]: cancel from another
/// thread and in-flight cones degrade to sound bounds at the next
/// allocation-granularity poll.
#[must_use]
pub fn analyze_with_token(
    netlist: &Netlist,
    policy: &AnalysisPolicy,
    token: CancelToken,
) -> CircuitReport {
    analyze_budgeted(
        netlist,
        policy,
        AnalysisBudget::from_options(&policy.options)
            .with_token(token)
            .shared(),
    )
}

/// [`analyze`] under a caller-supplied [`AnalysisBudget`] — the entry
/// point for long-running services that fork per-request budgets off a
/// session budget ([`AnalysisBudget::fork_request`]) instead of letting
/// the driver build one from the options. The budget's caps, deadline
/// and token apply exactly as if the analysis had created it; per-cone
/// forks are still taken off `budget` internally.
#[must_use]
pub fn analyze_with_budget(
    netlist: &Netlist,
    policy: &AnalysisPolicy,
    budget: Arc<AnalysisBudget>,
) -> CircuitReport {
    analyze_budgeted(netlist, policy, budget)
}

/// How one ladder rung ended.
enum Attempt<T> {
    Done(T),
    Error(DelayError),
    Panicked,
}

/// Runs `f` (a rung of one cone), isolating its panics. A panic
/// invalidates the engine — it is dropped for rebuild by the next rung.
fn run_rung<T>(
    engine: &mut Option<ConeContext>,
    f: impl FnOnce(&mut ConeContext) -> Result<T, DelayError>,
) -> Attempt<T> {
    let Some(eng) = engine.as_mut() else {
        return Attempt::Panicked; // caller ensures presence; treat as dead engine
    };
    match catch_unwind(AssertUnwindSafe(|| f(eng))) {
        Ok(Ok(v)) => Attempt::Done(v),
        Ok(Err(e)) => Attempt::Error(e),
        Err(_) => {
            // The manager may hold torn state; force a rebuild.
            *engine = None;
            Attempt::Panicked
        }
    }
}

/// Ensures the engine exists, rebuilding it after a panic or reset.
/// Returns the build error when construction itself exceeds the budget.
fn ensure_engine(
    netlist: &Arc<Netlist>,
    budget: &Arc<AnalysisBudget>,
    engine: &mut Option<ConeContext>,
) -> Result<(), DelayError> {
    if engine.is_none() {
        match ConeContext::new(Arc::clone(netlist), budget.clone()) {
            Ok(e) => *engine = Some(e),
            Err(a) => return Err(a.into_error(netlist.topological_delay(), budget)),
        }
    }
    Ok(())
}

/// One output's self-contained unit of work: the cone-restricted netlist
/// slice plus the map back into the full netlist's coordinates.
struct ConeJob {
    /// Output name (owned: jobs cross thread boundaries).
    name: String,
    /// The single-output cone netlist (shared with the engine built on
    /// it).
    cone: Arc<Netlist>,
    /// `node_map[i]` = full-netlist id of cone node `i`.
    node_map: Vec<NodeId>,
    /// The output's driver node *within the cone*.
    out_id: NodeId,
    /// The cone's retention key: byte-for-byte
    /// [`Netlist::cone_signature`] of this output, so equal keys mean
    /// structurally identical slices (kinds, fanins, delays, names).
    key: Vec<u8>,
}

impl ConeJob {
    fn new(netlist: &Netlist, output_index: usize) -> ConeJob {
        let slice = extract_cone_slice(netlist, output_index);
        let (name, out_id) = slice.netlist.outputs()[0].clone();
        let mut key = vec![b'C', 1u8];
        key.extend_from_slice(&slice.netlist.structural_signature());
        debug_assert_eq!(key, netlist.cone_signature(output_index));
        ConeJob {
            name,
            cone: Arc::new(slice.netlist),
            node_map: slice.node_map,
            out_id,
            key,
        }
    }

    /// Scheduling cost estimate: cone node count (a proxy for the BDD
    /// and path work ahead; exact cost is unknowable up front).
    fn cost(&self) -> usize {
        self.cone.len()
    }
}

/// What one cone job produces; merged in output order by the driver,
/// and retained verbatim in a [`ConeStore`] when the cone resolved
/// exactly.
#[derive(Clone)]
struct ConeOutcome {
    entry: OutputDelay,
    stats: SearchStats,
    /// Witness parts in *cone-local* coordinates, with the exact delay
    /// they realize (for the cross-cone "largest wins" fold). Remapped
    /// to full-netlist coordinates only at merge time, against whatever
    /// full netlist the merging request carries — a retained witness
    /// must not bake in a previous request's netlist.
    witness: Option<(Time, WitnessParts)>,
    /// The cone's phase subtree, captured on whichever worker ran the
    /// job and attached by the coordinator in netlist output order, so
    /// the merged tree never depends on scheduling (merge-on-join).
    #[cfg(feature = "obs")]
    phases: Vec<tbf_obs::PhaseNode>,
}

/// Translates cone-local witness parts into full-netlist coordinates:
/// inputs outside the cone default to `false`, nodes outside the cone to
/// their max delay — exactly the defaults the single-engine extraction
/// used for variables absent from the satisfying cube.
fn remap_witness(full: &Netlist, job: &ConeJob, parts: WitnessParts) -> DelayWitness {
    let (cone_before, cone_after, cone_delays) = parts;
    let n_in = full.inputs().len();
    let mut before = vec![false; n_in];
    let mut after = vec![false; n_in];
    for (ci, &cid) in job.cone.inputs().iter().enumerate() {
        let src = job.node_map[cid.index()];
        if let Some(pos) = full.input_position(src) {
            before[pos] = cone_before[ci];
            after[pos] = cone_after[ci];
        }
    }
    let mut delays: Vec<Time> = full.nodes().map(|(_, node)| node.delay().max).collect();
    for (ci, &src) in job.node_map.iter().enumerate() {
        delays[src.index()] = cone_delays[ci];
    }
    DelayWitness {
        output: job.name.clone(),
        before,
        after,
        delays,
    }
}

/// Resolves the policy's thread knob against the job count, with `0`
/// meaning the core count.
fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    workers.clamp(1, jobs.max(1))
}

/// What one incremental analysis did with the retained state: how many
/// cones were answered from the store and how many actually ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EcoStats {
    /// Cones whose slice signature was unchanged and whose retained
    /// result was merged back without any recomputation.
    pub reused: usize,
    /// Cones that ran the ladder (changed slices, never-seen slices, or
    /// all cones when result reuse was off for the request).
    pub recomputed: usize,
}

/// One retained exact cone result, stored in *cone-local* coordinates
/// so it can be merged into any later request whose slice is
/// structurally identical — whatever the rest of that request's
/// netlist looks like.
struct StoredCone {
    outcome: ConeOutcome,
    /// LRU stamp ([`ConeStore::epoch`] at last use).
    touched: u64,
}

/// The incremental engine's retention store: exact per-cone results
/// keyed by the cone slice's structural signature
/// ([`Netlist::cone_signature`]). The key covers gate kinds, fanins,
/// delay annotations and input/output names, so a hit is only possible
/// for a structurally identical slice — which is exactly the
/// invalidation rule: any edit inside a cone changes its signature and
/// the stale entry simply stops being found.
///
/// Reuse policy, mirroring the serve warm cache: results are retained
/// only when exact (degraded outcomes depend on caps and deadlines, not
/// just the slice), and merged back only for requests without a
/// deadline — a deadline run must behave like a cold start so results
/// never depend on what happened to be retained.
///
/// Capacity is bounded: least-recently-used entries are evicted once the
/// store exceeds its capacity, oldest first with the key as tie-break,
/// so eviction is deterministic given the request sequence.
pub struct ConeStore {
    entries: HashMap<Vec<u8>, StoredCone>,
    epoch: u64,
    capacity: usize,
}

impl ConeStore {
    /// An empty store retaining at most `capacity` cones (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> ConeStore {
        ConeStore {
            entries: HashMap::new(),
            epoch: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of retained cones.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops everything (post-panic hygiene for long-lived sessions).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The retained exact outcome for `key`, if one exists.
    fn reused_outcome(&mut self, key: &[u8]) -> Option<ConeOutcome> {
        let e = self.entries.get_mut(key)?;
        e.touched = self.epoch;
        Some(e.outcome.clone())
    }

    /// Retains a freshly run cone's outcome if it is exact, then
    /// enforces capacity.
    fn retain(&mut self, key: &[u8], outcome: &ConeOutcome) {
        if !outcome.entry.is_exact() {
            return;
        }
        let outcome = ConeOutcome {
            // The phase subtree records this run's work; a request that
            // reuses the cone does none, so it must not replay the spans.
            #[cfg(feature = "obs")]
            phases: Vec::new(),
            ..outcome.clone()
        };
        self.entries.insert(
            key.to_vec(),
            StoredCone {
                outcome,
                touched: self.epoch,
            },
        );
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by(|a, b| (a.1.touched, a.0).cmp(&(b.1.touched, b.0)))
                .map(|(k, _)| k.clone())
                .expect("non-empty above capacity");
            self.entries.remove(&victim);
        }
    }
}

/// Incremental (ECO) whole-circuit analysis against a retention `store`.
///
/// Behaves exactly like [`analyze_with_budget`] — the returned
/// [`CircuitReport`] is byte-identical to a cold run on the same netlist
/// and policy — but cones whose slice signature is already retained with
/// an exact result are merged back without recomputation, and every cone
/// that runs and resolves exactly deposits its result for the next
/// request.
///
/// `reuse_results` gates the read side: pass `false` for volatile
/// (deadline-bearing) requests, which must recompute every cone like a
/// cold start; exact results from such runs are still written back.
///
/// The second return value reports the reuse split; under the `obs`
/// feature an observed run also folds the same numbers into the budget's
/// counter registry as `eco_cones_reused` / `eco_cones_recomputed`.
#[must_use]
pub fn analyze_eco(
    netlist: &Netlist,
    policy: &AnalysisPolicy,
    budget: Arc<AnalysisBudget>,
    store: &mut ConeStore,
    reuse_results: bool,
) -> (CircuitReport, EcoStats) {
    #[cfg(feature = "obs")]
    let counters = budget.counters().cloned();
    let (report, eco) = analyze_impl(netlist, policy, budget, Some((store, reuse_results)));
    #[cfg(feature = "obs")]
    if let Some(counters) = counters {
        counters.add(tbf_obs::Metric::EcoConesReused, eco.reused as u64);
        counters.add(tbf_obs::Metric::EcoConesRecomputed, eco.recomputed as u64);
    }
    (report, eco)
}

fn analyze_budgeted(
    netlist: &Netlist,
    policy: &AnalysisPolicy,
    budget: Arc<AnalysisBudget>,
) -> CircuitReport {
    analyze_impl(netlist, policy, budget, None).0
}

fn analyze_impl(
    netlist: &Netlist,
    policy: &AnalysisPolicy,
    budget: Arc<AnalysisBudget>,
    mut eco: Option<(&mut ConeStore, bool)>,
) -> (CircuitReport, EcoStats) {
    // Snapshot the calling thread's fault plan once; every cone job
    // re-arms a fresh copy so the fault schedule is per-cone
    // deterministic whatever the worker count.
    let plan = fault::snapshot();
    let jobs: Vec<ConeJob> = (0..netlist.outputs().len())
        .map(|i| ConeJob::new(netlist, i))
        .collect();

    if let Some((store, _)) = eco.as_mut() {
        store.epoch += 1;
    }

    // Partition against the store: cones whose slice signature is
    // retained with an exact result are merged back verbatim (the reuse
    // set); everything else runs the ladder on a fresh engine.
    let mut outcomes: Vec<Option<ConeOutcome>> = jobs.iter().map(|_| None).collect();
    let mut reused = 0usize;
    if let Some((store, true)) = eco.as_mut() {
        for (i, job) in jobs.iter().enumerate() {
            outcomes[i] = store.reused_outcome(&job.key);
            reused += usize::from(outcomes[i].is_some());
        }
    }
    let ran: Vec<bool> = outcomes.iter().map(Option::is_none).collect();

    // Largest estimated cone first, original order as the tie-break, so
    // the most expensive cone starts immediately instead of serializing
    // the tail of the schedule.
    let mut order: Vec<usize> = (0..jobs.len()).filter(|&i| ran[i]).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(jobs[i].cost()), i));

    let threads = resolve_threads(policy.threads, order.len());
    if threads <= 1 {
        for &i in &order {
            outcomes[i] = Some(run_cone_job(&jobs[i], policy, &budget, &plan));
        }
    } else {
        let next = AtomicUsize::new(0);
        let finished = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine: Vec<(usize, ConeOutcome)> = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = order.get(k) else { break };
                            mine.push((i, run_cone_job(&jobs[i], policy, &budget, &plan)));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    // Rungs catch their own panics; anything raised
                    // outside a rung propagates exactly like the
                    // sequential path would.
                    h.join().unwrap_or_else(|payload| resume_unwind(payload))
                })
                .collect::<Vec<_>>()
        });
        for (i, outcome) in finished {
            outcomes[i] = Some(outcome);
        }
    }

    // Deterministic merge in netlist output order. Witnesses are
    // remapped to full-netlist coordinates here, against *this*
    // request's netlist — retained parts carry only cone coordinates.
    let mut stats = SearchStats::default();
    let mut outputs: Vec<OutputDelay> = Vec::with_capacity(jobs.len());
    let mut witness: Option<DelayWitness> = None;
    let mut witness_delay = Time::MIN;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let Some(mut outcome) = outcome else { continue };
        stats.merge(&outcome.stats);
        if let Some((store, _)) = eco.as_mut() {
            if ran[i] {
                store.retain(&jobs[i].key, &outcome);
            }
        }
        #[cfg(feature = "obs")]
        tbf_obs::phase::attach(std::mem::take(&mut outcome.phases));
        if let Some((delay, parts)) = outcome.witness.take() {
            if delay > witness_delay {
                witness = Some(remap_witness(netlist, &jobs[i], parts));
                witness_delay = delay;
            }
        }
        outputs.push(outcome.entry);
    }

    let lower = outputs
        .iter()
        .map(|o| o.bounds().0)
        .max()
        .unwrap_or(Time::ZERO);
    let upper = outputs
        .iter()
        .map(|o| o.bounds().1)
        .max()
        .unwrap_or(Time::ZERO);
    let report = CircuitReport {
        lower,
        upper,
        exact: (lower == upper).then_some(upper),
        topological: netlist.topological_delay(),
        outputs,
        witness,
        stats,
    };
    let eco_stats = EcoStats {
        reused,
        recomputed: ran.iter().filter(|&&r| r).count(),
    };
    (report, eco_stats)
}

/// Runs one cone job end to end on the current thread: re-arm the fault
/// plan, fork an independent budget, build a fresh engine on the cone
/// slice and walk the ladder. The witness stays in cone coordinates for
/// the merge.
fn run_cone_job(
    job: &ConeJob,
    policy: &AnalysisPolicy,
    base: &Arc<AnalysisBudget>,
    plan: &fault::ConePlan,
) -> ConeOutcome {
    fault::with_cone_plan(plan, || {
        let budget = Arc::new(base.fork(&policy.options));
        let run = || {
            let mut stats = SearchStats::default();
            let (entry, witness) = cone_rungs(job, &budget, &mut stats);
            ConeOutcome {
                entry,
                stats,
                witness,
                #[cfg(feature = "obs")]
                phases: Vec::new(),
            }
        };
        // In an observed run (its budget carries the session's counter
        // registry), capture the cone's phase subtree on this worker; the
        // driver attaches it in output order so the tree is
        // schedule-independent. An unobserved run records no spans.
        #[cfg(feature = "obs")]
        if budget.counters().is_some() {
            let (mut outcome, phases) = tbf_obs::phase::capture(|| {
                let _cone = crate::obs::RungSpan::open(&format!("cone:{}", job.name), &budget);
                run()
            });
            outcome.phases = phases;
            return outcome;
        }
        run()
    })
}

/// Runs one cone down the full ladder; always returns an entry, plus the
/// witness parts when the cone resolved exactly with a transition.
fn cone_rungs(
    job: &ConeJob,
    budget: &Arc<AnalysisBudget>,
    stats: &mut SearchStats,
) -> (OutputDelay, Option<(Time, WitnessParts)>) {
    let engine: &mut Option<ConeContext> = &mut None;
    let cone = &job.cone;
    let out_id = job.out_id;
    let name = job.name.as_str();
    let topological = cone.topological_delay_of(out_id);
    let mut lower = Time::ZERO;
    let mut upper = topological;
    let mut cause;
    let mut panicked = false;
    let mut have_error_bound = false;

    // Rungs 1–2: exact search, retried with escalated caps from the
    // breakpoint that capped.
    let mut attempts = 0usize;
    let mut resume = None;
    #[cfg(feature = "obs")]
    let mut rung_name = "two_vector_exact";
    loop {
        #[cfg(feature = "obs")]
        let _rung = crate::obs::RungSpan::open(rung_name, budget);
        if let Err(e) = ensure_engine(cone, budget, engine) {
            cause = DegradeCause::from_error(&e).unwrap_or(DegradeCause::InternalInvariant);
            if let Some((lo, hi)) = e.bounds() {
                lower = lower.max(lo);
                upper = upper.min(hi);
                have_error_bound = true;
            }
            break;
        }
        let attempt: Attempt<(Time, Option<WitnessParts>)> = run_rung(engine, |eng| {
            if fault::trip(Site::ConeStart) {
                panic!("injected engine panic (fault site ConeStart)");
            }
            crate::model::cone_delay(
                &mut crate::two_vector::TwoVector,
                eng,
                out_id,
                resume,
                stats,
            )
        });
        match attempt {
            Attempt::Done((delay, w)) => {
                let entry = OutputDelay {
                    name: name.to_owned(),
                    delay,
                    topological,
                    status: OutputStatus::Exact,
                };
                return (entry, w.map(|parts| (delay, parts)));
            }
            Attempt::Panicked => {
                stats.panics_caught += 1;
                cause = DegradeCause::EnginePanic;
                panicked = true;
                break;
            }
            Attempt::Error(e) => {
                cause = DegradeCause::from_error(&e).unwrap_or(DegradeCause::InternalInvariant);
                if let Some((lo, hi)) = e.bounds() {
                    lower = lower.max(lo);
                    upper = upper.min(hi);
                    have_error_bound = true;
                }
                let retryable = matches!(
                    cause,
                    DegradeCause::TooManyPaths
                        | DegradeCause::BddTooLarge
                        | DegradeCause::TooManyCubes
                );
                if retryable && attempts < MAX_RETRIES {
                    attempts += 1;
                    stats.retries += 1;
                    #[cfg(feature = "obs")]
                    {
                        rung_name = "escalated_retry";
                    }
                    budget.escalate(ESCALATION_FACTOR);
                    // Every interval above the capped breakpoint tested
                    // transition-free, an answer no cap changes: the
                    // retry resumes there instead of re-testing them.
                    resume = e.at_breakpoint();
                    // Reset drops dead nodes and rebuilds statics under
                    // the new caps; a failed reset forces a fresh engine.
                    if let Some(eng) = engine.as_mut() {
                        if eng.reset().is_err() {
                            *engine = None;
                        }
                    }
                    continue;
                }
                break;
            }
        }
    }

    // Rung 3: sequences upper bound. Skipped after a panic (a panicking
    // engine degrades straight to the topological bound) and once the
    // budget is interrupted (it would fail identically at its first
    // poll).
    if !panicked && budget.cause().is_none() && ensure_engine(cone, budget, engine).is_ok() {
        #[cfg(feature = "obs")]
        let _rung = crate::obs::RungSpan::open("sequences_bound", budget);
        let attempt: Attempt<Time> = run_rung(engine, |eng| {
            crate::model::cone_delay(&mut crate::sequences::Sequences, eng, out_id, None, stats)
                .map(|(t, _)| t)
        });
        match attempt {
            Attempt::Done(seq) => {
                stats.sequences_fallbacks += 1;
                let seq_upper = upper.min(seq);
                let entry = OutputDelay {
                    name: name.to_owned(),
                    delay: seq_upper,
                    topological,
                    status: OutputStatus::Bounded {
                        lower,
                        upper: seq_upper,
                        cause,
                    },
                };
                return (entry, None);
            }
            Attempt::Panicked => {
                stats.panics_caught += 1;
            }
            Attempt::Error(_) => {}
        }
    }

    // Rung 4: bounds from the failed search if it established any, else
    // the bare topological fallback.
    let entry = if have_error_bound && (upper < topological || lower > Time::ZERO) {
        OutputDelay {
            name: name.to_owned(),
            delay: upper,
            topological,
            status: OutputStatus::Bounded {
                lower,
                upper,
                cause,
            },
        }
    } else {
        #[cfg(feature = "obs")]
        let _rung = crate::obs::RungSpan::open("topological_bound", budget);
        stats.topological_fallbacks += 1;
        OutputDelay {
            name: name.to_owned(),
            delay: topological,
            topological,
            status: OutputStatus::Fallback { cause },
        }
    };
    (entry, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbf_logic::generators::adders::paper_bypass_adder;
    use tbf_logic::generators::figures::{figure1_three_paths, figure4_example3};
    use tbf_logic::{DelayBounds, GateKind};

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    #[test]
    fn paper_examples_resolve_exactly() {
        let p = AnalysisPolicy::default();
        let r = analyze(&figure4_example3(), &p);
        assert_eq!(r.exact, Some(t(4)));
        let r = analyze(&figure1_three_paths(), &p);
        assert_eq!(r.exact, Some(t(5)));
        let r = analyze(&paper_bypass_adder(), &p);
        assert_eq!(r.exact, Some(t(24)));
        assert!(r.all_exact());
        assert_eq!(r.stats.retries, 0);
        assert_eq!(r.stats.panics_caught, 0);
    }

    #[test]
    fn parallel_report_is_byte_identical_to_sequential() {
        for n in [paper_bypass_adder(), figure1_three_paths()] {
            let sequential = analyze(&n, &AnalysisPolicy::default());
            for threads in [2, 4, 0] {
                let parallel = analyze(&n, &AnalysisPolicy::default().with_threads(threads));
                assert_eq!(sequential, parallel, "threads={threads}");
            }
        }
    }

    #[test]
    fn retry_with_escalated_caps_recovers_exactness() {
        // 10 parallel variable-delay buffers into an XOR: 10 straddling
        // paths. Cap 3 fails; one 4× escalation lifts it to 12 ≥ 10.
        let mut b = Netlist::builder();
        let x = b.input("x");
        let mut bufs = Vec::new();
        for i in 0..10 {
            bufs.push(
                b.gate(
                    GateKind::Buf,
                    &format!("b{i}"),
                    vec![x],
                    DelayBounds::new(t(1), t(3)),
                )
                .unwrap(),
            );
        }
        let g = b
            .gate(GateKind::Xor, "g", bufs, DelayBounds::fixed(t(1)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let policy = AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 3,
            ..DelayOptions::default()
        });
        let r = analyze(&n, &policy);
        assert!(r.stats.retries >= 1, "escalation should have happened");
        assert!(r.all_exact(), "escalated caps fit: {r}");
        assert_eq!(r.exact, Some(t(4)));
    }

    /// `f = OR(g, h)`: `g` XORs ten buffers of `x` (ten straddling paths
    /// of length [3, 5] at breakpoint 5) and `h` XORs two fixed 10-unit
    /// buffers of `z`, which denote the same TBF variable and cancel, so
    /// the top breakpoint 12 tests transition-free with no straddling
    /// path.
    fn caps_below_the_top_breakpoint() -> Netlist {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let z = b.input("z");
        let bufs = (0..10)
            .map(|i| {
                b.gate(
                    GateKind::Buf,
                    &format!("b{i}"),
                    vec![x],
                    DelayBounds::new(t(1), t(3)),
                )
                .unwrap()
            })
            .collect();
        let g = b
            .gate(GateKind::Xor, "g", bufs, DelayBounds::fixed(t(1)))
            .unwrap();
        let late = (0..2)
            .map(|i| {
                b.gate(
                    GateKind::Buf,
                    &format!("c{i}"),
                    vec![z],
                    DelayBounds::fixed(t(10)),
                )
                .unwrap()
            })
            .collect();
        let h = b
            .gate(GateKind::Xor, "h", late, DelayBounds::fixed(t(1)))
            .unwrap();
        let f = b
            .gate(GateKind::Or, "f", vec![g, h], DelayBounds::fixed(t(1)))
            .unwrap();
        b.output("f", f);
        b.finish().unwrap()
    }

    #[test]
    fn the_escalated_retry_resumes_at_the_capped_breakpoint() {
        let n = caps_below_the_top_breakpoint();
        let out = n.find("f").unwrap();
        let capped = DelayOptions {
            max_straddling_paths: 3,
            ..DelayOptions::default()
        };
        let sweep = |options: &DelayOptions, resume, stats: &mut SearchStats| {
            let budget = AnalysisBudget::from_options(options).shared();
            let mut cx = ConeContext::new(Arc::new(n.clone()), budget).unwrap();
            crate::model::cone_delay(
                &mut crate::two_vector::TwoVector,
                &mut cx,
                out,
                resume,
                stats,
            )
        };
        // The first attempt clears 12 and caps at 5 (ten paths, cap 3).
        let mut first = SearchStats::default();
        let capped_at = sweep(&capped, None, &mut first)
            .unwrap_err()
            .at_breakpoint();
        assert_eq!(capped_at, Some(t(5)));
        assert_eq!(first.breakpoints_visited, 2);
        // Under caps that fit, the sweep from 5 down resolves the cone.
        let mut rest = SearchStats::default();
        let escalated = DelayOptions {
            max_straddling_paths: 12,
            ..DelayOptions::default()
        };
        sweep(&escalated, capped_at, &mut rest).unwrap();

        let r = analyze(&n, &AnalysisPolicy::with_options(capped));
        assert_eq!(r.stats.retries, 1);
        assert!(r.all_exact(), "{r}");
        let uncapped = crate::two_vector_delay(&n, &DelayOptions::default()).unwrap();
        assert_eq!(r.exact, Some(uncapped.delay));
        assert_eq!(r.exact, Some(t(5)));
        assert_eq!(r.witness, uncapped.witness);
        assert_eq!(
            r.stats.breakpoints_visited,
            first.breakpoints_visited + rest.breakpoints_visited,
            "the retry re-tested breakpoints above the cap"
        );
    }

    /// Two cones: "hard" is the 10-buffer XOR above (10 straddling
    /// paths), "easy" a single inverter (one path).
    fn hard_and_easy() -> Netlist {
        let mut b = Netlist::builder();
        let x = b.input("x");
        let y = b.input("y");
        let mut bufs = Vec::new();
        for i in 0..10 {
            bufs.push(
                b.gate(
                    GateKind::Buf,
                    &format!("b{i}"),
                    vec![x],
                    DelayBounds::new(t(1), t(3)),
                )
                .unwrap(),
            );
        }
        let hard = b
            .gate(GateKind::Xor, "hard", bufs, DelayBounds::fixed(t(1)))
            .unwrap();
        let easy = b
            .gate(GateKind::Not, "easy", vec![y], DelayBounds::new(t(1), t(2)))
            .unwrap();
        b.output("hard", hard);
        b.output("easy", easy);
        b.finish().unwrap()
    }

    #[test]
    fn escalation_does_not_leak_into_sibling_cones() {
        // Output "hard" needs escalation (10 straddling paths under a cap
        // of 3); output "easy" does not. The easy cone's budget fork must
        // still see the configured cap, whatever order the cones ran in —
        // checked indirectly: the report is identical across thread
        // counts and the easy cone stays exact.
        let n = hard_and_easy();
        let policy = AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 3,
            ..DelayOptions::default()
        });
        let sequential = analyze(&n, &policy);
        assert!(sequential.all_exact(), "{sequential}");
        assert!(sequential.stats.retries >= 1);
        for threads in [2, 4] {
            let parallel = analyze(&n, &policy.clone().with_threads(threads));
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn exhausted_retries_degrade_with_sound_bounds() {
        // Same circuit, but the one retry can't reach 10 paths: caps 1 → 4.
        let mut b = Netlist::builder();
        let x = b.input("x");
        let mut bufs = Vec::new();
        for i in 0..10 {
            bufs.push(
                b.gate(
                    GateKind::Buf,
                    &format!("b{i}"),
                    vec![x],
                    DelayBounds::new(t(1), t(3)),
                )
                .unwrap(),
            );
        }
        let g = b
            .gate(GateKind::Xor, "g", bufs, DelayBounds::fixed(t(1)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let policy = AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 1,
            ..DelayOptions::default()
        });
        let r = analyze(&n, &policy);
        assert!(!r.all_exact());
        // The exact delay is 4; whatever ladder rung produced the answer,
        // the bounds must contain it.
        assert!(r.lower <= t(4) && t(4) <= r.upper, "{r}");
        assert_eq!(r.stats.retries, 1);
    }

    #[test]
    fn zero_time_budget_still_reports_bounds() {
        let policy = AnalysisPolicy::with_options(DelayOptions {
            time_budget: Some(std::time::Duration::ZERO),
            ..DelayOptions::default()
        });
        let r = analyze(&paper_bypass_adder(), &policy);
        assert!(!r.all_exact());
        assert!(r.lower <= t(24) && t(24) <= r.upper, "{r}");
        assert_eq!(r.topological, t(40));
        for o in &r.outputs {
            match o.status {
                OutputStatus::Bounded { cause, .. } | OutputStatus::Fallback { cause } => {
                    assert_eq!(cause, DegradeCause::TimedOut);
                }
                OutputStatus::Exact => panic!("zero budget cannot be exact"),
            }
        }
    }

    #[test]
    fn pre_cancelled_token_degrades_every_cone() {
        let token = CancelToken::new();
        token.cancel();
        let r = analyze_with_token(&paper_bypass_adder(), &AnalysisPolicy::default(), token);
        assert!(!r.all_exact());
        assert!(r.upper <= t(40));
        assert!(r.lower <= t(24) && t(24) <= r.upper);
        for o in &r.outputs {
            match o.status {
                OutputStatus::Bounded { cause, .. } | OutputStatus::Fallback { cause } => {
                    assert_eq!(cause, DegradeCause::Cancelled);
                }
                OutputStatus::Exact => panic!("cancelled analysis cannot be exact"),
            }
        }
    }

    #[test]
    fn pre_cancelled_token_degrades_identically_across_threads() {
        let cancelled = || {
            let token = CancelToken::new();
            token.cancel();
            token
        };
        let n = paper_bypass_adder();
        let sequential = analyze_with_token(&n, &AnalysisPolicy::default(), cancelled());
        let parallel =
            analyze_with_token(&n, &AnalysisPolicy::default().with_threads(4), cancelled());
        assert_eq!(sequential, parallel);
    }

    /// `a,b,c` feeding two independent cones: `f1 = AND(a,b)` and
    /// `f2 = <kind>(b,c)` — editing `f2`'s gate must never touch `f1`.
    fn two_cone_circuit(second: GateKind) -> Netlist {
        let mut b = Netlist::builder();
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("c");
        let g1 = b
            .gate(
                GateKind::And,
                "g1",
                vec![a, x],
                DelayBounds::new(t(1), t(2)),
            )
            .unwrap();
        let g2 = b
            .gate(second, "g2", vec![x, c], DelayBounds::new(t(1), t(3)))
            .unwrap();
        b.output("f1", g1);
        b.output("f2", g2);
        b.finish().unwrap()
    }

    #[test]
    fn eco_reuses_unchanged_cones_and_matches_cold_runs() {
        let policy = AnalysisPolicy::default();
        let budget = || AnalysisBudget::from_options(&policy.options).shared();
        let base = two_cone_circuit(GateKind::Or);
        let edited = two_cone_circuit(GateKind::Xor);
        let mut store = ConeStore::new(64);

        // Cold start: nothing retained, everything runs.
        let (r1, e1) = analyze_eco(&base, &policy, budget(), &mut store, true);
        assert_eq!(r1, analyze(&base, &policy));
        assert_eq!(
            e1,
            EcoStats {
                reused: 0,
                recomputed: 2
            }
        );

        // One-gate edit: only the edited cone recomputes, and the report
        // is byte-identical to a cold run on the edited netlist.
        let (r2, e2) = analyze_eco(&edited, &policy, budget(), &mut store, true);
        assert_eq!(r2, analyze(&edited, &policy));
        assert_eq!(
            e2,
            EcoStats {
                reused: 1,
                recomputed: 1
            }
        );

        // Undo: both slices are retained now, so nothing runs at all.
        let (r3, e3) = analyze_eco(&base, &policy, budget(), &mut store, true);
        assert_eq!(r3, analyze(&base, &policy));
        assert_eq!(
            e3,
            EcoStats {
                reused: 2,
                recomputed: 0
            }
        );
    }

    #[test]
    fn eco_identity_request_reuses_every_cone_with_witness_intact() {
        let policy = AnalysisPolicy::default();
        let budget = || AnalysisBudget::from_options(&policy.options).shared();
        let n = paper_bypass_adder();
        let cold = analyze(&n, &policy);
        assert!(cold.witness.is_some(), "adder should produce a witness");
        let mut store = ConeStore::new(64);
        let (first, _) = analyze_eco(&n, &policy, budget(), &mut store, true);
        let (second, eco) = analyze_eco(&n, &policy, budget(), &mut store, true);
        assert_eq!(first, cold);
        assert_eq!(second, cold);
        assert_eq!(eco.reused, n.outputs().len());
        assert_eq!(eco.recomputed, 0);
    }

    #[test]
    fn eco_volatile_requests_recompute_everything_but_still_retain() {
        let policy = AnalysisPolicy::default();
        let budget = || AnalysisBudget::from_options(&policy.options).shared();
        let n = two_cone_circuit(GateKind::Or);
        let mut store = ConeStore::new(64);
        // A volatile request never reads retained results...
        let (r1, e1) = analyze_eco(&n, &policy, budget(), &mut store, false);
        let (r2, e2) = analyze_eco(&n, &policy, budget(), &mut store, false);
        assert_eq!(r1, analyze(&n, &policy));
        assert_eq!(r2, r1);
        assert_eq!(e1.reused + e2.reused, 0);
        assert_eq!(e2.recomputed, 2);
        // ...but its exact results are written back for later reuse.
        let (r3, e3) = analyze_eco(&n, &policy, budget(), &mut store, true);
        assert_eq!(r3, r1);
        assert_eq!(e3.reused, 2);
    }

    #[test]
    fn eco_store_retains_exact_cones_only() {
        // Under the caps of `exhausted_retries_degrade_with_sound_bounds`
        // "hard" degrades; its sibling "easy" resolves exactly.
        let n = hard_and_easy();
        let policy = AnalysisPolicy::with_options(DelayOptions {
            max_straddling_paths: 1,
            ..DelayOptions::default()
        });
        let budget = || AnalysisBudget::from_options(&policy.options).shared();
        let mut store = ConeStore::new(64);
        let (r1, e1) = analyze_eco(&n, &policy, budget(), &mut store, true);
        assert!(!r1.outputs[0].is_exact(), "{r1}");
        assert!(r1.outputs[1].is_exact(), "{r1}");
        assert_eq!(e1.recomputed, 2);
        // Only the exact sibling takes a slot.
        assert_eq!(store.len(), 1);
        // A repeat reuses the sibling and reruns only the degraded cone.
        let (r2, e2) = analyze_eco(&n, &policy, budget(), &mut store, true);
        assert_eq!(r2, r1);
        assert_eq!(
            e2,
            EcoStats {
                reused: 1,
                recomputed: 1
            }
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn eco_store_capacity_evicts_least_recently_used() {
        let policy = AnalysisPolicy::default();
        let budget = || AnalysisBudget::from_options(&policy.options).shared();
        let or_variant = two_cone_circuit(GateKind::Or);
        let xor_variant = two_cone_circuit(GateKind::Xor);
        // Capacity 1: each two-cone request evicts down to one entry, so
        // at most one cone can ever be answered from the store.
        let mut store = ConeStore::new(1);
        let (_, _) = analyze_eco(&or_variant, &policy, budget(), &mut store, true);
        assert_eq!(store.len(), 1);
        let (r, eco) = analyze_eco(&xor_variant, &policy, budget(), &mut store, true);
        assert_eq!(r, analyze(&xor_variant, &policy));
        assert!(eco.reused <= 1, "{eco:?}");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn thread_resolution_clamps_sanely() {
        assert_eq!(resolve_threads(1, 5), 1);
        assert_eq!(resolve_threads(8, 5), 5);
        assert_eq!(resolve_threads(3, 5), 3);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(4, 0), 1);
    }

    #[test]
    fn display_shows_status_lines() {
        let r = analyze(&paper_bypass_adder(), &AnalysisPolicy::default());
        let s = r.to_string();
        assert!(s.contains("exact delay 24"), "{s}");
        assert!(s.contains("topological 40"), "{s}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn only_observed_cone_jobs_record_phases() {
        let job = ConeJob::new(&paper_bypass_adder(), 0);
        let policy = AnalysisPolicy::default();
        let run = || {
            let base = AnalysisBudget::from_options(&policy.options).shared();
            run_cone_job(&job, &policy, &base, &fault::snapshot())
        };
        assert!(run().phases.is_empty());
        let (observed, _) = crate::obs::observe(run);
        let names: Vec<&str> = observed.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["cone:cout"]);
    }
}
