//! Implicit TBF-network construction (paper §7.1–§7.2).
//!
//! At a query point `t = b⁻` the circuit's Timed Boolean Function is
//! materialized as a BDD by a reverse walk from the output that carries
//! the accumulated suffix-delay interval:
//!
//! * once every completion of the current partial path is **positive**
//!   (`suffixᵐᵃˣ + arrivalᵐᵃˣ(n) < b`), the whole sub-cone collapses to
//!   the node's static function over the `x(0⁺)` variables,
//! * once every completion is **negative**
//!   (`suffixᵐⁱⁿ + arrivalᵐⁱⁿ(n) ≥ b`), it collapses to the static
//!   function over the `x(0⁻)` variables,
//! * only **delay-dependent** (straddling) partial paths are expanded, and
//!   each straddling TBF variable `x(t−k)` becomes the resolvent
//!   expression `s·x(0⁺) + s̄·x(0⁻)` of §7.2.
//!
//! Two paths carry the *same* TBF variable — and must share a resolvent —
//! exactly when their delay sums are identical as functions of the gate
//! delay variables: same multiset of variable-delay gates and equal
//! fixed-delay contribution. This refinement is what makes Example 5
//! (Figure 6, fixed delays) come out exact: both paths denote `x(t−2)`,
//! the conjunction `x(t−2)·x̄(t−2)` is identically 0, and the delay by
//! sequences of vectors is 0 while the floating delay is 2.
//!
//! # Variable ordering and manager lifecycle
//!
//! Variables are laid out for small BDDs: primary inputs in **fanin-DFS
//! order** from the outputs (the classical netlist ordering heuristic),
//! each input's `x(0⁺)`, `x(0⁻)` and a reserved block of
//! resolvent/fresh-variable **slots adjacent** to it. Keeping a resolvent
//! next to the input it selects is what keeps XOR-rich circuits (parity
//! trees, adders) polynomial: the difference function factors into
//! contiguous-support blocks instead of remembering one bit per input
//! across the whole order.
//!
//! One [`ConeContext`] per netlist holds the manager and the two static
//! evaluations; queries at successive breakpoints reuse them. The manager
//! is compacted (rebuilt, statics re-derived) when dead nodes from past
//! queries accumulate, and the slot blocks grow geometrically if a
//! breakpoint needs more simultaneous variables per input than reserved.
//!
//! # Budgets and interruption
//!
//! Every engine holds an [`AnalysisBudget`]; its caps are read live (the
//! degradation ladder escalates them between retries without rebuilding
//! the engine) and its deadline/cancel state is polled at every recursion
//! step *and* — via a cancel probe handed to the budgeted BDD operations —
//! at node-allocation granularity inside each BDD call, so even one huge
//! XOR cannot overshoot a deadline by more than a cache-stride of
//! allocations.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tbf_bdd::{Bdd, BddManager, GcPolicy, GcStats, OpAbort, OpBudget, Var};
use tbf_logic::paths::BreakpointSweep;
use tbf_logic::{Netlist, NodeId, Time};

use crate::budget::AnalysisBudget;
use crate::error::DelayError;
use crate::fault::{self, Site};
use crate::static_fn::{build_statics, gate_bdd};
use crate::tbf::{SuffixTracker, TimedTable, TimedVarId, TimedVarKey};

/// Abort reasons local to the network build; the engines attach bounds
/// and convert to [`DelayError`](crate::DelayError).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BuildAbort {
    TooManyPaths {
        limit: usize,
    },
    BddTooLarge {
        limit: usize,
    },
    /// The budget's deadline or cancellation token fired mid-build. The
    /// engines consult [`AnalysisBudget::cause`] to pick the error.
    Interrupted,
}

impl BuildAbort {
    /// Folds a budgeted BDD-operation abort into a build abort.
    pub(crate) fn from_op(a: OpAbort) -> BuildAbort {
        match a {
            OpAbort::NodeLimit(e) => BuildAbort::BddTooLarge { limit: e.limit },
            OpAbort::Cancelled => BuildAbort::Interrupted,
        }
    }

    /// Converts to the engine-level error at breakpoint `b`, with the
    /// conservative per-cone bounds `(0, b)`.
    pub(crate) fn into_error(self, b: Time, budget: &AnalysisBudget) -> DelayError {
        match self {
            BuildAbort::TooManyPaths { limit } => DelayError::TooManyPaths {
                limit,
                at_breakpoint: b,
                bounds: (Time::ZERO, b),
            },
            BuildAbort::BddTooLarge { limit } => DelayError::BddTooLarge {
                limit,
                at_breakpoint: b,
                bounds: (Time::ZERO, b),
            },
            BuildAbort::Interrupted => budget.interrupt_error(b, (Time::ZERO, b)),
        }
    }
}

/// One resolvent: the Boolean selector of a delay-dependent TBF variable
/// together with the gate set whose delay sum it compares `t` against.
#[derive(Clone, Debug)]
pub(crate) struct Resolvent {
    pub var: Var,
    /// All gates on (one representative of) the path; the LP constraint
    /// is `t ≷ Σ_{g∈gates} d_g`.
    pub gates: Vec<NodeId>,
}

/// Primary-input positions in depth-first fanin order from the outputs —
/// the standard static variable-ordering heuristic for netlist BDDs.
fn dfs_input_order(netlist: &Netlist) -> Vec<usize> {
    let mut order = Vec::with_capacity(netlist.inputs().len());
    let mut seen = vec![false; netlist.len()];
    let mut stack: Vec<NodeId> = netlist.outputs().iter().rev().map(|&(_, o)| o).collect();
    while let Some(n) = stack.pop() {
        if seen[n.index()] {
            continue;
        }
        seen[n.index()] = true;
        if let Some(pos) = netlist.input_position(n) {
            order.push(pos);
            continue;
        }
        for &f in netlist.node(n).fanins().iter().rev() {
            stack.push(f);
        }
    }
    // Inputs not in any output cone go last.
    let mut placed = vec![false; netlist.inputs().len()];
    for &p in &order {
        placed[p] = true;
    }
    for (pos, done) in placed.iter().enumerate() {
        if !done {
            order.push(pos);
        }
    }
    order
}

/// Hard cap on recursion steps per build — a backstop against circuits
/// whose delay-dependent region is combinatorially explosive even after
/// memoization.
const MAX_BUILD_CALLS: usize = 5_000_000;

/// Arena slots at which an engine manager's first garbage-collection
/// sweep fires; the manager re-arms above the surviving population after
/// each sweep. Whether a sweep fires depends only on logical quantities,
/// so reports are the same whatever it reclaims.
const GC_TRIGGER_NODES: usize = 16_384;

/// Classification rule: which leaf references need their own variable.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// 2-vector: straddling leaves (`smin < b ≤ smax`) get resolvents.
    TwoVector,
    /// ω⁻: unsettled leaves (`b ≤ smax`) get fresh variables.
    Sequences,
}

/// Per-netlist arrival data shared by all queries.
pub(crate) struct Timing {
    pub pmax: Vec<Time>,
    pub pminmin: Vec<Time>,
    pub input_order: Vec<usize>,
}

impl Timing {
    pub fn new(netlist: &Netlist) -> Timing {
        Timing {
            pmax: netlist.arrivals(false, true),
            pminmin: netlist.arrivals(true, false),
            input_order: dfs_input_order(netlist),
        }
    }
}

/// The result of one 2-vector query.
#[derive(Debug)]
pub(crate) struct QueryOut {
    /// The TBF at `t = b⁻` over `(x⁺, x⁻, s)`.
    pub f: Bdd,
    pub resolvents: Vec<Resolvent>,
}

/// Per-cone compilation context: one netlist compiled **once** into a
/// manager with statics, variable slots and the interned timed-variable
/// table — everything the pluggable
/// [`DelayModel`](crate::model::DelayModel) strategies share while
/// sweeping breakpoints.
pub(crate) struct ConeContext {
    /// Shared ownership of the cone netlist: an engine retained across
    /// requests (the serve workspace) must not borrow from a request
    /// that has already been answered.
    netlist: Arc<Netlist>,
    pub timing: Timing,
    /// The analysis-wide budget: live caps + deadline/cancel state.
    pub budget: Arc<AnalysisBudget>,
    /// Reserved auxiliary (resolvent / fresh) variables per input.
    slots: usize,
    pub manager: BddManager,
    after_leaf: Vec<Bdd>,
    before_leaf: Vec<Bdd>,
    slot_vars: Vec<Vec<Var>>,
    static_after: Vec<Bdd>,
    static_before: Vec<Bdd>,
    /// All `x⁺`/`x⁻` variables (for the ∃-projection onto resolvents).
    pub input_vars: Vec<Var>,
    statics_baseline: usize,
    /// GC effort folded in from managers this engine has already
    /// replaced (layout rebuilds drop the manager but not its telemetry).
    carried_gc: GcStats,
    /// High-water arena slots / bytes across replaced managers.
    carried_peak_arena: usize,
    carried_arena_bytes: usize,
    /// Whether any gate has fixed delay. When every gate delay is
    /// variable, two distinct suffixes can never share a k-function
    /// (equal variable-gate multisets in a DAG force equal paths), so
    /// pass 1's within-pass dedup can never hit and is skipped.
    memo_useful: bool,
    /// Interner for k-functions: leaf and interior suffix identities.
    table: TimedTable,
    /// One build's memo of interior sub-BDDs, keyed by gate and interned
    /// k-function (see [`build`](Self::build)). Kept here only so its
    /// allocation is reused; every build starts by clearing it.
    memo: HashMap<(NodeId, TimedVarId), Bdd>,
    /// Memoized descending breakpoint sweeps, one per queried output.
    sweeps: HashMap<NodeId, BreakpointSweep>,
}

impl ConeContext {
    pub fn new(
        netlist: Arc<Netlist>,
        budget: Arc<AnalysisBudget>,
    ) -> Result<ConeContext, BuildAbort> {
        let memo_useful = netlist.nodes().any(|(_, n)| {
            !n.kind().is_input() && !n.kind().is_constant() && !n.delay().is_variable()
        });
        let mut engine = ConeContext {
            timing: Timing::new(&netlist),
            netlist,
            budget,
            slots: 4,
            manager: BddManager::new(),
            after_leaf: Vec::new(),
            before_leaf: Vec::new(),
            slot_vars: Vec::new(),
            static_after: Vec::new(),
            static_before: Vec::new(),
            input_vars: Vec::new(),
            statics_baseline: 0,
            carried_gc: GcStats::default(),
            carried_peak_arena: 0,
            carried_arena_bytes: 0,
            memo_useful,
            table: TimedTable::default(),
            memo: HashMap::new(),
            sweeps: HashMap::new(),
        };
        engine.layout()?;
        Ok(engine)
    }

    /// Shared ownership of the cone netlist, so a query can read it
    /// while it mutably borrows this engine.
    pub fn netlist_arc(&self) -> Arc<Netlist> {
        Arc::clone(&self.netlist)
    }

    /// The next breakpoint of `output`'s descending `{Kᵢᵐᵃˣ}` sweep
    /// strictly below `below`, via the per-output memoized
    /// [`BreakpointSweep`] enumerator.
    pub fn next_breakpoint(&mut self, output: NodeId, below: Time) -> Option<Time> {
        let netlist = Arc::clone(&self.netlist);
        self.sweeps
            .entry(output)
            .or_insert_with(|| BreakpointSweep::new(&netlist, output))
            .next_below(&netlist, below)
    }

    /// (Re)creates the manager: interleaved variables, then both statics.
    /// The variables' creation order is the order the engine runs under;
    /// nothing reorders them afterwards. GC telemetry of the manager being
    /// replaced is carried over so rebuilds never lose effort accounting.
    fn layout(&mut self) -> Result<(), BuildAbort> {
        let gc = self.manager.gc_stats();
        self.carried_gc.sweeps += gc.sweeps;
        self.carried_gc.reclaimed += gc.reclaimed;
        self.carried_peak_arena = self.carried_peak_arena.max(self.manager.peak_arena());
        self.carried_arena_bytes = self.carried_arena_bytes.max(self.manager.arena_bytes());
        let n_inputs = self.netlist.inputs().len();
        let mut manager = BddManager::new();
        // Route the manager's hot-path counters into the analysis-wide
        // registry carried by the budget, so BDD effort shows up in the
        // same place whatever thread builds this engine. An unobserved
        // run has no registry, and its manager counts nothing.
        if let Some(c) = self.budget.counters() {
            manager.set_counters(Arc::clone(c));
        }
        let mut after_var: Vec<Option<Var>> = vec![None; n_inputs];
        let mut before_var: Vec<Option<Var>> = vec![None; n_inputs];
        let mut slot_vars = vec![Vec::new(); n_inputs];
        let mut input_vars = Vec::with_capacity(2 * n_inputs);
        for &pos in &self.timing.input_order {
            let name = self
                .netlist
                .node(self.netlist.inputs()[pos])
                .name()
                .to_owned();
            let va = manager.new_named_var(&format!("{name}+"));
            let vb = manager.new_named_var(&format!("{name}-"));
            input_vars.push(va);
            input_vars.push(vb);
            after_var[pos] = Some(va);
            before_var[pos] = Some(vb);
            slot_vars[pos] = (0..self.slots)
                .map(|j| manager.new_named_var(&format!("s_{name}_{j}")))
                .collect();
        }
        manager.set_gc_policy(GcPolicy::OnPressure {
            trigger_nodes: GC_TRIGGER_NODES,
        });
        let unwrap_var = |v: &Option<Var>| v.expect("input_order is a permutation of inputs");
        let after_leaf: Vec<Bdd> = after_var
            .iter()
            .map(|v| manager.var(unwrap_var(v)))
            .collect();
        let before_leaf: Vec<Bdd> = before_var
            .iter()
            .map(|v| manager.var(unwrap_var(v)))
            .collect();
        let bud = self.budget.clone();
        let probe = move || bud.interrupted();
        let op_budget = OpBudget::with_cancel(self.budget.max_bdd_nodes(), &probe);
        let static_after = build_statics(&mut manager, &self.netlist, &after_leaf, &op_budget)
            .map_err(BuildAbort::from_op)?;
        let static_before = build_statics(&mut manager, &self.netlist, &before_leaf, &op_budget)
            .map_err(BuildAbort::from_op)?;
        self.statics_baseline = manager.node_count();
        self.manager = manager;
        self.after_leaf = after_leaf;
        self.before_leaf = before_leaf;
        self.slot_vars = slot_vars;
        self.static_after = static_after;
        self.static_before = static_before;
        self.input_vars = input_vars;
        Ok(())
    }

    /// Every handle the engine holds between queries: the survival set
    /// for an arena sweep at an engine-level safe point. Statics and both
    /// leaf-literal vectors.
    fn gc_roots(&self) -> Vec<Bdd> {
        let mut roots = self.static_after.clone();
        roots.extend_from_slice(&self.static_before);
        roots.extend_from_slice(&self.after_leaf);
        roots.extend_from_slice(&self.before_leaf);
        roots
    }

    /// Folds the engine's memory telemetry — arena high-water mark,
    /// byte footprint, GC effort, across replaced managers too — into a
    /// stats record. Called wherever `peak_bdd_nodes` is sampled.
    pub(crate) fn sample_memory(&self, stats: &mut crate::report::SearchStats) {
        let gc = self.manager.gc_stats();
        stats.sample_memory(
            self.carried_peak_arena.max(self.manager.peak_arena()),
            self.carried_arena_bytes.max(self.manager.arena_bytes()),
            GcStats {
                sweeps: self.carried_gc.sweeps + gc.sweeps,
                reclaimed: self.carried_gc.reclaimed + gc.reclaimed,
            },
        );
    }

    /// Drops dead nodes accumulated by past queries once they pile up
    /// beyond a fixed headroom over the statics baseline. Cheap queries
    /// never trigger it.
    pub fn maybe_compact(&mut self) -> Result<(), BuildAbort> {
        const HEADROOM: usize = 2_000_000;
        // In-place reclamation first: the past queries' BDDs are
        // unreachable from the engine's roots, and a sweep usually makes
        // the wholesale layout rebuild below unnecessary.
        if self.manager.gc_pending() {
            let roots = self.gc_roots();
            self.manager.maybe_gc(&roots);
        }
        if self.manager.node_count() > self.statics_baseline + HEADROOM {
            self.layout()?;
        }
        Ok(())
    }

    /// Rebuilds the manager from scratch (post-panic recovery, ladder
    /// retries): every cached BDD handle is dropped and the statics are
    /// re-derived under the current caps.
    pub fn reset(&mut self) -> Result<(), BuildAbort> {
        self.layout()
    }

    /// `f(∞)` of an output (over the `x⁺` variables).
    pub fn static_out(&self, output: NodeId) -> Bdd {
        self.static_after[output.index()]
    }

    /// The BDD variable of input `pos`'s `x(0⁺)` (`after = true`) or
    /// `x(0⁻)` leaf.
    pub fn leaf_var(&self, pos: usize, after: bool) -> Var {
        let leaf = if after {
            self.after_leaf[pos]
        } else {
            self.before_leaf[pos]
        };
        self.manager
            .root_var(leaf)
            .expect("input leaves are single variables")
    }

    /// Grows the per-input slot blocks and rebuilds the layout.
    fn grow_slots(&mut self, needed: usize) -> Result<(), BuildAbort> {
        while self.slots < needed {
            self.slots *= 2;
        }
        self.layout()
    }

    /// Pass 1: discover the distinct TBF-variable keys of a query.
    fn collect_keys(
        &self,
        output: NodeId,
        b: Time,
        mode: Mode,
    ) -> Result<Vec<(TimedVarKey, Vec<NodeId>)>, BuildAbort> {
        struct KeyCollect<'n> {
            netlist: &'n Netlist,
            pmax: &'n [Time],
            pminmin: &'n [Time],
            b: Time,
            mode: Mode,
            max_paths: usize,
            budget: &'n AnalysisBudget,
            memo_useful: bool,
            suffix: SuffixTracker,
            seen: HashSet<(NodeId, TimedVarKey)>,
            keys: HashMap<TimedVarKey, Vec<NodeId>>,
            calls: usize,
        }
        impl KeyCollect<'_> {
            fn run(&mut self, n: NodeId, smin: Time, smax: Time) -> Result<(), BuildAbort> {
                let i = n.index();
                if smax + self.pmax[i] < self.b {
                    return Ok(()); // fully positive: no new variables
                }
                if self.mode == Mode::TwoVector && smin + self.pminmin[i] >= self.b {
                    return Ok(()); // fully negative
                }
                self.calls += 1;
                if self.calls > MAX_BUILD_CALLS {
                    return Err(BuildAbort::TooManyPaths {
                        limit: self.max_paths,
                    });
                }
                if self.budget.poll().is_some() {
                    return Err(BuildAbort::Interrupted);
                }
                if fault::trip(Site::PathCollect) {
                    return Err(BuildAbort::TooManyPaths {
                        limit: self.max_paths,
                    });
                }
                let node = self.netlist.node(n);
                if node.kind().is_constant() {
                    return Ok(());
                }
                if let Some(pos) = self.netlist.input_position(n) {
                    let key = self.suffix.key(pos);
                    if !self.keys.contains_key(&key) {
                        if self.keys.len() >= self.max_paths {
                            return Err(BuildAbort::TooManyPaths {
                                limit: self.max_paths,
                            });
                        }
                        self.keys.insert(key, self.suffix.gates().to_vec());
                    }
                    return Ok(());
                }
                if self.memo_useful {
                    let memo_key = (n, self.suffix.key(usize::MAX));
                    if !self.seen.insert(memo_key) {
                        return Ok(());
                    }
                }
                let d = node.delay();
                let fanins: Vec<NodeId> = node.fanins().to_vec();
                self.suffix.push(self.netlist, n);
                for f in fanins {
                    self.run(f, smin + d.min, smax + d.max)?;
                }
                self.suffix.pop();
                Ok(())
            }
        }
        let mut kc = KeyCollect {
            netlist: &self.netlist,
            pmax: &self.timing.pmax,
            pminmin: &self.timing.pminmin,
            b,
            mode,
            max_paths: self.budget.max_paths(),
            budget: &self.budget,
            memo_useful: self.memo_useful,
            suffix: SuffixTracker::default(),
            seen: HashSet::new(),
            keys: HashMap::new(),
            calls: 0,
        };
        kc.run(output, Time::ZERO, Time::ZERO)?;
        let mut entries: Vec<(TimedVarKey, Vec<NodeId>)> = kc.keys.into_iter().collect();
        // Deterministic slot assignment.
        entries.sort_by(|a, b| {
            (a.0.input_pos, a.0.fixed_sum, &a.0.variable_gates).cmp(&(
                b.0.input_pos,
                b.0.fixed_sum,
                &b.0.variable_gates,
            ))
        });
        Ok(entries)
    }

    /// Assigns each key a slot variable of its input, growing slots when a
    /// breakpoint needs more than reserved.
    fn assign_slots(
        &mut self,
        entries: &[(TimedVarKey, Vec<NodeId>)],
    ) -> Result<HashMap<TimedVarKey, Var>, BuildAbort> {
        let mut per_input_count: HashMap<usize, usize> = HashMap::new();
        for (key, _) in entries {
            *per_input_count.entry(key.input_pos).or_insert(0) += 1;
        }
        if let Some(&max_needed) = per_input_count.values().max() {
            if max_needed > self.slots {
                self.grow_slots(max_needed)?;
            }
        }
        let mut next_slot: HashMap<usize, usize> = HashMap::new();
        let mut assignment = HashMap::with_capacity(entries.len());
        for (key, _) in entries {
            let slot = next_slot.entry(key.input_pos).or_insert(0);
            assignment.insert(key.clone(), self.slot_vars[key.input_pos][*slot]);
            *slot += 1;
        }
        Ok(assignment)
    }

    /// Builds the 2-vector TBF query of `output` at `t = b⁻`.
    pub fn two_vector_query(&mut self, output: NodeId, b: Time) -> Result<QueryOut, BuildAbort> {
        let entries = self.collect_keys(output, b, Mode::TwoVector)?;
        let vars = self.assign_slots(&entries)?;
        let resolvents: Vec<Resolvent> = entries
            .iter()
            .map(|(key, gates)| Resolvent {
                var: vars[key],
                gates: gates.clone(),
            })
            .collect();
        let mut leaf_of_key: HashMap<TimedVarId, Bdd> = HashMap::with_capacity(entries.len());
        for (key, _) in &entries {
            let id = self.table.intern(key);
            let s = self.manager.var(vars[key]);
            let after = self.after_leaf[key.input_pos];
            let before = self.before_leaf[key.input_pos];
            let leaf = self.manager.ite(s, after, before);
            leaf_of_key.insert(id, leaf);
        }
        let f = self.build(output, b, Mode::TwoVector, leaf_of_key)?;
        Ok(QueryOut { f, resolvents })
    }

    /// Builds the sequences-of-vectors TBF of `output` at `t = b⁻` (paper
    /// §9.4): settled variables read `x(0⁺)`, unsettled ones become fresh
    /// Boolean variables — one per distinct TBF variable, adjacent to
    /// their input in the order.
    pub fn sequences_query(&mut self, output: NodeId, b: Time) -> Result<Bdd, BuildAbort> {
        let entries = self.collect_keys(output, b, Mode::Sequences)?;
        let vars = self.assign_slots(&entries)?;
        let mut leaf_of_key: HashMap<TimedVarId, Bdd> = HashMap::with_capacity(entries.len());
        for (key, _) in &entries {
            let id = self.table.intern(key);
            let leaf = self.manager.var(vars[key]);
            leaf_of_key.insert(id, leaf);
        }
        self.build(output, b, Mode::Sequences, leaf_of_key)
    }

    /// Pass 2: the BDD-building recursion, shared between the two modes.
    ///
    /// Interior results are memoized for the length of the build under
    /// their gate and interned k-function: suffixes with equal
    /// variable-gate multisets and fixed sums induce identical sub-TBFs
    /// (and share resolvents consistently), so a second visit splices in
    /// the first visit's BDD instead of re-running the BDD operations.
    fn build(
        &mut self,
        output: NodeId,
        b: Time,
        mode: Mode,
        leaf_of_key: HashMap<TimedVarId, Bdd>,
    ) -> Result<Bdd, BuildAbort> {
        // The previous build's handles may have been swept since.
        self.memo.clear();
        struct TbfBuild<'n> {
            netlist: &'n Netlist,
            pmax: &'n [Time],
            pminmin: &'n [Time],
            b: Time,
            mode: Mode,
            max_paths: usize,
            max_bdd: usize,
            budget: Arc<AnalysisBudget>,
            static_after: &'n [Bdd],
            static_before: &'n [Bdd],
            after_leaf: &'n [Bdd],
            before_leaf: &'n [Bdd],
            leaf_of_key: HashMap<TimedVarId, Bdd>,
            table: &'n mut TimedTable,
            memo: &'n mut HashMap<(NodeId, TimedVarId), Bdd>,
            suffix: SuffixTracker,
            calls: usize,
        }
        impl TbfBuild<'_> {
            fn go(
                &mut self,
                manager: &mut BddManager,
                n: NodeId,
                smin: Time,
                smax: Time,
            ) -> Result<Bdd, BuildAbort> {
                let i = n.index();
                // Collapse rules: compare the extremal total path lengths
                // of every completion through `n` against the query point.
                if smax + self.pmax[i] < self.b {
                    return Ok(self.static_after[i]);
                }
                if self.mode == Mode::TwoVector && smin + self.pminmin[i] >= self.b {
                    return Ok(self.static_before[i]);
                }
                if manager.node_count() > self.max_bdd {
                    return Err(BuildAbort::BddTooLarge {
                        limit: self.max_bdd,
                    });
                }
                self.calls += 1;
                if self.calls > MAX_BUILD_CALLS {
                    return Err(BuildAbort::TooManyPaths {
                        limit: self.max_paths,
                    });
                }
                if self.budget.poll().is_some() {
                    return Err(BuildAbort::Interrupted);
                }
                let node = self.netlist.node(n);
                if node.kind().is_constant() {
                    // Constants never transition; both statics coincide.
                    return Ok(self.static_after[i]);
                }
                if let Some(pos) = self.netlist.input_position(n) {
                    // Neither collapse fired: this path needs its variable
                    // (straddling resolvent or unsettled fresh variable),
                    // discovered by pass 1.
                    let key = self.suffix.key(pos);
                    let id = self.table.intern(&key);
                    return Ok(*self
                        .leaf_of_key
                        .get(&id)
                        .expect("pass 1 discovered every leaf key"));
                }
                // Interior gate: the sub-BDD is keyed by the interned
                // k-function of the suffix that reached it.
                let kfn = self.suffix.key(usize::MAX);
                let id = self.table.intern(&kfn);
                if let Some(&f) = self.memo.get(&(n, id)) {
                    if let Some(c) = self.budget.counters() {
                        c.bump(tbf_obs::Metric::TbfCacheHits);
                    }
                    return Ok(f);
                }
                let d = node.delay();
                let fanins: Vec<NodeId> = node.fanins().to_vec();
                let kind = node.kind();
                self.suffix.push(self.netlist, n);
                // Frame discipline for GC: a sibling's recursive build
                // can sweep the arena (see the safe point below), and the
                // fanin results already collected here are reachable from
                // no root list — the protected stack shields them until
                // this frame's gate BDD consumes them.
                let protect_base = manager.protected_len();
                let mut fanin_bdds = Vec::with_capacity(fanins.len());
                let mut failed = None;
                for f in fanins {
                    match self.go(manager, f, smin + d.min, smax + d.max) {
                        Ok(built) => {
                            manager.protect(built);
                            fanin_bdds.push(built);
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                self.suffix.pop();
                if let Some(e) = failed {
                    manager.truncate_protected(protect_base);
                    return Err(e);
                }
                if fault::trip(Site::BddOp) {
                    manager.truncate_protected(protect_base);
                    return Err(BuildAbort::BddTooLarge {
                        limit: self.max_bdd,
                    });
                }
                let bud = self.budget.clone();
                let probe = move || bud.interrupted();
                let op_budget = OpBudget::with_cancel(self.max_bdd, &probe);
                let result = gate_bdd(manager, kind, &fanin_bdds, &op_budget);
                // The gate BDD (right or wrong) now owns the fanins'
                // lifetime: pop this frame's shields before propagating.
                manager.truncate_protected(protect_base);
                let result = result.map_err(BuildAbort::from_op)?;
                if let Some(c) = self.budget.counters() {
                    c.bump(tbf_obs::Metric::TbfInstantiations);
                }
                self.memo.insert((n, id), result);
                // Safe point: the gate's BDD call is complete, so an
                // arena sweep may run here. Handles held by parent frames
                // survive it because each frame protects its collected
                // fanins; the explicit roots carry everything else the
                // build can still reach — statics, leaf literals, pass-1
                // leaves, the memo, and this result.
                if manager.gc_pending() {
                    let mut roots: Vec<Bdd> = Vec::with_capacity(
                        self.static_after.len()
                            + self.static_before.len()
                            + self.after_leaf.len()
                            + self.before_leaf.len()
                            + self.leaf_of_key.len()
                            + self.memo.len(),
                    );
                    roots.extend_from_slice(self.static_after);
                    roots.extend_from_slice(self.static_before);
                    roots.extend_from_slice(self.after_leaf);
                    roots.extend_from_slice(self.before_leaf);
                    roots.extend(self.leaf_of_key.values().copied());
                    roots.extend(self.memo.values().copied());
                    manager.maybe_gc(&roots);
                }
                Ok(result)
            }
        }
        let mut builder = TbfBuild {
            netlist: &self.netlist,
            pmax: &self.timing.pmax,
            pminmin: &self.timing.pminmin,
            b,
            mode,
            max_paths: self.budget.max_paths(),
            max_bdd: self.budget.max_bdd_nodes(),
            budget: self.budget.clone(),
            static_after: &self.static_after,
            static_before: &self.static_before,
            after_leaf: &self.after_leaf,
            before_leaf: &self.before_leaf,
            leaf_of_key,
            table: &mut self.table,
            memo: &mut self.memo,
            suffix: SuffixTracker::default(),
            calls: 0,
        };
        builder.go(&mut self.manager, output, Time::ZERO, Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DelayOptions;
    use tbf_logic::generators::figures::{figure4_example3, figure5_example4, figure6_glitch};
    use tbf_logic::{DelayBounds, GateKind};

    fn t(x: i64) -> Time {
        Time::from_int(x)
    }

    fn engine(n: &Netlist) -> ConeContext {
        ConeContext::new(
            Arc::new(n.clone()),
            AnalysisBudget::from_options(&DelayOptions::default()).shared(),
        )
        .expect("small circuit")
    }

    #[test]
    fn figure4_tbf_at_4_has_one_resolvent_per_variable() {
        // At t = 4⁻ the two 2-gate paths straddle; they denote the TBF
        // variables a(t−d1−d2) and b(t−d1−d2) — distinct inputs, so two
        // resolvents. The 1-gate path a(t−d2) has kmax 2 < 4 → positive.
        let n = figure4_example3();
        let out = n.find("g2").unwrap();
        let mut e = engine(&n);
        let q = e.two_vector_query(out, t(4)).expect("small circuit");
        assert_eq!(q.resolvents.len(), 2);
        assert_ne!(q.f, e.static_out(out));
        for r in &q.resolvents {
            assert_eq!(r.gates.len(), 2);
        }
    }

    #[test]
    fn figure4_tbf_at_2_more_paths_straddle() {
        let n = figure4_example3();
        let out = n.find("g2").unwrap();
        let mut e = engine(&n);
        let q = e.two_vector_query(out, t(2)).expect("small circuit");
        // Paths: a→g2 (k ∈ [1,2], straddles 2), a/b→g1→g2 (k ∈ [2,4],
        // kmin = 2 not < 2 → negative).
        assert_eq!(q.resolvents.len(), 1);
        assert_eq!(q.resolvents[0].gates.len(), 1);
    }

    #[test]
    fn figure5_classification_matches_example4() {
        // At t = 2.8: one path negative, two straddling, two positive —
        // so exactly two resolvents (distinct TBF variables).
        let n = figure5_example4();
        let out = n.find("g5").unwrap();
        let mut e = engine(&n);
        let q = e
            .two_vector_query(out, Time::from_units(2.8))
            .expect("small circuit");
        assert_eq!(q.resolvents.len(), 2);
    }

    #[test]
    fn figure6_fixed_delays_share_the_tbf_variable() {
        // Both paths have fixed length 2: a single TBF variable a(t−2),
        // and the sequences TBF collapses to the constant 0 = static.
        let n = figure6_glitch();
        let out = n.find("g").unwrap();
        let mut e = engine(&n);
        let f = e.sequences_query(out, t(2)).expect("small circuit");
        assert_eq!(f, e.static_out(out));
        assert!(f.is_false());
    }

    #[test]
    fn figure6_variable_delays_get_distinct_variables() {
        let n = figure6_glitch().map_delays(|d| DelayBounds::new(d.max - Time::EPSILON, d.max));
        let out = n.find("g").unwrap();
        let mut e = engine(&n);
        let f = e.sequences_query(out, t(2)).expect("small circuit");
        assert_ne!(f, e.static_out(out));
    }

    #[test]
    fn collapse_makes_settled_cones_static() {
        // A deep chain queried far above its length collapses instantly.
        let mut b = Netlist::builder();
        let mut cur = b.input("x");
        for i in 0..50 {
            cur = b
                .gate(
                    GateKind::Not,
                    &format!("g{i}"),
                    vec![cur],
                    DelayBounds::new(t(1), t(2)),
                )
                .unwrap();
        }
        b.output("f", cur);
        let n = b.finish().unwrap();
        let out = n.find("g49").unwrap();
        let mut e = engine(&n);
        // Query at b = 200 > kmax = 100: everything positive.
        let q = e.two_vector_query(out, t(200)).expect("collapses");
        assert_eq!(q.resolvents.len(), 0);
        assert_eq!(q.f, e.static_out(out));
        // Query at b = 40 < kmin = 50: everything negative — the TBF is
        // the static function of the x⁻ variables, ≠ static over x⁺.
        let q = e.two_vector_query(out, t(40)).expect("collapses");
        assert_eq!(q.resolvents.len(), 0);
        assert_ne!(q.f, e.static_out(out));
    }

    #[test]
    fn path_cap_aborts() {
        // A wide AND of variable-delay buffers at a straddling query.
        let mut b = Netlist::builder();
        let x = b.input("x");
        let mut bufs = Vec::new();
        for i in 0..8 {
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
            .gate(GateKind::And, "g", bufs, DelayBounds::new(t(1), t(1)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let out = n.find("g").unwrap();
        let opts = DelayOptions {
            max_straddling_paths: 4,
            ..DelayOptions::default()
        };
        let mut e = ConeContext::new(
            Arc::new(n.clone()),
            AnalysisBudget::from_options(&opts).shared(),
        )
        .expect("small circuit");
        let err = e.two_vector_query(out, t(3)).unwrap_err();
        assert_eq!(err, BuildAbort::TooManyPaths { limit: 4 });
    }

    #[test]
    fn escalated_caps_are_read_live() {
        // Same circuit as `path_cap_aborts`: escalating the shared budget
        // (no engine rebuild) must lift the cap for the next query.
        let mut b = Netlist::builder();
        let x = b.input("x");
        let mut bufs = Vec::new();
        for i in 0..8 {
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
            .gate(GateKind::And, "g", bufs, DelayBounds::new(t(1), t(1)))
            .unwrap();
        b.output("f", g);
        let n = b.finish().unwrap();
        let out = n.find("g").unwrap();
        let opts = DelayOptions {
            max_straddling_paths: 4,
            ..DelayOptions::default()
        };
        let budget = AnalysisBudget::from_options(&opts).shared();
        let mut e = ConeContext::new(Arc::new(n.clone()), budget.clone()).expect("small circuit");
        assert!(e.two_vector_query(out, t(3)).is_err());
        budget.escalate(4);
        assert!(e.two_vector_query(out, t(3)).is_ok());
    }

    #[test]
    fn cancelled_budget_interrupts_query() {
        use crate::budget::CancelToken;
        let n = figure4_example3();
        let out = n.find("g2").unwrap();
        let token = CancelToken::new();
        let budget = AnalysisBudget::from_options(&DelayOptions::default())
            .with_token(token.clone())
            .shared();
        let mut e = ConeContext::new(Arc::new(n.clone()), budget).expect("small circuit");
        token.cancel();
        let err = e.two_vector_query(out, t(4)).unwrap_err();
        assert_eq!(err, BuildAbort::Interrupted);
    }

    #[test]
    fn slots_grow_on_demand() {
        // 10 parallel buffers from ONE input: 10 resolvents on the same
        // input — more than the initial slot reservation.
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
        let out = n.find("g").unwrap();
        let mut e = engine(&n);
        let q = e.two_vector_query(out, t(3)).expect("slots grow");
        assert_eq!(q.resolvents.len(), 10);
    }

    #[test]
    fn compaction_preserves_results() {
        let n = figure4_example3();
        let out = n.find("g2").unwrap();
        let mut e = engine(&n);
        let q1 = e.two_vector_query(out, t(4)).expect("ok");
        let r1 = q1.resolvents.len();
        // Force a relayout and re-query: same structure.
        e.layout().expect("relayout");
        let q2 = e.two_vector_query(out, t(4)).expect("ok");
        assert_eq!(r1, q2.resolvents.len());
        assert_ne!(q2.f, e.static_out(out));
        e.maybe_compact().expect("compaction ok");
    }

    #[test]
    fn resolvents_sit_next_to_their_inputs_in_the_order() {
        let n = figure4_example3();
        let out = n.find("g2").unwrap();
        let mut e = engine(&n);
        let q = e.two_vector_query(out, t(4)).expect("small circuit");
        for r in &q.resolvents {
            let name = e.manager.var_name(r.var).to_owned();
            assert!(name.starts_with("s_"), "{name}");
        }
        // Layout: (a+, a-, 4 slots, b+, b-, 4 slots) = 12 variables.
        assert_eq!(e.manager.var_count(), 12);
        // The a-resolvent must be ordered before b's input variables.
        let a_res = q
            .resolvents
            .iter()
            .find(|r| e.manager.var_name(r.var).starts_with("s_a"))
            .expect("a has a resolvent");
        let b_plus = e.input_vars[2]; // b+ is third created
        assert!(a_res.var < b_plus, "a's resolvent should precede b+");
    }

    #[test]
    fn dfs_order_interleaves_adder_operands() {
        use tbf_logic::generators::adders::ripple_carry;
        let n = ripple_carry(4, DelayBounds::fixed(t(1)));
        let order = dfs_input_order(&n);
        let names: Vec<&str> = order
            .iter()
            .map(|&p| n.node(n.inputs()[p]).name())
            .collect();
        let pos_a0 = names.iter().position(|&s| s == "a0").unwrap();
        let pos_b0 = names.iter().position(|&s| s == "b0").unwrap();
        assert!(
            pos_a0.abs_diff(pos_b0) <= 2,
            "a0/b0 should be near-adjacent, got {names:?}"
        );
    }
}
