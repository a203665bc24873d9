//! The BDD manager: node arena, per-variable unique subtables, free
//! list, and variable registry.

use std::collections::HashMap;

use tbf_obs::Metric;

use crate::computed::ComputedTable;
use crate::node::{Bdd, Node, Var, TERMINAL_LEVEL};
use crate::unique::UniqueTables;

/// Owner of all BDD nodes.
///
/// The manager interns nodes in a unique table so that structurally equal
/// functions share one handle (canonicity), and memoizes the results of
/// Boolean operations. All operations that combine BDDs are methods on the
/// manager and take handles by value.
///
/// Results are memoized in one computed table shared by every operation
/// (see `computed.rs`): direct-mapped and lossy, sized with the arena and
/// capped, and kept across queries.
///
/// Edges carry complement tags: any edge may be complemented, negation
/// is a constant-time tag flip, and a function shares every node with
/// its complement — roughly halving unique-table and arena sizes against
/// untagged nodes. Canonicity is kept by the *canonical then-edge rule*:
/// a stored node's `hi` edge is never complemented (`mk` renormalizes
/// and returns a tagged handle instead).
///
/// Nodes live in a flat arena; each variable owns an open-addressing
/// unique subtable over it (see `unique.rs`), so interning probes one
/// small cache-resident array. By default the arena is append-only, but
/// installing a [`GcPolicy`](crate::GcPolicy) lets
/// [`maybe_gc`](Self::maybe_gc)/[`collect_garbage`](Self::collect_garbage)
/// reclaim unreachable nodes in place through a free list (see `gc.rs`).
/// The exact-delay search in `tbf-core` polls
/// [`node_count`](Self::node_count) between operations to bound growth.
///
/// The variable order is the creation order: a [`Var`]'s index is its
/// position, so the first [`new_var`](Self::new_var) is tested closest
/// to the root and every level comparison compares indices.
///
/// # Example
///
/// ```
/// use tbf_bdd::BddManager;
/// let mut m = BddManager::new();
/// let x = m.new_named_var("x");
/// let y = m.new_named_var("y");
/// let f = {
///     let (vx, vy) = (m.var(x), m.var(y));
///     m.and(vx, vy)
/// };
/// assert_eq!(m.var_name(x), "x");
/// assert!(m.eval(f, &[true, true]));
/// assert!(!m.eval(f, &[true, false]));
/// ```
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: UniqueTables,
    /// Freed arena slots awaiting reuse (a stack; the GC sweep fills it
    /// so that `pop` hands out the lowest index first).
    pub(crate) free: Vec<u32>,
    /// Handles pinned against garbage collection (frame discipline, see
    /// [`protect`](Self::protect)).
    pub(crate) protected: Vec<Bdd>,
    pub(crate) gc_policy: crate::gc::GcPolicy,
    /// Arena size at which the next [`maybe_gc`](Self::maybe_gc) sweep
    /// fires (`usize::MAX` when the policy is `None`).
    pub(crate) gc_trigger: usize,
    pub(crate) gc_stats: crate::gc::GcStats,
    /// High-water mark of the arena length (slots ever resident at
    /// once). Unlike [`node_count`](Self::node_count) this includes dead
    /// slots, so it measures what GC saves.
    pub(crate) peak_arena: usize,
    pub(crate) computed: ComputedTable,
    var_names: Vec<String>,
    /// Shared effort-counter registry (see [`crate::obs`]); `None` until
    /// [`set_counters`](Self::set_counters) installs one.
    pub(crate) counters: Option<std::sync::Arc<tbf_obs::Counters>>,
}

impl BddManager {
    /// Creates an empty manager with no variables.
    pub fn new() -> Self {
        BddManager {
            // One terminal at arena index 0: TRUE is the plain handle,
            // FALSE its complement. The payload is a sentinel and never
            // interned in the unique table.
            nodes: vec![Node {
                var: TERMINAL_LEVEL,
                lo: Bdd::TRUE,
                hi: Bdd::TRUE,
            }],
            unique: UniqueTables::new(),
            free: Vec::new(),
            protected: Vec::new(),
            gc_policy: crate::gc::GcPolicy::None,
            gc_trigger: usize::MAX,
            gc_stats: crate::gc::GcStats::default(),
            peak_arena: 1,
            computed: ComputedTable::new(),
            var_names: Vec::new(),
            counters: None,
        }
    }

    /// Declares a fresh variable, ordered below every existing one.
    pub fn new_var(&mut self) -> Var {
        let idx = self.var_names.len() as u32;
        self.var_names.push(format!("v{idx}"));
        self.unique.push_var();
        Var(idx)
    }

    /// Declares a fresh variable with a debugging name.
    pub fn new_named_var(&mut self, name: &str) -> Var {
        let v = self.new_var();
        self.var_names[v.index()] = name.to_owned();
        v
    }

    /// The name given to `v` at creation (or a generated `v<N>` default).
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this manager.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Number of *occupied* nodes (including the terminal): arena slots
    /// minus the free list. With garbage collection off this equals the
    /// total allocated, as before; a sweep shrinks it, so node budgets
    /// and pressure triggers measure resident nodes, not historic churn.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Total arena slots (occupied + freed): the footprint actually
    /// resident in memory.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// High-water mark of [`arena_size`](Self::arena_size) over the
    /// manager's life — what peak memory looked like, whatever GC
    /// reclaimed since.
    pub fn peak_arena(&self) -> usize {
        self.peak_arena
    }

    /// Approximate resident bytes of the node arena, the unique
    /// subtables' slot arrays and the computed table (memory telemetry
    /// for benches).
    pub fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.unique.slot_bytes()
            + self.computed.bytes()
    }

    /// The function that is true exactly when `v` is true.
    pub fn var(&mut self, v: Var) -> Bdd {
        self.mk(v.0, Bdd::FALSE, Bdd::TRUE)
    }

    /// The function that is true exactly when `v` is false.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        self.mk(v.0, Bdd::TRUE, Bdd::FALSE)
    }

    /// A literal: `var(v)` if `positive`, else `nvar(v)`.
    pub fn literal(&mut self, v: Var, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// Interns a node, enforcing the no-redundant-test and sharing rules.
    /// A complemented `hi` edge is renormalized (both children negated,
    /// result handle tagged) so that stored nodes always satisfy the
    /// canonical then-edge rule.
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        if hi.is_complemented() {
            return self.mk_regular(var, lo.negate(), hi.negate()).negate();
        }
        self.mk_regular(var, lo, hi)
    }

    /// [`mk`](Self::mk) after then-edge normalization: interns `(var, lo,
    /// hi)` as stored and returns the plain (untagged) handle.
    fn mk_regular(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        debug_assert!(!hi.is_complemented(), "hi edge must be regular");
        self.bump(Metric::UniqueTableProbes);
        if let Some(slot) = self.unique.get(var, lo, hi, &self.nodes) {
            self.bump(Metric::UniqueTableHits);
            return Bdd::from_index(slot as usize);
        }
        self.bump(Metric::NodesAllocated);
        let node = Node { var, lo, hi };
        // Reuse a GC-freed slot before growing the arena.
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert_eq!(self.nodes[s as usize].var, crate::node::FREE_LEVEL);
                self.nodes[s as usize] = node;
                s as usize
            }
            None => {
                let s = self.nodes.len();
                self.nodes.push(node);
                self.peak_arena = self.peak_arena.max(self.nodes.len());
                self.computed.fit(self.nodes.len());
                s
            }
        };
        self.unique.insert(var, slot as u32, &self.nodes);
        Bdd::from_index(slot)
    }

    #[inline]
    pub(crate) fn node(&self, b: Bdd) -> Node {
        self.nodes[b.index()]
    }

    /// The cofactors of `b` at its root node, with the complement tag of
    /// `b` propagated onto the children (so they denote the cofactors of
    /// the *function*, not of the stored node).
    #[inline]
    pub(crate) fn cofactors(&self, b: Bdd) -> (Bdd, Bdd) {
        let n = self.node(b);
        if b.is_complemented() {
            (n.lo.negate(), n.hi.negate())
        } else {
            (n.lo, n.hi)
        }
    }

    /// Order position of the root of `b`: its variable index, or
    /// [`TERMINAL_LEVEL`] for constants (below every variable).
    #[inline]
    pub(crate) fn blevel(&self, b: Bdd) -> u32 {
        self.node(b).var
    }

    /// The variable tested at the root of `b`, or `None` for constants.
    pub fn root_var(&self, b: Bdd) -> Option<Var> {
        if b.is_const() {
            None
        } else {
            Some(Var(self.node(b).var))
        }
    }

    /// The two cofactors `(f|v=0, f|v=1)` with respect to the *root*
    /// variable of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is a constant.
    pub fn root_cofactors(&self, b: Bdd) -> (Bdd, Bdd) {
        assert!(!b.is_const(), "constants have no cofactors");
        self.cofactors(b)
    }

    /// Evaluates `b` under a full assignment indexed by [`Var::index`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than some variable tested in `b`.
    pub fn eval(&self, b: Bdd, assignment: &[bool]) -> bool {
        // Accumulate complement-tag parity on the way down; the terminal
        // is reached as TRUE once the tag is stripped, so the answer is
        // the parity itself.
        let mut cur = b;
        let mut neg = false;
        loop {
            if cur.is_complemented() {
                neg = !neg;
                cur = cur.negate();
            }
            if cur.is_const() {
                return !neg;
            }
            let n = self.node(cur);
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// Number of satisfying assignments over `n_vars` variables.
    ///
    /// Counted as `f64` so it stays useful beyond 64 variables (at reduced
    /// precision).
    ///
    /// # Panics
    ///
    /// Panics if `b` tests a variable with index `>= n_vars`.
    pub fn sat_count(&self, b: Bdd, n_vars: usize) -> f64 {
        if b.is_false() {
            return 0.0;
        }
        if b.is_true() {
            return 2f64.powi(n_vars as i32);
        }
        assert!(
            self.max_tested_level(b) < n_vars,
            "sat_count: BDD tests a variable outside the first n_vars levels"
        );
        // Level-aware recursion: `go(b, level)` counts assignments of the
        // variables at positions `level..n_vars` that satisfy `b`. A
        // complemented handle counts via |¬f| = 2^k − |f|, so the memo
        // only ever holds regular handles.
        fn go(
            m: &BddManager,
            b: Bdd,
            level: usize,
            n_vars: usize,
            memo: &mut HashMap<(Bdd, usize), f64>,
        ) -> f64 {
            if b.is_complemented() {
                return 2f64.powi((n_vars - level) as i32) - go(m, b.negate(), level, n_vars, memo);
            }
            if b.is_const() {
                return 2f64.powi((n_vars - level) as i32);
            }
            if let Some(&c) = memo.get(&(b, level)) {
                return c;
            }
            let n = m.node(b);
            let node_level = n.var as usize;
            let skipped = node_level - level;
            let lo = go(m, n.lo, node_level + 1, n_vars, memo);
            let hi = go(m, n.hi, node_level + 1, n_vars, memo);
            let c = 2f64.powi(skipped as i32) * (lo + hi);
            memo.insert((b, level), c);
            c
        }
        let mut memo: HashMap<(Bdd, usize), f64> = HashMap::new();
        go(self, b, 0, n_vars, &mut memo)
    }

    /// Largest variable index tested anywhere in `b`, or 0 for constants.
    fn max_tested_level(&self, b: Bdd) -> usize {
        // Track regular handles so a node reached both plain and
        // complemented is visited once.
        let mut stack = vec![b.regular()];
        let mut seen = std::collections::HashSet::new();
        let mut max = 0usize;
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x) {
                continue;
            }
            let n = self.node(x);
            max = max.max(n.var as usize);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        max
    }

    /// The set of variables tested in `b`, in ascending [`Var::index`]
    /// order.
    pub fn support(&self, b: Bdd) -> Vec<Var> {
        let mut stack = vec![b.regular()];
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x) {
                continue;
            }
            let n = self.node(x);
            vars.insert(n.var);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        vars.into_iter().map(Var).collect()
    }

    /// Number of internal nodes reachable from `roots` (the *live* size,
    /// as opposed to [`node_count`](Self::node_count), which also counts
    /// occupied-but-unreachable entries — dead until a GC sweep or a
    /// manager rebuild reclaims them).
    pub fn live_size(&self, roots: &[Bdd]) -> usize {
        // The visited set is an arena-indexed bitmap. `index()` strips
        // the complement tag, so a node referenced both plain and
        // complemented is counted once — the {f, ¬f} pair *is* one node
        // under complement edges.
        let mut stack: Vec<Bdd> = roots.to_vec();
        let mut seen = vec![false; self.nodes.len()];
        let mut count = 0usize;
        while let Some(x) = stack.pop() {
            if x.is_const() || std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            count += 1;
            let n = self.node(x);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Number of (shared) nodes reachable from `b`, terminals excluded.
    pub fn size(&self, b: Bdd) -> usize {
        self.live_size(&[b])
    }

    /// Empties the computed table. The unique table, and with it
    /// canonicity, is kept: later operations return the same handles and
    /// only recompute what they need. The table is bounded on its own,
    /// so nothing needs this to cap memory.
    pub fn clear_op_caches(&mut self) {
        self.computed.clear();
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddManager")
            .field("vars", &self.var_names.len())
            .field("nodes", &self.node_count())
            .field("free", &self.free.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_manager_has_one_terminal_node() {
        let m = BddManager::new();
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.var_count(), 0);
    }

    #[test]
    fn arena_bytes_counts_the_grown_computed_table() {
        let mut m = BddManager::new();
        let fresh_table = m.computed.len();
        // One node per variable: the arena outgrows the fresh table,
        // which doubles to follow it.
        for _ in 0..fresh_table {
            let v = m.new_var();
            m.var(v);
        }
        let table = m.computed.len();
        assert_eq!(table, 2 * fresh_table);
        let nodes = m.nodes.capacity() * std::mem::size_of::<Node>();
        assert!(
            m.arena_bytes() >= nodes + m.unique.slot_bytes() + 16 * table,
            "16 B per computed-table slot"
        );
    }

    #[test]
    fn var_nodes_are_shared() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let a = m.var(x);
        let b = m.var(x);
        assert_eq!(a, b);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn literals_share_one_node() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let pos = m.var(x);
        let neg = m.nvar(x);
        assert_eq!(m.node_count(), 2, "x and ¬x share one node");
        assert_eq!(neg, m.not(pos));
        assert_ne!(pos, neg);
        assert!(m.eval(pos, &[true]));
        assert!(!m.eval(neg, &[true]));
    }

    #[test]
    fn named_vars_report_names() {
        let mut m = BddManager::new();
        let x = m.new_named_var("clk");
        let y = m.new_var();
        assert_eq!(m.var_name(x), "clk");
        assert_eq!(m.var_name(y), "v1");
    }

    #[test]
    fn eval_follows_assignment() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        assert!(m.eval(f, &[true, true]));
        assert!(!m.eval(f, &[true, false]));
        assert!(!m.eval(f, &[false, true]));
    }

    #[test]
    fn sat_count_matches_truth_table() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz); // 5 of 8 assignments
        assert_eq!(m.sat_count(f, 3), 5.0);
        let nf = m.not(f);
        assert_eq!(m.sat_count(nf, 3), 3.0);
        assert_eq!(m.sat_count(Bdd::TRUE, 3), 8.0);
        assert_eq!(m.sat_count(Bdd::FALSE, 3), 0.0);
    }

    #[test]
    fn sat_count_with_gap_levels() {
        let mut m = BddManager::new();
        let _a = m.new_var();
        let b = m.new_var();
        let _c = m.new_var();
        let f = m.var(b); // vars a, c free
        assert_eq!(m.sat_count(f, 3), 4.0);
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vz) = (m.var(x), m.var(z));
        let f = m.or(vx, vz);
        assert_eq!(m.support(f), vec![x, z]);
        assert!(!m.support(f).contains(&y));
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size(Bdd::TRUE), 0);
        let nf = m.not(f);
        assert_eq!(m.size(nf), 2, "complement shares the same nodes");
    }

    #[test]
    fn root_accessors() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let f = m.var(x);
        assert_eq!(m.root_var(f), Some(x));
        assert_eq!(m.root_var(Bdd::TRUE), None);
        let (lo, hi) = m.root_cofactors(f);
        assert_eq!(lo, Bdd::FALSE);
        assert_eq!(hi, Bdd::TRUE);
    }

    #[test]
    fn root_cofactors_propagate_the_tag() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let f = m.var(x);
        let nf = m.not(f);
        assert_eq!(m.root_var(nf), Some(x));
        let (lo, hi) = m.root_cofactors(nf);
        assert_eq!(lo, Bdd::TRUE);
        assert_eq!(hi, Bdd::FALSE);
    }

    #[test]
    #[should_panic(expected = "constants have no cofactors")]
    fn root_cofactors_of_constant_panics() {
        let m = BddManager::new();
        let _ = m.root_cofactors(Bdd::TRUE);
    }

    #[test]
    fn clear_op_caches_preserves_results() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let f1 = m.xor(vx, vy);
        m.clear_op_caches();
        let f2 = m.xor(vx, vy);
        assert_eq!(f1, f2);
    }

    #[test]
    fn live_size_counts_complement_pairs_once() {
        // A {f, ¬f} pair is one physical node under complement edges. A
        // handle-keyed visited set would count the pair twice (and with it
        // every node reached both plain and complemented); the arena-index
        // bitmap must not.
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        let nf = m.not(f);
        assert_eq!(f.regular(), nf.regular(), "pair must share one node");
        assert_ne!(f, nf);
        let plain = m.live_size(&[f]);
        assert_eq!(m.live_size(&[f, nf]), plain);
        assert_eq!(m.live_size(&[nf]), plain);
        // xor reaches the y-literal both plain (x̄-branch) and complemented
        // (x-branch): 2 physical nodes, not 3 as a handle-keyed count (or
        // an untagged representation) would report.
        assert_eq!(plain, 2);
        assert_eq!(m.size(f), plain);
    }
}
