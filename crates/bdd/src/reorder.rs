//! Dynamic variable reordering: adjacent-level swaps and Rudell sifting.
//!
//! Reordering changes only the *representation* of the functions held by
//! the manager — never their meaning. Every [`Bdd`] handle remains valid
//! across a reorder and keeps denoting the same Boolean function, because
//! [`swap_levels`](BddManager::swap_levels) rewrites affected nodes *in
//! place* (same arena index, new `(var, lo, hi)` payload) instead of
//! allocating replacements. Operation caches are keyed on handles, i.e.
//! on functions, so they stay semantically valid too and are never
//! cleared by a swap. A swap touches exactly the two unique subtables of
//! the swapped variables (backward-shift removal from the upper
//! variable's table, reinsertion into the lower's), so the cost of a
//! swap is proportional to the affected layers, never to the whole
//! unique table.
//!
//! Sifting does produce transient garbage — every rewrite orphans the
//! split children it replaced — which historically could only accumulate.
//! With a [`GcPolicy`](crate::GcPolicy) installed, the sift loop calls
//! [`maybe_gc`](BddManager::maybe_gc) between variables (a safe point:
//! no operation is in flight), reclaiming that churn before it can trip
//! [`sift_abort_bound`](BddManager::sift_abort_bound) or a caller's node
//! budget spuriously. A sweep does clear the operation caches; see
//! [`collect_garbage`](BddManager::collect_garbage).
//!
//! Reordering must only run at *safe points*: no BDD operation may be
//! mid-recursion on this manager when a swap happens, since operations
//! capture order positions on their way down. The manager never reorders
//! on its own; only explicit calls move variables.

use std::collections::HashSet;

use crate::manager::BddManager;
use crate::node::{Bdd, Node, Var};

impl BddManager {
    /// Arena-size abort threshold for a bounded sift of `roots`.
    ///
    /// Without garbage collection, swaps only grow the occupied arena
    /// (dead entries linger until the manager is dropped), so an
    /// unbounded sift can inflate it past any caller's node budget all by
    /// itself. Under [`GcPolicy::OnPressure`](crate::GcPolicy) the sift
    /// loop reclaims that transient churn between variables, so this
    /// bound trips only on genuine live growth. Either way, the bound
    /// grants exploration headroom proportional to the *live* size being
    /// optimised (what matters), not to the dead arena: since variables
    /// are sifted biggest-layer-first, the budget is spent on the most
    /// promising variables before the pass stops.
    pub fn sift_abort_bound(&self, roots: &[Bdd]) -> usize {
        let headroom = self.live_size(roots).saturating_mul(8).max(1024);
        self.node_count().saturating_add(headroom)
    }

    /// Swaps the variables at order positions `l` and `l + 1` in place.
    ///
    /// This is the classic unique-table local rewrite: only nodes of the
    /// upper variable `x = level2var[l]` that test `y = level2var[l + 1]`
    /// in a child are rewritten (same arena slot, root variable becomes
    /// `y`); every other node — including every handle held by callers —
    /// is untouched and keeps its meaning. All arena entries at the
    /// affected level are processed, dead or live, so the global order
    /// invariant holds for *any* reachable handle.
    ///
    /// Returns the number of nodes rewritten; `0` means the node DAG is
    /// unchanged (only the order tables moved), so any size measured
    /// before the swap is still current.
    ///
    /// # Panics
    ///
    /// Panics if `l + 1 >= var_count()`.
    pub fn swap_levels(&mut self, l: usize) -> usize {
        assert!(
            l + 1 < self.var_count(),
            "swap_levels: position {l} is not above another level"
        );
        self.obs_sift_swap();
        let x = self.level2var[l];
        let y = self.level2var[l + 1];
        // Only nodes rooted at `x` can change, so scan the per-variable
        // index instead of the whole arena. The list may hold stale slots
        // (rewritten away by earlier swaps) and, because a slot can cycle
        // back to `x` while its original entry is still listed, duplicates
        // — compact both here. Sorting also restores ascending arena
        // order, keeping the rewrite sequence identical to a full scan.
        let mut slots = std::mem::take(&mut self.var_nodes[x as usize]);
        slots.sort_unstable();
        slots.dedup();
        slots.retain(|&i| self.nodes[i as usize].var == x);
        // Collect first, rewrite after: `mk` during the rewrite loop must
        // only ever see post-collection state.
        let rewrites: Vec<u32> = slots
            .iter()
            .copied()
            .filter(|&i| {
                let n = self.nodes[i as usize];
                self.child_tests(n.lo, y) || self.child_tests(n.hi, y)
            })
            .collect();
        self.var_nodes[x as usize] = slots;
        let rewritten = rewrites.len();
        for i in rewrites {
            let old = self.nodes[i as usize];
            let (f00, f01) = self.split_on(old.lo, y);
            let (f10, f11) = self.split_on(old.hi, y);
            // The payload at slot `i` is still `old`, so the key compare
            // inside the backward-shift removal sees consistent data.
            let removed = self.unique.remove(x, old.lo, old.hi, &self.nodes);
            debug_assert!(removed, "rewritten node was not interned under x");
            // The new x-children sit below both x and y: their own
            // children are grandchildren of `old`, all at positions
            // strictly below l + 1.
            let h0 = self.mk(x, f00, f10);
            let h1 = self.mk(x, f01, f11);
            debug_assert_ne!(h0, h1, "a node testing y cannot lose y by the swap");
            // Complement-edge canonicity survives the in-place rewrite for
            // free: `old.hi` is regular (canonical then-edge rule), so its
            // split keeps `f11` regular, so `mk` never renormalizes `h1`.
            debug_assert!(
                !h1.is_complemented(),
                "swap must keep the rewritten node's hi edge regular"
            );
            let new = Node {
                var: y,
                lo: h0,
                hi: h1,
            };
            debug_assert!(
                self.unique.get(y, h0, h1, &self.nodes).is_none(),
                "swap produced a duplicate unique-table key"
            );
            self.nodes[i as usize] = new;
            self.var_nodes[y as usize].push(i);
            self.unique.insert(y, i, &self.nodes);
        }
        // Give back slack from this swap's churn: only the two affected
        // subtables can have shrunk, so only they are examined.
        self.unique.maybe_shrink(x, &self.nodes);
        self.unique.maybe_shrink(y, &self.nodes);
        self.var2level[x as usize] = (l + 1) as u32;
        self.var2level[y as usize] = l as u32;
        self.level2var[l] = y;
        self.level2var[l + 1] = x;
        rewritten
    }

    #[inline]
    fn child_tests(&self, b: Bdd, var: u32) -> bool {
        !b.is_const() && self.nodes[b.index()].var == var
    }

    /// Cofactors of `b` on `var` assuming `var` can only appear at the
    /// root of `b`.
    #[inline]
    fn split_on(&self, b: Bdd, var: u32) -> (Bdd, Bdd) {
        if self.child_tests(b, var) {
            let n = self.nodes[b.index()];
            if b.is_complemented() {
                (n.lo.negate(), n.hi.negate())
            } else {
                (n.lo, n.hi)
            }
        } else {
            (b, b)
        }
    }

    /// Moves the variables into `order` (root-first) by adjacent swaps.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all declared variables.
    pub fn reorder_to(&mut self, order: &[Var]) {
        assert_eq!(
            order.len(),
            self.var_count(),
            "order must list every variable"
        );
        let mut seen = vec![false; order.len()];
        for v in order {
            assert!(
                v.index() < seen.len() && !seen[v.index()],
                "order must be a permutation of the declared variables"
            );
            seen[v.index()] = true;
        }
        for (target, v) in order.iter().enumerate() {
            let mut cur = self.var2level[v.index()] as usize;
            debug_assert!(cur >= target, "positions above target are already fixed");
            while cur > target {
                self.swap_levels(cur - 1);
                cur -= 1;
            }
        }
    }

    /// Rudell-style sifting: each variable in turn is moved through every
    /// order position by adjacent swaps and parked where the live size
    /// (reachable from `roots`) is smallest.
    ///
    /// Deterministic: variables are processed in descending live-node
    /// count at their starting level (ties by ascending index), and among
    /// equally small positions the one closest to the root wins. A
    /// variable's exploration stops early once the live size exceeds
    /// `max_growth_percent`/100 of its starting value, and the whole pass
    /// stops once it has interned `abort_nodes − node_count()` fresh
    /// nodes (with an append-only arena that is the moment the occupied
    /// arena exceeds `abort_nodes`; under GC the allocation count is
    /// what bounds the pass's *work*, since in-pass sweeps roll the
    /// occupancy back). Under an installed [`GcPolicy`](crate::GcPolicy),
    /// a sweep may run between variables with `roots` ∪ the protected
    /// stack as the survival set. Returns the live size before and
    /// after.
    pub fn sift(
        &mut self,
        roots: &[Bdd],
        max_growth_percent: usize,
        abort_nodes: usize,
    ) -> (usize, usize) {
        let n = self.var_count();
        let before = self.live_size(roots);
        self.obs_sift_live(before);
        // The bound is an arena size, but the pass enforces it against
        // cumulative *allocations*: with GC off the two are the same
        // quantity (occupied never shrinks, so occupied > bound ⇔
        // allocations since entry > bound − entry occupancy), while
        // under GC the in-pass sweeps roll occupied back and an
        // occupancy test would never trip — every pass would sift all
        // n variables through all n positions, orders of magnitude
        // more swap work than the append-only arena ever spends.
        let abort_allocs = self
            .allocated
            .saturating_add(abort_nodes.saturating_sub(self.node_count()));
        if n >= 2 && before > 0 {
            for v in self.vars_by_live_count(roots) {
                self.sift_one(v, roots, max_growth_percent, abort_allocs);
                // Between variables is a safe point: reclaim the swap
                // churn (policy permitting) before moving on, so it
                // cannot inflate the arena across the whole pass.
                self.maybe_gc(roots);
                if self.allocated > abort_allocs {
                    break;
                }
            }
        }
        (before, self.live_size(roots))
    }

    /// Variables with at least one live node, sorted by descending
    /// live-node count (ties by ascending variable index): the classic
    /// biggest-layer-first sweep. Variables no live node tests are
    /// skipped — moving them cannot change the live size, so sifting
    /// them is pure swap cost.
    fn vars_by_live_count(&self, roots: &[Bdd]) -> Vec<u32> {
        let mut per_var = vec![0usize; self.var_count()];
        let mut stack: Vec<Bdd> = roots.iter().map(|b| b.regular()).collect();
        let mut seen = HashSet::new();
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            let node = self.node(b);
            per_var[node.var as usize] += 1;
            stack.push(node.lo.regular());
            stack.push(node.hi.regular());
        }
        let mut vars: Vec<u32> = (0..self.var_count() as u32)
            .filter(|&v| per_var[v as usize] > 0)
            .collect();
        vars.sort_by_key(|&v| (std::cmp::Reverse(per_var[v as usize]), v));
        vars
    }

    /// Moves one variable down to the bottom, then up to the top, then to
    /// the best position seen. `abort_allocs` is the pass-wide cap on
    /// [`allocated_total`](BddManager::allocated_total) (see
    /// [`sift`](BddManager::sift)).
    fn sift_one(&mut self, v: u32, roots: &[Bdd], max_growth_percent: usize, abort_allocs: usize) {
        let n = self.var_count();
        let start_size = self.live_size(roots);
        let limit = start_size.saturating_mul(max_growth_percent.max(100)) / 100;
        let l0 = self.var2level[v as usize] as usize;
        let mut cur = l0;
        let mut best = (start_size, l0);
        let track = |size: usize, pos: usize, best: &mut (usize, usize)| {
            if size < best.0 || (size == best.0 && pos < best.1) {
                *best = (size, pos);
            }
        };
        // A swap that rewrites nothing leaves the node DAG untouched, so
        // the last measured size is still exact — only re-traverse after
        // a swap that actually changed nodes.
        let mut s = start_size;
        // Downward phase (toward the leaves).
        while cur + 1 < n {
            if self.swap_levels(cur) > 0 {
                s = self.live_size(roots);
            }
            cur += 1;
            track(s, cur, &mut best);
            if s > limit || self.allocated > abort_allocs {
                break;
            }
        }
        // Upward phase; growth aborts only apply in unexplored territory
        // (above the starting level) — below it we are retracing swaps
        // whose sizes were already accepted on the way down.
        while cur > 0 {
            if self.swap_levels(cur - 1) > 0 {
                s = self.live_size(roots);
            }
            cur -= 1;
            track(s, cur, &mut best);
            if cur < l0 && (s > limit || self.allocated > abort_allocs) {
                break;
            }
        }
        // Park at the best position seen.
        while cur < best.1 {
            self.swap_levels(cur);
            cur += 1;
        }
        while cur > best.1 {
            self.swap_levels(cur - 1);
            cur -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All 2^n evaluations of `f`, with assignment bit `i` = variable `i`.
    fn truth_table(m: &BddManager, f: Bdd, n: usize) -> Vec<bool> {
        (0..1usize << n)
            .map(|bits| {
                let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                m.eval(f, &a)
            })
            .collect()
    }

    fn build_majority() -> (BddManager, Bdd) {
        let mut m = BddManager::new();
        let vars: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let ab = m.and(lits[0], lits[1]);
        let bc = m.and(lits[1], lits[2]);
        let ac = m.and(lits[0], lits[2]);
        let t = m.or(ab, bc);
        let f = m.or(t, ac);
        (m, f)
    }

    #[test]
    fn swap_preserves_semantics_and_handles() {
        let (mut m, f) = build_majority();
        let tt = truth_table(&m, f, 3);
        for l in [0, 1, 0, 1, 1, 0] {
            m.swap_levels(l);
            assert_eq!(truth_table(&m, f, 3), tt);
        }
    }

    #[test]
    fn swap_is_involutive_on_the_order() {
        let (mut m, _f) = build_majority();
        let before = m.current_order();
        m.swap_levels(1);
        assert_ne!(m.current_order(), before);
        m.swap_levels(1);
        assert_eq!(m.current_order(), before);
    }

    #[test]
    fn swap_keeps_ops_working_afterwards() {
        let (mut m, f) = build_majority();
        m.swap_levels(0);
        // New operations on the reordered manager must still be correct
        // and canonical.
        let g = m.not(f);
        let h = m.not(g);
        assert_eq!(h, f);
        let x0 = Var(0);
        let ex = m.exists(f, x0);
        let tt = truth_table(&m, ex, 3);
        // ∃a. maj(a,b,c) = b + c
        for (bits, &val) in tt.iter().enumerate() {
            let (b, c) = (bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
            assert_eq!(val, b || c);
        }
    }

    #[test]
    fn reorder_to_reaches_any_permutation() {
        let (mut m, f) = build_majority();
        let tt = truth_table(&m, f, 3);
        m.reorder_to(&[Var(2), Var(0), Var(1)]);
        assert_eq!(m.current_order(), vec![Var(2), Var(0), Var(1)]);
        assert_eq!(m.level_of(Var(2)), 0);
        assert!(!m.is_identity_order());
        assert_eq!(truth_table(&m, f, 3), tt);
        m.reorder_to(&[Var(0), Var(1), Var(2)]);
        assert!(m.is_identity_order());
        assert_eq!(truth_table(&m, f, 3), tt);
    }

    /// Σ xᵢ·yᵢ with all the x's declared before all the y's: exponential
    /// in the declaration order, linear once interleaved.
    fn separated_inner_product(m: &mut BddManager, n: usize) -> Bdd {
        let xs: Vec<Var> = (0..n).map(|_| m.new_var()).collect();
        let ys: Vec<Var> = (0..n).map(|_| m.new_var()).collect();
        let mut acc = Bdd::FALSE;
        for i in 0..n {
            let (vx, vy) = (m.var(xs[i]), m.var(ys[i]));
            let t = m.and(vx, vy);
            acc = m.or(acc, t);
        }
        acc
    }

    #[test]
    fn sifting_shrinks_a_separated_inner_product() {
        let mut m = BddManager::new();
        let f = separated_inner_product(&mut m, 6);
        let tt = truth_table(&m, f, 12);
        let (before, after) = m.sift(&[f], 150, usize::MAX);
        assert!(
            after * 2 <= before,
            "sifting should at least halve {before} live nodes, got {after}"
        );
        assert_eq!(truth_table(&m, f, 12), tt);
        assert_eq!(m.live_size(&[f]), after);
    }

    #[test]
    fn sift_is_deterministic() {
        let run = || {
            let mut m = BddManager::new();
            let f = separated_inner_product(&mut m, 5);
            m.sift(&[f], 150, usize::MAX);
            (m.current_order(), m.live_size(&[f]))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sift_respects_the_arena_abort() {
        let mut m = BddManager::new();
        let f = separated_inner_product(&mut m, 6);
        let cap = m.node_count() + 8;
        let tt = truth_table(&m, f, 12);
        m.sift(&[f], 150, cap);
        // Aborted or not, semantics and manager consistency must hold.
        assert_eq!(truth_table(&m, f, 12), tt);
        let g = m.not(f);
        let h = m.not(g);
        assert_eq!(h, f);
    }

    #[test]
    fn set_order_on_fresh_manager_matches_reorder_to() {
        let mut a = BddManager::new();
        let mut b = BddManager::new();
        for _ in 0..4 {
            a.new_var();
            b.new_var();
        }
        let order = [Var(3), Var(1), Var(0), Var(2)];
        a.set_order(&order);
        b.reorder_to(&order);
        assert_eq!(a.current_order(), b.current_order());
        assert_eq!(a.level_of(Var(3)), 0);
    }

    #[test]
    #[should_panic(expected = "fresh manager")]
    fn set_order_rejects_populated_managers() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let _ = m.var(x);
        m.set_order(&[x]);
    }

    /// Every stored node must keep its then-edge regular
    /// (the canonical-edge rule); a violation would make {f, ¬f} intern as
    /// two distinct nodes and silently break handle equality.
    fn assert_hi_edges_regular(m: &BddManager) {
        for (i, n) in m.nodes.iter().enumerate().skip(1) {
            if n.var == crate::node::FREE_LEVEL {
                continue;
            }
            assert!(
                !n.hi.is_complemented(),
                "node {i} stores a complemented hi edge after reordering"
            );
        }
    }

    #[test]
    fn swap_and_sift_preserve_complement_canonicity() {
        let mut m = BddManager::new();
        let f = separated_inner_product(&mut m, 4);
        let nf = m.not(f);
        assert_eq!(f.regular(), nf.regular(), "pair must share one node");
        let tt = truth_table(&m, f, 8);
        for l in [0, 3, 1, 6, 2, 0] {
            m.swap_levels(l);
            assert_hi_edges_regular(&m);
            assert_eq!(truth_table(&m, f, 8), tt);
            assert_eq!(m.not(nf), f, "complement pair must survive the swap");
        }
        let (before, after) = m.sift(&[f, nf], 150, usize::MAX);
        assert!(after <= before);
        assert_hi_edges_regular(&m);
        assert_eq!(truth_table(&m, f, 8), tt);
        let tn: Vec<bool> = tt.iter().map(|&b| !b).collect();
        assert_eq!(truth_table(&m, nf, 8), tn);
    }

    /// Regression for the global-map era: repeated sift cycles used to
    /// leave the unique table (and the arena) at the high-water mark of
    /// the transient churn forever. With per-variable subtables
    /// (backward-shift deletion + shrink at swap exit) and the sweep in
    /// the sift loop, every variable's subtable capacity must stay within
    /// a constant factor of its interned entries.
    #[test]
    fn repeated_sift_cycles_keep_subtable_capacity_bounded() {
        let mut m = BddManager::new();
        m.set_gc_policy(crate::gc::GcPolicy::OnPressure { trigger_nodes: 64 });
        let f = separated_inner_product(&mut m, 6);
        let tt = truth_table(&m, f, 12);
        let natural: Vec<Var> = (0..12u32).map(Var).collect();
        for _ in 0..4 {
            m.sift(&[f], 150, usize::MAX);
            // Drag the order back to the bad separated layout so the next
            // cycle has real work — and real churn — to do.
            m.reorder_to(&natural);
        }
        assert_eq!(truth_table(&m, f, 12), tt);
        for v in 0..12u32 {
            let (entries, cap) = m.unique_subtable_stats(Var(v));
            assert!(
                cap <= (entries * 8).max(8),
                "var {v}: subtable capacity {cap} for {entries} entries"
            );
        }
        assert!(m.gc_stats().sweeps > 0, "pressure sweeps must have fired");
        // A final sweep leaves exactly the survivors interned: the
        // subtables and the occupied arena agree, with no dead residue.
        m.collect_garbage(&[f]);
        let interned: usize = (0..12).map(|v| m.unique_subtable_stats(Var(v)).0).sum();
        assert_eq!(
            interned + 1,
            m.node_count(),
            "interned + terminal = occupied"
        );
    }

    #[test]
    fn new_vars_may_follow_a_reorder() {
        let (mut m, f) = build_majority();
        m.reorder_to(&[Var(1), Var(2), Var(0)]);
        let w = m.new_var();
        assert_eq!(m.level_of(w), 3);
        let vw = m.var(w);
        let g = m.and(f, vw);
        let tt = truth_table(&m, g, 4);
        let tf = truth_table(&m, f, 3);
        for bits in 0..16usize {
            assert_eq!(tt[bits], tf[bits & 7] && bits >> 3 & 1 == 1);
        }
    }
}
