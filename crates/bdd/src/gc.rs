//! Mark-and-sweep garbage collection over the node arena.
//!
//! The arena was historically append-only: every node ever interned
//! stayed resident until the manager was dropped, so transient garbage
//! from dead query intermediates could only be reclaimed by rebuilding
//! the whole manager. This module adds in-place reclamation:
//!
//! * **Roots.** A sweep keeps exactly the nodes reachable from the
//!   caller-supplied root handles plus the manager's *protected stack*
//!   (see [`protect`](crate::BddManager::protect)) — an explicit
//!   handle registry the engine pushes transient frame results onto
//!   while a build is in flight. Reachability follows regular (untagged)
//!   indices, so a `{f, ¬f}` complement pair is one node and marking is
//!   complement-edge aware for free.
//! * **Sweep.** Dead slots get the [`FREE_LEVEL`] sentinel payload and
//!   go onto a free list that [`mk`](crate::BddManager::mk) pops before
//!   growing the arena. Only the unique subtables of variables that lost
//!   a node are rebuilt: each is sized once for its survivors (the
//!   capacity insertion would reach) and refilled with them; every other
//!   subtable already holds exactly its survivors and is left as it is.
//!   The computed table drops every entry touching a dead node (a freed
//!   slot may be reused by a different function) and keeps the
//!   all-survivor rest — coherent because canonicity lives in the unique
//!   table, not the memo.
//! * **Determinism.** Whether a sweep fires depends only on the policy
//!   and the arena population — logical quantities identical at every
//!   thread count — and slot reuse order is fixed (ascending), so GC
//!   never perturbs report bytes. Handle *values* after a sweep may
//!   differ from a GC-off run, but canonicity is per-manager and no
//!   result is derived from raw slot numbers.

use crate::manager::BddManager;
use crate::node::{Bdd, Node, FREE_LEVEL, TERMINAL_LEVEL};

/// When the manager collects garbage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GcPolicy {
    /// Never collect (the seed behaviour): the arena is append-only and
    /// only a full manager rebuild reclaims memory.
    #[default]
    None,
    /// Sweep at [`maybe_gc`](BddManager::maybe_gc) safe points once the
    /// manager holds at least `trigger_nodes` occupied nodes (live +
    /// not-yet-swept dead); after each sweep the trigger re-arms at twice
    /// the surviving population (never below `trigger_nodes`), so
    /// sweep cost stays amortized against allocation work.
    OnPressure {
        /// Occupied node count at which the next sweep fires.
        trigger_nodes: usize,
    },
}

/// Cumulative garbage-collection effort of one manager.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Mark-and-sweep passes run.
    pub sweeps: u64,
    /// Nodes reclaimed across all sweeps.
    pub reclaimed: u64,
}

impl BddManager {
    /// Installs the garbage-collection policy (and arms its trigger).
    pub fn set_gc_policy(&mut self, policy: GcPolicy) {
        self.gc_policy = policy;
        self.gc_trigger = match policy {
            GcPolicy::None => usize::MAX,
            GcPolicy::OnPressure { trigger_nodes } => trigger_nodes.max(1),
        };
    }

    /// The installed garbage-collection policy.
    pub fn gc_policy(&self) -> GcPolicy {
        self.gc_policy
    }

    /// Cumulative sweep/reclaim counters.
    pub fn gc_stats(&self) -> GcStats {
        self.gc_stats
    }

    /// Pushes `b` onto the protected stack: the node (and everything it
    /// reaches) survives every sweep until a matching
    /// [`truncate_protected`](Self::truncate_protected). The stack is a
    /// frame discipline, not a refcount — push on entering a scope that
    /// holds handles no root list mentions, truncate on leaving it.
    pub fn protect(&mut self, b: Bdd) {
        self.protected.push(b);
    }

    /// Current protected-stack depth (pair with
    /// [`truncate_protected`](Self::truncate_protected)).
    pub fn protected_len(&self) -> usize {
        self.protected.len()
    }

    /// Pops the protected stack back to `len` (a value previously
    /// returned by [`protected_len`](Self::protected_len)).
    pub fn truncate_protected(&mut self, len: usize) {
        self.protected.truncate(len);
    }

    /// `true` when the policy is `OnPressure` and the arena has reached
    /// the trigger, i.e. the next [`maybe_gc`](Self::maybe_gc) call will
    /// sweep. Lets callers avoid collecting a root set when nothing
    /// would happen.
    pub fn gc_pending(&self) -> bool {
        // Pressure is *occupied* nodes (live + not-yet-swept dead), the
        // same measure the re-arm below is computed from. Arena slots
        // would be wrong: they never shrink across a sweep, so a trigger
        // once crossed would stay crossed and every safe point would
        // sweep again for nothing.
        matches!(self.gc_policy, GcPolicy::OnPressure { .. })
            && self.node_count() >= self.gc_trigger
    }

    /// Runs a sweep if the policy's pressure trigger has fired; returns
    /// the number of nodes reclaimed (0 when no sweep ran). Nodes
    /// reachable from `roots` or the protected stack survive; every
    /// other handle is invalidated.
    pub fn maybe_gc(&mut self, roots: &[Bdd]) -> usize {
        match self.gc_policy {
            GcPolicy::None => 0,
            GcPolicy::OnPressure { trigger_nodes } => {
                if !self.gc_pending() {
                    return 0;
                }
                let reclaimed = self.collect_garbage(roots);
                // Re-arm at twice the survivors: a sweep then only fires
                // when at least half the occupied nodes are garbage, so
                // its O(arena + table) cost is amortized against real
                // reclamation. The sweep counts this yields are pinned by
                // `obs_determinism` and the root `corpus` test.
                self.gc_trigger = trigger_nodes.max(self.node_count().saturating_mul(2));
                reclaimed
            }
        }
    }

    /// Unconditional mark-and-sweep: frees every node not reachable from
    /// `roots` ∪ the protected stack, returning how many were reclaimed.
    ///
    /// Freed slots are reused by later `mk` calls (lowest index first);
    /// the unique subtables of variables that lost a node are rebuilt to
    /// exactly their survivors, and the computed table is purged of
    /// entries touching dead nodes (all-survivor entries keep their
    /// memoized work).
    /// Handles to surviving nodes — including complemented ones — remain
    /// valid and canonical; handles to freed nodes must not be used
    /// again.
    pub fn collect_garbage(&mut self, roots: &[Bdd]) -> usize {
        let arena = self.nodes.len();
        // Mark: arena-index bitmap, complement tags stripped so a {f, ¬f}
        // pair marks its single shared node once.
        let mut mark = vec![false; arena];
        mark[0] = true; // the terminal is always live
        let mut stack: Vec<u32> = Vec::new();
        for &r in roots.iter().chain(self.protected.iter()) {
            let i = r.index();
            if !mark[i] {
                mark[i] = true;
                stack.push(i as u32);
            }
        }
        while let Some(i) = stack.pop() {
            let n = self.nodes[i as usize];
            debug_assert_ne!(n.var, FREE_LEVEL, "root set reaches a freed slot");
            for c in [n.lo, n.hi] {
                let j = c.index();
                if !mark[j] {
                    mark[j] = true;
                    stack.push(j as u32);
                }
            }
        }
        // Sweep: collect the dead onto the free list (ascending pop
        // order), count each variable's survivors and note the variables
        // that lost a node.
        self.free.clear();
        let mut survivors = vec![0usize; self.var_count()];
        let mut touched = vec![false; self.var_count()];
        let mut reclaimed = 0usize;
        for (i, &live) in mark.iter().enumerate().skip(1) {
            let var = self.nodes[i].var;
            if live {
                debug_assert_ne!(var, TERMINAL_LEVEL);
                survivors[var as usize] += 1;
            } else {
                if var != FREE_LEVEL {
                    reclaimed += 1;
                    touched[var as usize] = true;
                }
                self.nodes[i] = Node {
                    var: FREE_LEVEL,
                    lo: Bdd::TRUE,
                    hi: Bdd::TRUE,
                };
                self.free.push(i as u32);
            }
        }
        // Pop order is LIFO: reverse so reuse fills low slots first.
        self.free.reverse();
        // Rebuild the subtables that lost a node from their survivors
        // (ascending arena order — deterministic), each sized once up
        // front to the capacity one-by-one insertion would grow it to.
        // A subtable that lost nothing holds exactly its survivors
        // already: entries only ever leave at a sweep.
        for (var, &t) in touched.iter().enumerate() {
            if t {
                self.unique.reset(var as u32, survivors[var]);
            }
        }
        for (i, &live) in mark.iter().enumerate().skip(1) {
            let var = self.nodes[i].var;
            if live && touched[var as usize] {
                self.unique.insert(var, i as u32, &self.nodes);
            }
        }
        // Computed table: entries whose operands and result all survived
        // stay correct (handles are stable and functions unchanged), and
        // keeping them preserves memoized work across the sweep. Any
        // entry touching a freed slot must go — the slot can be reused
        // by a *different* function, turning a stale hit into a wrong
        // answer. Which entries survive is a deterministic set, so
        // results stay canonical either way.
        self.computed.retain(|b| mark[b.index()]);
        self.gc_stats.sweeps += 1;
        self.gc_stats.reclaimed += reclaimed as u64;
        self.bump_gc_sweep(reclaimed as u64);
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computed::Key;

    #[test]
    fn sweep_reclaims_unreachable_nodes_and_preserves_roots() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let keep = m.xor(vx, vy);
        let dead = {
            let t = m.and(vy, vz);
            m.or(t, vx)
        };
        assert!(!dead.is_const());
        let before = m.node_count();
        let reclaimed = m.collect_garbage(&[keep]);
        assert!(reclaimed > 0, "some garbage must exist");
        assert_eq!(m.node_count(), before - reclaimed);
        assert_eq!(m.arena_size(), before, "slots are reused, not dropped");
        // The kept function still evaluates correctly…
        assert!(m.eval(keep, &[true, false, false]));
        assert!(!m.eval(keep, &[true, true, false]));
        // …and canonicity holds: rebuilding it returns the same handle.
        let (vx, vy) = (m.var(x), m.var(y));
        assert_eq!(m.xor(vx, vy), keep);
    }

    #[test]
    fn freed_slots_are_reused_before_the_arena_grows() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let keep = m.and(vx, vy);
        let _dead = m.xor(vx, vy);
        let arena = m.arena_size();
        let reclaimed = m.collect_garbage(&[keep, vx, vy]);
        assert!(reclaimed > 0);
        // Rebuilding a same-size function must fit in the freed slots.
        let (vx, vy) = (m.var(x), m.var(y));
        let _back = m.xor(vx, vy);
        assert_eq!(m.arena_size(), arena, "no growth while free slots exist");
    }

    #[test]
    fn protected_stack_shields_unrooted_handles() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let shielded = m.xor(vx, vy);
        let depth = m.protected_len();
        m.protect(shielded);
        m.collect_garbage(&[]);
        assert!(m.eval(shielded, &[true, false]));
        let (vx, vy) = (m.var(x), m.var(y));
        assert_eq!(m.xor(vx, vy), shielded, "protected node survived");
        m.truncate_protected(depth);
        let reclaimed = m.collect_garbage(&[]);
        assert!(reclaimed > 0, "unprotected now, so it is garbage");
    }

    #[test]
    fn maybe_gc_respects_policy_and_rearms() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let keep = m.and(vx, vy);
        let _dead = m.or(vx, vy);
        // Policy None: never sweeps.
        assert_eq!(m.maybe_gc(&[keep]), 0);
        assert_eq!(m.gc_stats().sweeps, 0);
        // Tiny trigger: sweeps immediately, then re-arms above the
        // current arena so the next call is a no-op.
        m.set_gc_policy(GcPolicy::OnPressure { trigger_nodes: 1 });
        let reclaimed = m.maybe_gc(&[keep, vx, vy]);
        assert!(reclaimed > 0);
        assert_eq!(m.gc_stats().sweeps, 1);
        assert_eq!(m.maybe_gc(&[keep, vx, vy]), 0, "re-armed trigger");
        assert_eq!(m.gc_stats().sweeps, 1);
        assert_eq!(m.gc_stats().reclaimed, reclaimed as u64);
    }

    #[test]
    fn sweep_sizes_each_subtable_as_insertion_would() {
        let mut m = BddManager::new();
        let xs: Vec<_> = (0..12).map(|_| m.new_var()).collect();
        let spare = m.new_var();
        // at_least[j] = "at least j of the variables folded so far are
        // true". Folding from the bottom variable up leaves one node per
        // threshold on each level, so the top subtables outgrow the
        // minimum capacity.
        let mut at_least = vec![Bdd::FALSE; xs.len() + 1];
        at_least[0] = Bdd::TRUE;
        for &x in xs.iter().rev() {
            let vx = m.var(x);
            for j in (1..at_least.len()).rev() {
                at_least[j] = m.ite(vx, at_least[j - 1], at_least[j]);
            }
        }
        // Garbage that owns every node of the spare variable.
        let vs = m.var(spare);
        for &t in &at_least {
            m.xor(t, vs);
        }
        m.collect_garbage(&at_least[3..]);

        let mut survivors = vec![0usize; m.var_count()];
        for n in &m.nodes[1..] {
            if n.var != FREE_LEVEL {
                survivors[n.var as usize] += 1;
            }
        }
        assert!(
            survivors.iter().any(|&n| n > 7),
            "no subtable outgrew 8 slots"
        );
        assert_eq!(survivors[spare.index()], 0);
        for (var, &n) in survivors.iter().enumerate() {
            let mut want = 0;
            if n > 0 {
                want = 8;
                while n * 8 > want * 7 {
                    want *= 2;
                }
            }
            assert_eq!(
                m.unique.capacity(var as u32),
                want,
                "var {var}, {n} survivors"
            );
        }

        // Every survivor is interned under its own key: `mk` finds it.
        let (occupied, arena) = (m.node_count(), m.arena_size());
        for i in 1..arena {
            let n = m.nodes[i];
            if n.var != FREE_LEVEL {
                assert_eq!(m.mk(n.var, n.lo, n.hi), Bdd::from_index(i), "slot {i}");
            }
        }
        assert_eq!((m.node_count(), m.arena_size()), (occupied, arena));
    }

    #[test]
    fn sweep_preserves_complement_pair_sharing() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        let nf = m.not(f);
        // Root only the complemented handle: the shared node must
        // survive and serve both polarities.
        m.collect_garbage(&[nf, vx, vy]);
        assert!(m.eval(f, &[true, false]));
        assert!(!m.eval(nf, &[true, false]));
        let (vx, vy) = (m.var(x), m.var(y));
        assert_eq!(m.xor(vx, vy), f);
    }

    #[test]
    fn a_sweep_purges_table_entries_on_freed_slots() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let roots = [vx, vy, vz];
        // Memoize ite(x·y, y+z, x⊕z); its operands and result own every
        // slot above the literals.
        let f = m.and(vx, vy);
        let g = m.or(vy, vz);
        let h = m.xor(vx, vz);
        let key = Key::ite(f, g, h);
        let r = m.ite(f, g, h);
        assert_eq!(m.computed.get(key), Some(r));
        m.collect_garbage(&roots);
        assert_eq!(m.computed.get(key), None, "the entry touches freed slots");
        // `mk` refills those slots, lowest first, with different
        // functions under the very same handles.
        let f2 = m.and(vx, vz);
        let g2 = m.or(vx, vz);
        let h2 = m.nand(vy, vz);
        assert_eq!((f2, g2, h2), (f, g, h), "the slots were not reused");
        // The repeated ITE computes the new functions' answer.
        let r2 = m.ite(f2, g2, h2);
        for i in 0..8u8 {
            let a = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let want = if a[0] && a[2] {
                a[0] || a[2]
            } else {
                !(a[1] && a[2])
            };
            assert_eq!(m.eval(r2, &a), want, "assignment {a:?}");
        }
    }

    #[test]
    fn a_sweep_leaves_subtables_that_lost_no_node() {
        let mut m = BddManager::new();
        let w = m.new_var();
        let xs: Vec<_> = (0..4).map(|_| m.new_var()).collect();
        let vw = m.var(w);
        let lits: Vec<Bdd> = xs.iter().map(|&x| m.var(x)).collect();
        let mut roots = lits.clone();
        roots.push(vw);
        // Garbage below `w`, then w-nodes above it in the arena.
        for (i, j) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            m.and(lits[i], lits[j]);
        }
        for (i, j) in [(0, 1), (1, 2), (2, 3)] {
            let a = m.ite(vw, lits[i], lits[j]);
            roots.push(a);
        }
        m.collect_garbage(&roots);
        // These w-nodes fill the freed low slots: `w`'s subtable now
        // holds entries in an order a rebuild in arena order would not.
        for (i, j) in [(3, 0), (0, 2), (1, 3)] {
            let b = m.ite(vw, lits[i], lits[j]);
            roots.push(b);
        }
        m.and(lits[0], lits[3]);
        let (capacity, slots) = (m.unique.capacity(w.0), m.unique.slots(w.0).to_vec());
        assert_eq!(capacity, 8, "7 w-nodes");
        assert_eq!(m.collect_garbage(&roots), 1, "only the last garbage node");
        assert_eq!(m.unique.capacity(w.0), capacity);
        assert_eq!(m.unique.slots(w.0), slots, "w lost no node");
    }
}
