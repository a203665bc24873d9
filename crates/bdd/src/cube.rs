//! Cube (implicant) enumeration.
//!
//! The exact-delay algorithms need every cube of the XOR BDD
//! `BDD(f(t)) ⊕ BDD(f(∞))` to derive the linear constraints induced by the
//! resolvent literals it contains (paper §7.2: literal 1 → `t > Σdᵢ`,
//! literal 0 → `t < Σdᵢ`, absent → unconstrained).

use crate::manager::BddManager;
use crate::node::{Bdd, Var};

/// One cube (product term) of a BDD: a partial assignment along a path
/// from the root to the `1` terminal. Variables not mentioned are
/// unconstrained ("literal 2" in the paper's espresso-style notation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cube {
    literals: Vec<(Var, bool)>,
}

impl Cube {
    /// The literals of this cube in ascending variable order.
    pub fn literals(&self) -> &[(Var, bool)] {
        &self.literals
    }

    /// The phase of `v` in this cube, or `None` if unconstrained.
    pub fn phase(&self, v: Var) -> Option<bool> {
        self.literals.iter().find(|(w, _)| *w == v).map(|&(_, p)| p)
    }

    /// Number of constrained variables.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True if no variable is constrained (the tautology cube).
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }
}

impl BddManager {
    /// Iterates over the cubes of `f` (one per path to the `1` terminal).
    ///
    /// The union of the returned cubes is exactly `f`; the cubes are
    /// pairwise disjoint. An empty iterator means `f` is unsatisfiable;
    /// a single empty cube means `f` is the tautology.
    ///
    /// # Example
    ///
    /// ```
    /// use tbf_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.new_var();
    /// let y = m.new_var();
    /// let (vx, vy) = (m.var(x), m.var(y));
    /// let f = m.xor(vx, vy);
    /// let cubes: Vec<_> = m.cubes(f).collect();
    /// assert_eq!(cubes.len(), 2);
    /// for c in &cubes {
    ///     assert_eq!(c.len(), 2); // both x and y constrained, opposite phases
    ///     assert_ne!(c.phase(x), c.phase(y));
    /// }
    /// ```
    pub fn cubes(&self, f: Bdd) -> Cubes<'_> {
        Cubes {
            manager: self,
            stack: if f.is_false() {
                Vec::new()
            } else {
                vec![(f, Vec::new())]
            },
        }
    }

    /// Returns one satisfying cube of `f`, or `None` if `f` is false.
    ///
    /// Prefers short paths greedily but makes no minimality guarantee;
    /// use [`min_sat_cube`](Self::min_sat_cube) for the canonical one.
    pub fn any_sat_cube(&self, f: Bdd) -> Option<Cube> {
        self.cubes(f).next()
    }

    /// The canonical satisfying cube of `f`: constrains every support
    /// variable, choosing `false` wherever a satisfying completion
    /// exists. Extended with `false` defaults
    /// ([`cube_to_assignment`](Self::cube_to_assignment)) it is the
    /// lexicographically smallest satisfying assignment in
    /// [`Var::index`] order.
    pub fn min_sat_cube(&mut self, f: Bdd) -> Option<Cube> {
        if f.is_false() {
            return None;
        }
        let support = self.support(f); // ascending Var::index
        let mut literals = Vec::with_capacity(support.len());
        let mut cur = f;
        for v in support {
            let lo = self.restrict(cur, v, false);
            if lo.is_false() {
                literals.push((v, true));
                cur = self.restrict(cur, v, true);
            } else {
                literals.push((v, false));
                cur = lo;
            }
        }
        debug_assert!(cur.is_true());
        Some(Cube { literals })
    }

    /// Extends a cube to a full assignment over `n_vars` variables, filling
    /// unconstrained positions with `false`.
    ///
    /// # Panics
    ///
    /// Panics if the cube constrains a variable with index `>= n_vars`.
    pub fn cube_to_assignment(&self, cube: &Cube, n_vars: usize) -> Vec<bool> {
        let mut a = vec![false; n_vars];
        for &(v, phase) in cube.literals() {
            a[v.index()] = phase;
        }
        a
    }
}

/// Iterator over the cubes of a BDD. Created by
/// [`BddManager::cubes`].
pub struct Cubes<'a> {
    manager: &'a BddManager,
    stack: Vec<(Bdd, Vec<(Var, bool)>)>,
}

impl Iterator for Cubes<'_> {
    type Item = Cube;

    fn next(&mut self) -> Option<Cube> {
        while let Some((b, path)) = self.stack.pop() {
            if b.is_true() {
                // A path descends in ascending variable index, so its
                // literals are already sorted.
                return Some(Cube { literals: path });
            }
            if b.is_false() {
                continue;
            }
            // `cofactors` pushes the complement tag of `b` down onto the
            // children, so the paths enumerated are those of the denoted
            // function, not of the regular representative.
            let (lo, hi) = self.manager.cofactors(b);
            let v = Var(self.manager.node(b).var);
            if !hi.is_false() {
                let mut p = path.clone();
                p.push((v, true));
                self.stack.push((hi, p));
            }
            if !lo.is_false() {
                let mut p = path;
                p.push((v, false));
                self.stack.push((lo, p));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubes_of_constants() {
        let m = BddManager::new();
        assert_eq!(m.cubes(Bdd::FALSE).count(), 0);
        let all: Vec<_> = m.cubes(Bdd::TRUE).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
        assert!(m.any_sat_cube(Bdd::FALSE).is_none());
    }

    #[test]
    fn cubes_partition_the_onset() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz);
        // Verify the union of the cubes is f and cubes are disjoint by
        // evaluating all 8 assignments.
        let cubes: Vec<_> = m.cubes(f).collect();
        for i in 0..8u8 {
            let a = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let in_f = m.eval(f, &a);
            let covering = cubes
                .iter()
                .filter(|c| c.literals().iter().all(|&(v, phase)| a[v.index()] == phase))
                .count();
            assert_eq!(covering, usize::from(in_f), "assignment {a:?}");
        }
    }

    #[test]
    fn phase_lookup() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let vx = m.var(x);
        let ny = m.nvar(y);
        let f = m.and(vx, ny);
        let c = m.any_sat_cube(f).expect("satisfiable");
        assert_eq!(c.phase(x), Some(true));
        assert_eq!(c.phase(y), Some(false));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cube_to_assignment_fills_defaults() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let _y = m.new_var();
        let z = m.new_var();
        let vx = m.var(x);
        let nz = m.nvar(z);
        let f = m.and(vx, nz);
        let c = m.any_sat_cube(f).expect("satisfiable");
        let a = m.cube_to_assignment(&c, 3);
        assert_eq!(a, vec![true, false, false]);
        assert!(m.eval(f, &a));
    }

    #[test]
    fn every_cube_satisfies_f() {
        let mut m = BddManager::new();
        let vars: Vec<_> = (0..5).map(|_| m.new_var()).collect();
        let lits: Vec<_> = vars.iter().map(|&v| m.var(v)).collect();
        let t0 = m.and(lits[0], lits[1]);
        let t1 = m.xor(lits[2], lits[3]);
        let t2 = m.or(t0, t1);
        let f = m.and(t2, lits[4]);
        for c in m.cubes(f) {
            let a = m.cube_to_assignment(&c, 5);
            assert!(m.eval(f, &a));
        }
    }
}
