//! Boolean operations: negation, ITE, the derived binary connectives,
//! restriction and quantification. ITE and quantification run the
//! budgeted recursions of `limit.rs` under an unlimited budget, so each
//! operation has one implementation.

use tbf_obs::Metric;

use crate::computed::Key;
use crate::limit::{OpAbort, OpBudget};
use crate::manager::BddManager;
use crate::node::{Bdd, Var};

/// The budget of the infallible operations: no node cap, no cancel
/// probe. They share the budgeted recursions in `limit.rs`, which can
/// then never abort.
const UNLIMITED: OpBudget<'static> = OpBudget {
    max_nodes: usize::MAX,
    cancel: None,
};

fn unlimited(r: Result<Bdd, OpAbort>) -> Bdd {
    match r {
        Ok(f) => f,
        Err(_) => unreachable!("an operation without a budget cannot abort"),
    }
}

impl BddManager {
    /// Logical negation: a constant-time complement-tag flip.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.negate()
    }

    /// If-then-else: `f·g + f̄·h`. The primitive from which the binary
    /// connectives are derived.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        unlimited(self.try_ite_b(f, g, h, &UNLIMITED))
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Equivalence (XNOR).
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Negated conjunction.
    pub fn nand(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let a = self.and(f, g);
        self.not(a)
    }

    /// Negated disjunction.
    pub fn nor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let a = self.or(f, g);
        self.not(a)
    }

    /// Conjunction of an iterator of functions (true for empty input).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        fs.into_iter().fold(Bdd::TRUE, |acc, f| self.and(acc, f))
    }

    /// Disjunction of an iterator of functions (false for empty input).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        fs.into_iter().fold(Bdd::FALSE, |acc, f| self.or(acc, f))
    }

    /// Restriction (cofactor) `f|v=value`.
    pub fn restrict(&mut self, f: Bdd, v: Var, value: bool) -> Bdd {
        let g = self.constant(value);
        self.compose(f, v, g)
    }

    /// Existential quantification `∃v. f = f|v=0 + f|v=1`.
    pub fn exists(&mut self, f: Bdd, v: Var) -> Bdd {
        self.quantify(f, v, true)
    }

    /// Universal quantification `∀v. f = f|v=0 · f|v=1`.
    pub fn forall(&mut self, f: Bdd, v: Var) -> Bdd {
        self.quantify(f, v, false)
    }

    /// Existentially quantifies every variable in `vs`.
    pub fn exists_all(&mut self, f: Bdd, vs: &[Var]) -> Bdd {
        vs.iter().fold(f, |acc, &v| self.exists(acc, v))
    }

    fn quantify(&mut self, f: Bdd, v: Var, existential: bool) -> Bdd {
        unlimited(self.try_quantify_b(f, v, existential, &UNLIMITED))
    }

    /// Functional composition `f[v := g]`: substitutes the function `g`
    /// for the variable `v` inside `f`.
    ///
    /// This is the workhorse of TBF manipulation: delay-dependent TBF
    /// variables `x(t−k)` are replaced by the resolvent expression
    /// `s·x(0⁺) + s̄·x(0⁻)` via composition (paper §7.2).
    pub fn compose(&mut self, f: Bdd, v: Var, g: Bdd) -> Bdd {
        if f.is_const() {
            return f;
        }
        if f.is_complemented() {
            // ¬f[v := g] = ¬(f[v := g]): keep table keys regular.
            let r = self.compose(f.negate(), v, g);
            return r.negate();
        }
        let n = self.node(f);
        if n.var > v.0 {
            return f;
        }
        let key = Key::compose(f, v, g);
        if let Some(r) = self.computed.get(key) {
            self.bump(Metric::CacheHits);
            return r;
        }
        self.bump(Metric::CacheMisses);
        let r = if n.var == v.0 {
            self.ite(g, n.hi, n.lo)
        } else {
            let lo = self.compose(n.lo, v, g);
            let hi = self.compose(n.hi, v, g);
            // Levels may collide with g's support, so rebuild through ite
            // on the root variable to preserve ordering.
            let root = self.var(Var(n.var));
            self.ite(root, hi, lo)
        };
        self.computed.insert(key, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup3() -> (BddManager, Bdd, Bdd, Bdd, Var, Var, Var) {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        (m, vx, vy, vz, x, y, z)
    }

    /// Exhaustively compares a BDD against a closure over 3 variables.
    fn assert_tt3(m: &BddManager, f: Bdd, spec: impl Fn(bool, bool, bool) -> bool) {
        for i in 0..8u8 {
            let a = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            assert_eq!(m.eval(f, &a), spec(a[0], a[1], a[2]), "assignment {a:?}");
        }
    }

    #[test]
    fn binary_connectives_match_truth_tables() {
        let (mut m, vx, vy, _vz, ..) = setup3();
        let and = m.and(vx, vy);
        let or = m.or(vx, vy);
        let xor = m.xor(vx, vy);
        let iff = m.iff(vx, vy);
        let imp = m.implies(vx, vy);
        let nand = m.nand(vx, vy);
        let nor = m.nor(vx, vy);
        assert_tt3(&m, and, |x, y, _| x && y);
        assert_tt3(&m, or, |x, y, _| x || y);
        assert_tt3(&m, xor, |x, y, _| x ^ y);
        assert_tt3(&m, iff, |x, y, _| x == y);
        assert_tt3(&m, imp, |x, y, _| !x || y);
        assert_tt3(&m, nand, |x, y, _| !(x && y));
        assert_tt3(&m, nor, |x, y, _| !(x || y));
    }

    #[test]
    fn not_is_involutive() {
        let (mut m, vx, vy, vz, ..) = setup3();
        let t1 = m.xor(vx, vy);
        let f = m.or(t1, vz);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
        assert_ne!(f, nf);
    }

    #[test]
    fn ite_terminal_shortcuts() {
        let (mut m, vx, vy, ..) = setup3();
        assert_eq!(m.ite(Bdd::TRUE, vx, vy), vx);
        assert_eq!(m.ite(Bdd::FALSE, vx, vy), vy);
        assert_eq!(m.ite(vx, vy, vy), vy);
        assert_eq!(m.ite(vx, Bdd::TRUE, Bdd::FALSE), vx);
        let nx = m.not(vx);
        assert_eq!(m.ite(vx, Bdd::FALSE, Bdd::TRUE), nx);
    }

    #[test]
    fn and_all_or_all() {
        let (mut m, vx, vy, vz, ..) = setup3();
        let all = m.and_all([vx, vy, vz]);
        assert_tt3(&m, all, |x, y, z| x && y && z);
        let any = m.or_all([vx, vy, vz]);
        assert_tt3(&m, any, |x, y, z| x || y || z);
        assert_eq!(m.and_all([]), Bdd::TRUE);
        assert_eq!(m.or_all([]), Bdd::FALSE);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, vx, vy, vz, x, ..) = setup3();
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz); // x·y + z
        let f_x1 = m.restrict(f, x, true);
        let f_x0 = m.restrict(f, x, false);
        assert_tt3(&m, f_x1, |_, y, z| y || z);
        assert_tt3(&m, f_x0, |_, _, z| z);
    }

    #[test]
    fn quantification() {
        let (mut m, vx, vy, vz, x, ..) = setup3();
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz);
        let ex = m.exists(f, x);
        let fa = m.forall(f, x);
        assert_tt3(&m, ex, |_, y, z| y || z);
        assert_tt3(&m, fa, |_, _, z| z);
        // Quantifying a variable outside the support is the identity.
        let w = m.new_var();
        assert_eq!(m.exists(f, w), f);
        assert_eq!(m.forall(f, w), f);
    }

    #[test]
    fn exists_all_removes_support() {
        let (mut m, vx, vy, vz, x, y, _z) = setup3();
        let xy = m.xor(vx, vy);
        let f = m.and(xy, vz); // ∃x∃y (x⊕y)·z = z
        let g = m.exists_all(f, &[x, y]);
        assert_eq!(g, vz);
        assert_eq!(m.support(g), vec![Var(2)]);
    }

    #[test]
    fn compose_substitutes_functions() {
        let (mut m, vx, vy, vz, x, ..) = setup3();
        let f = m.xor(vx, vy); // x ⊕ y
        let g = m.and(vy, vz); // y·z
        let h = m.compose(f, x, g); // (y·z) ⊕ y
        assert_tt3(&m, h, |_, y, z| (y && z) ^ y);
    }

    #[test]
    fn compose_with_lower_ordered_replacement() {
        // Replace a *later* variable with a function of an *earlier* one:
        // exercises the order-preserving rebuild path.
        let (mut m, vx, vy, _vz, _x, y, _z) = setup3();
        let f = m.and(vx, vy);
        let h = m.compose(f, y, vx); // x·x = x
        assert_eq!(h, vx);
    }

    #[test]
    fn compose_on_missing_var_is_identity() {
        let (mut m, vx, vy, _vz, _x, _y, z) = setup3();
        let f = m.and(vx, vy);
        let h = m.compose(f, z, Bdd::TRUE);
        assert_eq!(h, f);
    }

    #[test]
    fn de_morgan_holds_canonically() {
        let (mut m, vx, vy, ..) = setup3();
        let lhs = m.nand(vx, vy);
        let nx = m.not(vx);
        let ny = m.not(vy);
        let rhs = m.or(nx, ny);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn not_is_pointer_involutive_and_free() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        let nodes_before = m.node_count();
        let nf = m.not(f);
        assert_eq!(m.node_count(), nodes_before, "negation allocates nothing");
        assert_eq!(m.not(nf), f, "¬¬f is the same handle");
        assert_ne!(f, nf);
    }

    #[test]
    fn connectives_match_truth_tables_through_tagged_handles() {
        let mut m = BddManager::new();
        let x = m.new_var();
        let y = m.new_var();
        let z = m.new_var();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let t1 = m.nand(vx, vy);
        let f = m.xor(t1, vz);
        for i in 0..8u8 {
            let a = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            assert_eq!(m.eval(f, &a), !(a[0] && a[1]) ^ a[2], "assignment {a:?}");
        }
        // De Morgan canonically, through tagged handles.
        let lhs = m.nand(vx, vy);
        let nx = m.not(vx);
        let ny = m.not(vy);
        let rhs = m.or(nx, ny);
        assert_eq!(lhs, rhs);
        // Quantification and composition through complemented roots.
        let nf = m.not(f);
        let e1 = m.exists(nf, z);
        let a1 = m.forall(f, z);
        let na1 = m.not(a1);
        assert_eq!(e1, na1, "∃z.¬f = ¬∀z.f");
        let sub = m.compose(nf, x, vz);
        let sub2 = m.compose(f, x, vz);
        assert_eq!(sub, m.not(sub2));
    }

    #[test]
    fn shannon_expansion_reconstructs() {
        let (mut m, vx, vy, vz, x, ..) = setup3();
        let xy = m.and(vx, vy);
        let f = m.xor(xy, vz);
        let f1 = m.restrict(f, x, true);
        let f0 = m.restrict(f, x, false);
        let back = m.ite(vx, f1, f0);
        assert_eq!(back, f);
    }
}
