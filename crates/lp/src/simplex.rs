//! Dense two-phase simplex with Bland's anti-cycling rule, generic over
//! the scalar field.

use crate::field::LpField;
use crate::problem::{LpProblem, Relation};

/// The result of [`solve`].
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome<F> {
    /// An optimal solution was found.
    Optimal {
        /// Optimal assignment of the problem's original variables.
        x: Vec<F>,
        /// Objective value at `x`.
        value: F,
    },
    /// No assignment satisfies all bounds and constraints.
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
}

/// How each original variable is mapped to nonnegative tableau columns.
#[derive(Clone, Copy, Debug)]
enum VarMap<F> {
    /// `x = x' + lo`, `x' ≥ 0`.
    Shifted { col: usize, lo: F },
    /// `x = hi − x'`, `x' ≥ 0` (no lower bound).
    Flipped { col: usize, hi: F },
    /// `x = x⁺ − x⁻`, both `≥ 0` (free variable).
    Free { pos: usize, neg: usize },
}

struct Tableau<F> {
    /// `m` constraint rows, each of length `n + 1` (last entry = rhs).
    rows: Vec<Vec<F>>,
    /// Reduced-cost row of length `n + 1` (last entry = −objective).
    cost: Vec<F>,
    /// Basic column of each row.
    basis: Vec<usize>,
    n: usize,
}

impl<F: LpField> Tableau<F> {
    fn pivot(&mut self, r: usize, c: usize) {
        let piv = self.rows[r][c];
        debug_assert!(!piv.is_zero());
        let inv = F::one() / piv;
        for x in self.rows[r].iter_mut() {
            *x = *x * inv;
        }
        let pivot_row = std::mem::take(&mut self.rows[r]);
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != r {
                eliminate(row, &pivot_row, c);
            }
        }
        eliminate(&mut self.cost, &pivot_row, c);
        self.rows[r] = pivot_row;
        self.basis[r] = c;
    }

    /// Runs the simplex loop to optimality. Returns `false` on
    /// unboundedness. Bland's rule guarantees termination.
    fn optimize(&mut self) -> bool {
        loop {
            // Entering column: smallest index with positive reduced cost.
            let Some(c) = (0..self.n).find(|&j| self.cost[j].is_positive()) else {
                return true;
            };
            // Ratio test with Bland tie-breaking on basis index.
            let mut best: Option<(usize, F)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                if !row[c].is_positive() {
                    continue;
                }
                let ratio = row[self.n] / row[c];
                match &best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        // `!(ratio > *br)` (not `ratio <= *br`) keeps NaN
                        // ratios from stealing the pivot under f64.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if ratio < *br || (!(ratio > *br) && self.basis[i] < self.basis[*bi]) {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
            match best {
                Some((r, _)) => self.pivot(r, c),
                None => return false, // unbounded
            }
        }
    }
}

/// Subtracts `row[c]` times the (normalized) pivot row from `row`. Pivot
/// entries that are exactly zero change nothing and are skipped; the test
/// is `==`, not the field's tolerant `is_zero`, so the `f64` tableau takes
/// the same values it would without the skip (a zero's sign aside).
fn eliminate<F: LpField>(row: &mut [F], pivot_row: &[F], c: usize) {
    let factor = row[c];
    if factor.is_zero() {
        return;
    }
    for (x, &p) in row.iter_mut().zip(pivot_row) {
        if p != F::zero() {
            *x = *x - factor * p;
        }
    }
}

/// Solves `problem` (maximization) with the two-phase simplex method.
///
/// Exact when instantiated at [`Rat`](crate::Rat); tolerance-based at
/// `f64`. Problems of the size arising in exact delay computation (tens of
/// variables) solve in microseconds.
///
/// # Example
///
/// ```
/// use tbf_lp::{LpProblem, Relation, solve, LpOutcome, Rat};
///
/// // maximize t  s.t.  t ≤ d, 1 ≤ d ≤ 2  — optimum t = 2.
/// let mut p: LpProblem<Rat> = LpProblem::new();
/// let t = p.add_var(Some(Rat::ZERO), None);
/// let d = p.add_var(Some(Rat::from_int(1)), Some(Rat::from_int(2)));
/// p.set_objective(t, Rat::ONE);
/// p.add_constraint(vec![(t, Rat::ONE), (d, -Rat::ONE)], Relation::Le, Rat::ZERO);
/// assert_eq!(
///     solve(&p),
///     LpOutcome::Optimal {
///         x: vec![Rat::from_int(2), Rat::from_int(2)],
///         value: Rat::from_int(2)
///     }
/// );
/// ```
pub fn solve<F: LpField>(problem: &LpProblem<F>) -> LpOutcome<F> {
    // --- Map original variables to nonnegative columns -------------------
    let mut maps: Vec<VarMap<F>> = Vec::with_capacity(problem.vars.len());
    let mut n_struct = 0usize;
    // Extra `x' ≤ hi − lo` rows for doubly bounded variables.
    let mut extra_upper: Vec<(usize, F)> = Vec::new();
    for def in &problem.vars {
        match (def.lower, def.upper) {
            (Some(lo), upper) => {
                let col = n_struct;
                n_struct += 1;
                maps.push(VarMap::Shifted { col, lo });
                if let Some(hi) = upper {
                    extra_upper.push((col, hi - lo));
                }
            }
            (None, Some(hi)) => {
                let col = n_struct;
                n_struct += 1;
                maps.push(VarMap::Flipped { col, hi });
            }
            (None, None) => {
                let pos = n_struct;
                let neg = n_struct + 1;
                n_struct += 2;
                maps.push(VarMap::Free { pos, neg });
            }
        }
    }

    // --- Express constraints over the substituted variables --------------
    // Each row: (coeffs over structural cols, relation, rhs).
    struct Row<F> {
        coeffs: Vec<F>,
        relation: Relation,
        rhs: F,
    }
    let mut rows: Vec<Row<F>> = Vec::new();
    for c in &problem.constraints {
        let mut coeffs = vec![F::zero(); n_struct];
        let mut rhs = c.rhs;
        for &(v, a) in &c.terms {
            match maps[v.0] {
                VarMap::Shifted { col, lo } => {
                    coeffs[col] = coeffs[col] + a;
                    rhs = rhs - a * lo;
                }
                VarMap::Flipped { col, hi } => {
                    coeffs[col] = coeffs[col] - a;
                    rhs = rhs - a * hi;
                }
                VarMap::Free { pos, neg } => {
                    coeffs[pos] = coeffs[pos] + a;
                    coeffs[neg] = coeffs[neg] - a;
                }
            }
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs,
        });
    }
    for &(col, ub) in &extra_upper {
        let mut coeffs = vec![F::zero(); n_struct];
        coeffs[col] = F::one();
        rows.push(Row {
            coeffs,
            relation: Relation::Le,
            rhs: ub,
        });
    }

    // --- Normalize rhs ≥ 0 and attach slack/artificial columns -----------
    let m = rows.len();
    let mut n_slack = 0usize;
    #[derive(Clone, Copy)]
    enum Aux {
        Slack(usize),
        SurplusArtificial(usize),
        ArtificialOnly,
    }
    let mut aux: Vec<Aux> = Vec::with_capacity(m);
    for row in rows.iter_mut() {
        if row.rhs.is_negative() {
            for x in row.coeffs.iter_mut() {
                *x = -*x;
            }
            row.rhs = -row.rhs;
            row.relation = match row.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        match row.relation {
            Relation::Le => {
                aux.push(Aux::Slack(n_slack));
                n_slack += 1;
            }
            Relation::Ge => {
                aux.push(Aux::SurplusArtificial(n_slack));
                n_slack += 1;
            }
            Relation::Eq => aux.push(Aux::ArtificialOnly),
        }
    }
    let n_artificial = aux.iter().filter(|a| !matches!(a, Aux::Slack(_))).count();
    let n = n_struct + n_slack + n_artificial;

    let mut tab = Tableau {
        rows: Vec::with_capacity(m),
        cost: vec![F::zero(); n + 1],
        basis: vec![0; m],
        n,
    };
    let mut next_artificial = n_struct + n_slack;
    let mut artificial_cols = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let mut r = vec![F::zero(); n + 1];
        r[..n_struct].copy_from_slice(&row.coeffs);
        r[n] = row.rhs;
        match aux[i] {
            Aux::Slack(s) => {
                r[n_struct + s] = F::one();
                tab.basis[i] = n_struct + s;
            }
            Aux::SurplusArtificial(s) => {
                r[n_struct + s] = -F::one();
                r[next_artificial] = F::one();
                tab.basis[i] = next_artificial;
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            }
            Aux::ArtificialOnly => {
                r[next_artificial] = F::one();
                tab.basis[i] = next_artificial;
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            }
        }
        tab.rows.push(r);
    }

    // --- Phase 1: drive artificials to zero ------------------------------
    if !artificial_cols.is_empty() {
        // maximize −Σ artificials  ⇒ cost = Σ (rows with artificial basis),
        // zeroed on artificial columns themselves.
        for j in 0..=n {
            let mut s = F::zero();
            for (i, row) in tab.rows.iter().enumerate() {
                if artificial_cols.contains(&tab.basis[i]) {
                    s = s + row[j];
                }
            }
            tab.cost[j] = s;
        }
        for &c in &artificial_cols {
            tab.cost[c] = F::zero();
        }
        let bounded = tab.optimize();
        debug_assert!(bounded, "phase-1 objective is bounded by construction");
        // Infeasible iff some artificial remains positive: the phase-1
        // objective value is −(cost rhs)... our cost rhs tracks Σ artificial.
        if tab.cost[n].is_positive() {
            return LpOutcome::Infeasible;
        }
        // Pivot any artificial still in the basis (at zero level) out.
        for i in 0..m {
            if artificial_cols.contains(&tab.basis[i]) {
                if let Some(c) = (0..n_struct + n_slack).find(|&j| !tab.rows[i][j].is_zero()) {
                    tab.pivot(i, c);
                }
                // Otherwise the row is all-zero: redundant, harmless.
            }
        }
        // Forbid artificials from re-entering.
        for row in tab.rows.iter_mut() {
            for &c in &artificial_cols {
                row[c] = F::zero();
            }
        }
    }

    // --- Phase 2: original objective --------------------------------------
    // Build reduced costs for the substituted objective.
    let mut cost = vec![F::zero(); n + 1];
    for (def, map) in problem.vars.iter().zip(&maps) {
        let c = def.objective;
        if c.is_zero() {
            continue;
        }
        match *map {
            VarMap::Shifted { col, .. } => {
                cost[col] = cost[col] + c;
            }
            VarMap::Flipped { col, .. } => {
                cost[col] = cost[col] - c;
            }
            VarMap::Free { pos, neg } => {
                cost[pos] = cost[pos] + c;
                cost[neg] = cost[neg] - c;
            }
        }
    }
    // Price out the current basis.
    tab.cost = cost;
    for (row, &b) in tab.rows.iter().zip(&tab.basis) {
        eliminate(&mut tab.cost, row, b);
    }
    if !tab.optimize() {
        return LpOutcome::Unbounded;
    }

    // --- Read out the solution -------------------------------------------
    let mut col_value = vec![F::zero(); n];
    for i in 0..m {
        col_value[tab.basis[i]] = tab.rows[i][n];
    }
    let mut x = Vec::with_capacity(problem.vars.len());
    for map in &maps {
        let v = match *map {
            VarMap::Shifted { col, lo } => col_value[col] + lo,
            VarMap::Flipped { col, hi } => hi - col_value[col],
            VarMap::Free { pos, neg } => col_value[pos] - col_value[neg],
        };
        x.push(v);
    }
    let value = problem.objective_value(&x);
    LpOutcome::Optimal { x, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rat;

    fn r(n: i128) -> Rat {
        Rat::from_int(n)
    }

    #[test]
    fn basic_max_f64() {
        // maximize 3x + 2y  s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → (4,0), 12
        let mut p: LpProblem<f64> = LpProblem::new();
        let x = p.add_var(Some(0.0), None);
        let y = p.add_var(Some(0.0), None);
        p.set_objective(x, 3.0);
        p.set_objective(y, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        match solve(&p) {
            LpOutcome::Optimal { x, value } => {
                assert!((value - 12.0).abs() < 1e-9);
                assert!((x[0] - 4.0).abs() < 1e-9);
                assert!(x[1].abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn basic_max_rational() {
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(Some(Rat::ZERO), None);
        let y = p.add_var(Some(Rat::ZERO), None);
        p.set_objective(x, r(3));
        p.set_objective(y, r(5));
        p.add_constraint(vec![(x, r(1))], Relation::Le, r(4));
        p.add_constraint(vec![(y, r(2))], Relation::Le, r(12));
        p.add_constraint(vec![(x, r(3)), (y, r(2))], Relation::Le, r(18));
        // Classic problem: optimum 36 at (2, 6).
        match solve(&p) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(36));
                assert_eq!(x, vec![r(2), r(6)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(Some(Rat::ZERO), Some(r(1)));
        p.add_constraint(vec![(x, r(1))], Relation::Ge, r(2));
        assert_eq!(solve(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(Some(Rat::ZERO), None);
        p.set_objective(x, r(1));
        assert_eq!(solve(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // maximize x + y s.t. x + y = 3, x − y = 1 → (2,1), 3
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(Some(Rat::ZERO), None);
        let y = p.add_var(Some(Rat::ZERO), None);
        p.set_objective(x, r(1));
        p.set_objective(y, r(1));
        p.add_constraint(vec![(x, r(1)), (y, r(1))], Relation::Eq, r(3));
        p.add_constraint(vec![(x, r(1)), (y, -r(1))], Relation::Eq, r(1));
        match solve(&p) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(3));
                assert_eq!(x, vec![r(2), r(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn free_variables() {
        // maximize −x s.t. x ≥ −5 expressed via free var and constraint.
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(None, None);
        p.set_objective(x, -r(1));
        p.add_constraint(vec![(x, r(1))], Relation::Ge, -r(5));
        match solve(&p) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(5));
                assert_eq!(x, vec![-r(5)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn upper_bounded_only_variable() {
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(None, Some(r(7)));
        p.set_objective(x, r(1));
        match solve(&p) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(7));
                assert_eq!(x, vec![r(7)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn doubly_bounded_variables() {
        // maximize t s.t. t ≤ d1 + d2, d ∈ [1,2] → 4.
        let mut p: LpProblem<Rat> = LpProblem::new();
        let t = p.add_var(Some(Rat::ZERO), None);
        let d1 = p.add_var(Some(r(1)), Some(r(2)));
        let d2 = p.add_var(Some(r(1)), Some(r(2)));
        p.set_objective(t, r(1));
        p.add_constraint(
            vec![(t, r(1)), (d1, -r(1)), (d2, -r(1))],
            Relation::Le,
            Rat::ZERO,
        );
        match solve(&p) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, r(4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_rows() {
        // x − y ≤ −1 with x,y ∈ [0,3], maximize x → x=2 when y=3.
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x = p.add_var(Some(Rat::ZERO), Some(r(3)));
        let y = p.add_var(Some(Rat::ZERO), Some(r(3)));
        p.set_objective(x, r(1));
        p.add_constraint(vec![(x, r(1)), (y, -r(1))], Relation::Le, -r(1));
        match solve(&p) {
            LpOutcome::Optimal { x, value } => {
                assert_eq!(value, r(2));
                assert_eq!(x[1], r(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Known cycling-prone structure; Bland's rule must terminate.
        let mut p: LpProblem<Rat> = LpProblem::new();
        let x1 = p.add_var(Some(Rat::ZERO), None);
        let x2 = p.add_var(Some(Rat::ZERO), None);
        let x3 = p.add_var(Some(Rat::ZERO), None);
        let x4 = p.add_var(Some(Rat::ZERO), None);
        p.set_objective(x1, Rat::new(3, 4));
        p.set_objective(x2, -r(150));
        p.set_objective(x3, Rat::new(1, 50));
        p.set_objective(x4, -r(6));
        p.add_constraint(
            vec![
                (x1, Rat::new(1, 4)),
                (x2, -r(60)),
                (x3, -Rat::new(1, 25)),
                (x4, r(9)),
            ],
            Relation::Le,
            Rat::ZERO,
        );
        p.add_constraint(
            vec![
                (x1, Rat::new(1, 2)),
                (x2, -r(90)),
                (x3, -Rat::new(1, 50)),
                (x4, r(3)),
            ],
            Relation::Le,
            Rat::ZERO,
        );
        p.add_constraint(vec![(x3, r(1))], Relation::Le, r(1));
        match solve(&p) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, Rat::new(1, 20)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn solution_is_always_feasible() {
        let mut p: LpProblem<Rat> = LpProblem::new();
        let t = p.add_var(Some(Rat::ZERO), Some(r(100)));
        let d1 = p.add_var(Some(r(9)), Some(r(10)));
        let d2 = p.add_var(Some(r(18)), Some(r(20)));
        p.set_objective(t, r(1));
        p.add_constraint(vec![(t, r(1)), (d1, -r(1))], Relation::Ge, Rat::ZERO);
        p.add_constraint(
            vec![(t, r(1)), (d1, -r(1)), (d2, -r(1))],
            Relation::Le,
            Rat::ZERO,
        );
        match solve(&p) {
            LpOutcome::Optimal { x, .. } => assert!(p.is_feasible(&x)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
