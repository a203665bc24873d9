//! Property tests: the exact simplex against random sampling oracles and
//! the `f64` instantiation.
//!
//! Cases come from a deterministic in-repo SplitMix64 stream (hermetic —
//! no external PRNG/property-test crates; inlined because `tbf-lp` sits
//! below `tbf-logic`).

use tbf_lp::{solve, LpOutcome, LpProblem, PathLp, PathLpOutcome, Rat, Relation};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// A random path LP over `n` gates with integer bounds and a few random
/// path constraints.
#[derive(Clone, Debug)]
struct RandomPathLp {
    bounds: Vec<(i64, i64)>,
    less: Vec<Vec<usize>>,
    greater: Vec<Vec<usize>>,
    window_hi: i64,
}

fn gen_path_lp(rng: &mut Rng) -> RandomPathLp {
    let n = 2 + rng.below(4) as usize;
    let bounds = (0..n)
        .map(|_| {
            let lo = rng.in_range(1, 10);
            (lo, lo + 5)
        })
        .collect();
    let subset = |rng: &mut Rng| -> Vec<usize> {
        let len = 1 + rng.below(n as u64) as usize;
        let mut v: Vec<usize> = (0..len).map(|_| rng.below(n as u64) as usize).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let less = (0..rng.below(3)).map(|_| subset(rng)).collect();
    let greater = (0..rng.below(3)).map(|_| subset(rng)).collect();
    let window_hi = rng.in_range(20, 200);
    RandomPathLp {
        bounds,
        less,
        greater,
        window_hi,
    }
}

/// Best feasible `t` for a *fixed* delay assignment, or `None`.
fn best_t_for(d: &[i64], lp: &RandomPathLp) -> Option<i64> {
    let sum = |s: &[usize]| -> i64 { s.iter().map(|&i| d[i]).sum() };
    // t must satisfy: t < Σ_U d for all U; t > Σ_L d for all L; 0 ≤ t ≤ hi.
    let hi = lp
        .less
        .iter()
        .map(|s| sum(s))
        .chain(std::iter::once(lp.window_hi + 1))
        .min()
        .unwrap(); // t < hi (strict), except window which is ≤
    let lo = lp.greater.iter().map(|s| sum(s)).max().unwrap_or(-1);
    // Integer t strictly inside (lo, hi): sup over reals is hi (or window).
    if lo + 1 < hi {
        Some((hi - 1).min(lp.window_hi)) // a feasible integer point
    } else {
        None
    }
}

#[test]
fn path_lp_upper_bounds_every_sampled_point() {
    for case in 0..256u64 {
        let mut rng = Rng(case.wrapping_mul(0xA5A5A5A5).wrapping_add(0x11));
        let spec = gen_path_lp(&mut rng);
        let mut lp = PathLp::new(&spec.bounds);
        for s in &spec.less {
            lp.t_less_than(s);
        }
        for s in &spec.greater {
            lp.t_greater_than(s);
        }
        lp.set_t_window(0, spec.window_hi);
        let outcome = lp.solve();

        // Pseudo-random corner/interior samples of the delay box.
        let mut state = case.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut best_seen: Option<i64> = None;
        for _ in 0..64 {
            let d: Vec<i64> = spec
                .bounds
                .iter()
                .map(|&(lo, hi)| lo + (next() % (hi - lo + 1) as u64) as i64)
                .collect();
            if let Some(t) = best_t_for(&d, &spec) {
                best_seen = Some(best_seen.map_or(t, |b: i64| b.max(t)));
            }
        }
        match (outcome, best_seen) {
            (PathLpOutcome::Feasible { t_sup, .. }, Some(best)) => {
                // The exact supremum dominates every sampled feasible t.
                assert!(t_sup >= best, "t_sup {t_sup} < sampled {best}: {spec:?}");
            }
            (PathLpOutcome::Infeasible, Some(best)) => {
                panic!("LP infeasible but sample found t = {best}: {spec:?}");
            }
            _ => {} // feasible-but-unsampled or both infeasible: fine
        }
    }
}

#[test]
fn f64_and_rational_simplex_agree() {
    for case in 0..256u64 {
        let mut rng = Rng(case.wrapping_mul(0xC3C3C3C3).wrapping_add(0x22));
        let c: Vec<i64> = (0..3).map(|_| rng.in_range(-5, 6)).collect();
        let n_rows = 1 + rng.below(3);
        let rows: Vec<(Vec<i64>, i64)> = (0..n_rows)
            .map(|_| {
                (
                    (0..3).map(|_| rng.in_range(-4, 5)).collect(),
                    rng.in_range(0, 20),
                )
            })
            .collect();
        // maximize c·x over x ∈ [0,10]³ with rows a·x ≤ b.
        let mut pf: LpProblem<f64> = LpProblem::new();
        let mut pr: LpProblem<Rat> = LpProblem::new();
        let xf: Vec<_> = (0..3).map(|_| pf.add_var(Some(0.0), Some(10.0))).collect();
        let xr: Vec<_> = (0..3)
            .map(|_| pr.add_var(Some(Rat::ZERO), Some(Rat::from_int(10))))
            .collect();
        for i in 0..3 {
            pf.set_objective(xf[i], c[i] as f64);
            pr.set_objective(xr[i], Rat::from_int(c[i] as i128));
        }
        for (a, b) in &rows {
            pf.add_constraint(
                a.iter()
                    .enumerate()
                    .map(|(i, &ai)| (xf[i], ai as f64))
                    .collect(),
                Relation::Le,
                *b as f64,
            );
            pr.add_constraint(
                a.iter()
                    .enumerate()
                    .map(|(i, &ai)| (xr[i], Rat::from_int(ai as i128)))
                    .collect(),
                Relation::Le,
                Rat::from_int(*b as i128),
            );
        }
        match (solve(&pf), solve(&pr)) {
            (LpOutcome::Optimal { value: vf, .. }, LpOutcome::Optimal { value: vr, x }) => {
                assert!((vf - vr.to_f64()).abs() < 1e-6);
                assert!(pr.is_feasible(&x));
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
            (a, b) => panic!("disagreement: f64 {a:?} vs rational {b:?}"),
        }
    }
}

#[test]
fn optimal_solutions_are_feasible() {
    for case in 0..256u64 {
        let mut rng = Rng(case.wrapping_mul(0x3C3C3C3C).wrapping_add(0x33));
        let n_rows = 1 + rng.below(4);
        let rows: Vec<(Vec<i64>, i64, usize)> = (0..n_rows)
            .map(|_| {
                (
                    (0..4).map(|_| rng.in_range(-4, 5)).collect(),
                    rng.in_range(-10, 20),
                    rng.below(3) as usize,
                )
            })
            .collect();
        // Mixed relations over x ∈ [0, 8]⁴, maximize Σx.
        let mut p: LpProblem<Rat> = LpProblem::new();
        let xs: Vec<_> = (0..4)
            .map(|_| p.add_var(Some(Rat::ZERO), Some(Rat::from_int(8))))
            .collect();
        for &x in &xs {
            p.set_objective(x, Rat::ONE);
        }
        for (a, b, rel) in &rows {
            let relation = match rel {
                0 => Relation::Le,
                1 => Relation::Ge,
                _ => Relation::Eq,
            };
            p.add_constraint(
                a.iter()
                    .enumerate()
                    .map(|(i, &ai)| (xs[i], Rat::from_int(ai as i128)))
                    .collect(),
                relation,
                Rat::from_int(*b as i128),
            );
        }
        if let LpOutcome::Optimal { x, value } = solve(&p) {
            assert!(p.is_feasible(&x));
            assert_eq!(p.objective_value(&x), value);
        }
    }
}

/// A random operand: zero, a small or wide integer of either sign, or a
/// fraction with a small denominator.
fn gen_rat(rng: &mut Rng) -> Rat {
    let num = rng.in_range(-60, 61) as i128;
    match rng.below(4) {
        0 => Rat::ZERO,
        1 => Rat::from_int(num),
        2 => Rat::from_int(num * 1_000_000_007),
        _ => Rat::new(num, rng.in_range(1, 40) as i128),
    }
}

#[test]
fn rat_arithmetic_agrees_with_the_general_gcd_path() {
    // The reference reduces every cross-multiplied result with
    // `Rat::new`, so it never takes a zero or integer shortcut.
    let mut rng = Rng(0x05EE_D0A7);
    for _ in 0..4096 {
        let (a, b) = (gen_rat(&mut rng), gen_rat(&mut rng));
        let (an, ad, bn, bd) = (a.numer(), a.denom(), b.numer(), b.denom());
        assert_eq!(a + b, Rat::new(an * bd + bn * ad, ad * bd), "{a} + {b}");
        assert_eq!(a - b, Rat::new(an * bd - bn * ad, ad * bd), "{a} - {b}");
        assert_eq!(a * b, Rat::new(an * bn, ad * bd), "{a} * {b}");
        if !b.is_zero() {
            assert_eq!(a / b, Rat::new(an * bd, ad * bn), "{a} / {b}");
            assert_eq!(b.recip(), Rat::new(bd, bn), "1 / {b}");
        }
        assert_eq!(a.cmp(&b), (an * bd).cmp(&(bn * ad)), "{a} vs {b}");
        assert_eq!(a == b, an * bd == bn * ad, "{a} == {b}");
        for r in [a + b, a - b, a * b] {
            assert!(r.denom() > 0, "{r} has a non-positive denominator");
        }
    }
}

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: i64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A path LP shaped like the delay engine's: up to 24 gates with
/// fixed-point bounds (fixed or a fraction of the max), path constraints
/// over distinct gates in both senses, and a `[lo, b]` window whose top
/// is the max-delay sum of some path.
fn gen_engine_lp(rng: &mut Rng) -> PathLp {
    let n = 1 + rng.below(24) as usize;
    let bounds: Vec<(i64, i64)> = (0..n)
        .map(|_| {
            let max = 5_000 * (1 + rng.below(20) as i64);
            (max * rng.below(5) as i64 / 4, max)
        })
        .collect();
    let path = |rng: &mut Rng| -> Vec<usize> {
        let len = 1 + rng.below(n.min(8) as u64) as usize;
        let mut gates: Vec<usize> = (0..len).map(|_| rng.below(n as u64) as usize).collect();
        gates.sort_unstable();
        gates.dedup();
        gates
    };
    let mut lp = PathLp::new(&bounds);
    for _ in 0..rng.below(4) {
        let gates = path(rng);
        if rng.below(2) == 0 {
            lp.t_less_than(&gates);
        } else {
            lp.t_greater_than(&gates);
        }
    }
    let b: i64 = path(rng).iter().map(|&g| bounds[g].1).sum();
    lp.set_t_window(b - rng.in_range(1, b + 1), b);
    lp
}

#[test]
fn engine_shaped_path_lps_keep_their_pinned_answers() {
    // A pivot rule, tie-break or arithmetic change that moves one
    // supremum, vertex or interior witness of these LPs changes the hash.
    let mut rng = Rng(0x00C0_FFEE);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut feasible = 0;
    for _ in 0..300 {
        let lp = gen_engine_lp(&mut rng);
        match lp.solve() {
            PathLpOutcome::Infeasible => h.word(0),
            PathLpOutcome::Feasible { t_sup, delays } => {
                feasible += 1;
                h.word(1);
                h.word(t_sup);
                delays.iter().for_each(|&d| h.word(d));
                match lp.solve_interior(t_sup - 1) {
                    None => h.word(0),
                    Some((t, delays)) => {
                        h.word(1);
                        h.word(t);
                        delays.iter().for_each(|&d| h.word(d));
                    }
                }
            }
        }
    }
    assert!((100..300).contains(&feasible), "{feasible} of 300 feasible");
    assert_eq!(h.0, 0x365f_3a78_71c2_1e26, "fingerprint {:#x}", h.0);
}
