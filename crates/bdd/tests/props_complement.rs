//! Seeded property tests: the complement-edged manager computes the
//! functions it is asked for.
//!
//! Random expression DAGs (xorshift-seeded, no external deps) are built
//! in a manager and, alongside, as truth tables computed bitwise from
//! each connective — a referee that shares no code with the BDD
//! package. Every subfunction is compared by exhaustive 2^n evaluation,
//! `sat_count` and `support`; its cubes must partition the onset with
//! literals in ascending variable index, and `min_sat_cube` must be the
//! lexicographically least true row. The handle algebra itself is
//! checked too: negation is a constant-time tag flip that allocates
//! nothing, double negation is pointer-identical, and De
//! Morgan-equivalent constructions meet at the same handle (the
//! canonical then-edge rule at work).
//!
//! Seeds come from the same fixed table as `props_gc`; set
//! `RANDOM_SEED=<u64>` (decimal or `0x`-hex) to add one more. Failures
//! report the seed and parameters needed to reproduce.

use tbf_bdd::{Bdd, BddManager};

/// Fixed seed table used by default and in CI's deterministic jobs.
const SEEDS: [u64; 3] = [0x9e3779b97f4a7c15, 0xdeadbeefcafef00d, 0x0123456789abcdef];

/// xorshift64* — tiny, deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A truth table: entry `bits` is the value under the assignment whose
/// bit `i` is variable identity `i`.
type Table = Vec<bool>;

fn combine(a: &Table, b: &Table, op: impl Fn(bool, bool) -> bool) -> Table {
    a.iter().zip(b).map(|(&x, &y)| op(x, y)).collect()
}

/// Builds a random DAG in `m`, returning every subfunction together
/// with its truth table, computed from the connective alone.
fn random_dag(m: &mut BddManager, seed: u64, n_vars: usize, n_gates: usize) -> Vec<(Bdd, Table)> {
    let mut rng = XorShift::new(seed);
    let rows = 1usize << n_vars;
    let mut pool: Vec<(Bdd, Table)> = (0..n_vars)
        .map(|i| {
            let v = m.new_var();
            (m.var(v), (0..rows).map(|bits| bits >> i & 1 == 1).collect())
        })
        .collect();
    for _ in 0..n_gates {
        let (a, ta) = pool[rng.below(pool.len())].clone();
        let (b, tb) = pool[rng.below(pool.len())].clone();
        let step = match rng.below(6) {
            0 => (m.and(a, b), combine(&ta, &tb, |x, y| x && y)),
            1 => (m.or(a, b), combine(&ta, &tb, |x, y| x || y)),
            2 => (m.xor(a, b), combine(&ta, &tb, |x, y| x ^ y)),
            3 => (m.nand(a, b), combine(&ta, &tb, |x, y| !(x && y))),
            4 => (m.not(a), ta.iter().map(|&x| !x).collect()),
            _ => {
                let (c, tc) = pool[rng.below(pool.len())].clone();
                let table = (0..rows)
                    .map(|r| if ta[r] { tb[r] } else { tc[r] })
                    .collect();
                (m.ite(a, b, c), table)
            }
        };
        pool.push(step);
    }
    pool
}

/// All 2^n evaluations of `f`, in [`Table`] order.
fn truth_table(m: &BddManager, f: Bdd, n_vars: usize) -> Table {
    (0..1usize << n_vars)
        .map(|bits| {
            let a: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
            m.eval(f, &a)
        })
        .collect()
}

/// The variables a truth table depends on, ascending.
fn table_support(t: &Table, n_vars: usize) -> Vec<usize> {
    (0..n_vars)
        .filter(|&i| (0..t.len()).any(|r| t[r] != t[r ^ (1 << i)]))
        .collect()
}

/// Checks the cubes of `f` against its truth table: they partition the
/// onset (every true row covered once, no false row covered), and each
/// lists its literals in strictly ascending [`Var::index`] order.
///
/// [`Var::index`]: tbf_bdd::Var::index
fn check_cubes(m: &BddManager, f: Bdd, table: &Table) -> Result<(), String> {
    let mut covered = vec![0usize; table.len()];
    for c in m.cubes(f) {
        if !c.literals().windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("cube literals do not ascend by variable index".into());
        }
        // Enumerate the rows the cube covers: its literals fix some bits,
        // every subset of the free bits completes a row.
        let (mut fixed, mut value) = (0usize, 0usize);
        for &(v, phase) in c.literals() {
            fixed |= 1 << v.index();
            value |= usize::from(phase) << v.index();
        }
        let free = (table.len() - 1) & !fixed;
        let mut sub = free;
        loop {
            covered[value | sub] += 1;
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & free;
        }
    }
    match (0..table.len()).find(|&r| covered[r] != usize::from(table[r])) {
        Some(r) => Err(format!(
            "cubes cover row {r:#b} {} times, want {}",
            covered[r],
            usize::from(table[r])
        )),
        None => Ok(()),
    }
}

/// The lexicographically least true row (variable 0 most significant),
/// found by brute force over the truth table.
fn lex_min_row(table: &Table, n_vars: usize) -> Option<Vec<bool>> {
    (0..table.len())
        .filter(|&r| table[r])
        .map(|r| (0..n_vars).map(|i| r >> i & 1 == 1).collect())
        .min()
}

/// One full property case. Returns a failure description on mismatch.
fn run_case(seed: u64, n_vars: usize, n_gates: usize) -> Result<(), String> {
    let mut m = BddManager::new();
    let pool = random_dag(&mut m, seed, n_vars, n_gates);
    let roots: Vec<Bdd> = pool.iter().map(|&(f, _)| f).collect();

    for (i, (f, table)) in pool.iter().enumerate() {
        let f = *f;
        let tt = truth_table(&m, f, n_vars);
        if &tt != table {
            return Err(format!(
                "subfunction #{i}: BDD and connective truth tables differ"
            ));
        }
        let ones = table.iter().filter(|&&x| x).count() as f64;
        if m.sat_count(f, n_vars) != ones {
            return Err(format!(
                "subfunction #{i}: sat_count {} vs {ones} true rows",
                m.sat_count(f, n_vars)
            ));
        }
        let support: Vec<usize> = m.support(f).iter().map(|v| v.index()).collect();
        if support != table_support(table, n_vars) {
            return Err(format!("subfunction #{i}: support differs"));
        }
        check_cubes(&m, f, table).map_err(|e| format!("subfunction #{i}: {e}"))?;
        let min_sat = m.min_sat_cube(f).map(|c| m.cube_to_assignment(&c, n_vars));
        let brute = lex_min_row(table, n_vars);
        if min_sat != brute {
            return Err(format!(
                "subfunction #{i}: min_sat_cube {min_sat:?}, brute force {brute:?}"
            ));
        }

        // Handle algebra: ¬ is a tag flip on the same arena node, so it
        // allocates nothing and ¬¬f is pointer-identical to f.
        let before = m.node_count();
        let nf = m.not(f);
        if m.node_count() != before {
            return Err(format!("subfunction #{i}: negation allocated nodes"));
        }
        if nf == f || nf.index() != f.index() {
            return Err(format!(
                "subfunction #{i}: ¬f must be the complement tag on f's node ({nf:?} vs {f:?})"
            ));
        }
        if m.not(nf) != f {
            return Err(format!("subfunction #{i}: ¬¬f is not pointer-equal to f"));
        }
        // Negation must also be semantically the complement.
        if truth_table(&m, nf, n_vars)
            .iter()
            .zip(table)
            .any(|(a, b)| a == b)
        {
            return Err(format!("subfunction #{i}: ¬f agrees with f somewhere"));
        }
    }

    // Canonicity across construction routes: De Morgan pairs meet at
    // the same handle (this is what the canonical then-edge rule buys).
    let mut rng = XorShift::new(seed ^ 0x5ca1ab1e);
    for round in 0..8 {
        let a = roots[rng.below(roots.len())];
        let b = roots[rng.below(roots.len())];
        let via_nand = m.nand(a, b);
        let (na, nb) = (m.not(a), m.not(b));
        let via_or = m.or(na, nb);
        if via_nand != via_or {
            return Err(format!(
                "round {round}: ¬(a∧b) and ¬a∨¬b built distinct handles"
            ));
        }
        let and_back = m.and(a, b);
        if m.not(via_nand) != and_back {
            return Err(format!("round {round}: ¬¬(a∧b) differs from a∧b"));
        }
    }
    Ok(())
}

/// Shrinks a failing case: halve the gate count while it still fails,
/// then halve the variable count, and report the smallest failure.
fn shrink_and_report(seed: u64, n_vars: usize, n_gates: usize, first_error: String) -> String {
    let (mut best_vars, mut best_gates, mut best_err) = (n_vars, n_gates, first_error);
    let mut gates = n_gates / 2;
    while gates >= 1 {
        match run_case(seed, best_vars, gates) {
            Err(e) => {
                best_gates = gates;
                best_err = e;
                gates /= 2;
            }
            Ok(()) => break,
        }
    }
    let mut vars = best_vars / 2;
    while vars >= 2 {
        match run_case(seed, vars, best_gates) {
            Err(e) => {
                best_vars = vars;
                best_err = e;
                vars /= 2;
            }
            Ok(()) => break,
        }
    }
    format!(
        "complement-edge property failed: seed={seed:#x} n_vars={best_vars} \
         n_gates={best_gates}: {best_err} (reproduce with RANDOM_SEED={seed})"
    )
}

/// The seed table, plus `RANDOM_SEED` from the environment if present.
fn seeds() -> Vec<u64> {
    let mut s = SEEDS.to_vec();
    if let Ok(raw) = std::env::var("RANDOM_SEED") {
        let parsed = raw
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16))
            .unwrap_or_else(|| raw.parse());
        match parsed {
            Ok(x) => s.push(x),
            Err(e) => panic!("RANDOM_SEED={raw:?} is not a u64: {e}"),
        }
    }
    s
}

#[test]
fn complement_edges_preserve_semantics_on_random_dags() {
    for seed in seeds() {
        let mut rng = XorShift::new(seed ^ 0xa5a5a5a5a5a5a5a5);
        for case in 0..6u64 {
            // 3..=12 variables (exhaustive evaluation stays ≤ 4096 rows).
            let n_vars = 3 + rng.below(10);
            let n_gates = 4 + rng.below(28);
            let case_seed = seed.wrapping_add(case.wrapping_mul(0x9e3779b97f4a7c15));
            if let Err(e) = run_case(case_seed, n_vars, n_gates) {
                panic!("{}", shrink_and_report(case_seed, n_vars, n_gates, e));
            }
        }
    }
}

#[test]
fn constants_are_a_tagged_pair() {
    let mut m = BddManager::new();
    let t = m.constant(true);
    let f = m.constant(false);
    assert_eq!(t, Bdd::TRUE);
    assert_eq!(f, Bdd::FALSE);
    assert_eq!(m.not(t), f);
    assert_eq!(m.not(f), t);
}
