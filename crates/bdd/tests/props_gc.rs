//! Seeded property tests: mark-and-sweep GC never changes semantics.
//!
//! Random expression DAGs (xorshift-seeded, no external deps) are built
//! over up to 12 variables; a random subset of the constructed functions
//! is kept live and the rest abandoned. Each sweep is checked against
//! pre-sweep snapshots: exhaustive 2^n evaluation, `support`, and a
//! structural descriptor of every reachable node (handles stay valid
//! across a sweep, so the comparison is direct). A pressure case installs
//! a low trigger and builds abandoned intermediates over a live root
//! between `maybe_gc` safe points: the root must survive every sweep
//! unchanged, and a final sweep must leave only its reachable nodes.
//!
//! Seeds come from a fixed table; set `RANDOM_SEED=<u64>` (decimal or
//! `0x`-hex) to add one more. A failing case is shrunk (fewer gates,
//! then fewer variables) and reported with the seed and parameters
//! needed to reproduce it.

use tbf_bdd::{Bdd, BddManager, GcPolicy, Var};

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

/// Builds a random expression DAG over `n_vars` variables with `n_gates`
/// random binary/unary connectives, returning every subfunction built
/// (literals first) and the declared variables.
fn random_dag(
    m: &mut BddManager,
    rng: &mut XorShift,
    n_vars: usize,
    n_gates: usize,
) -> (Vec<Bdd>, Vec<Var>) {
    let vars: Vec<Var> = (0..n_vars).map(|_| m.new_var()).collect();
    let mut pool: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    for _ in 0..n_gates {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let g = match rng.below(6) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            3 => m.nand(a, b),
            4 => m.not(a),
            _ => {
                let c = pool[rng.below(pool.len())];
                m.ite(a, b, c)
            }
        };
        pool.push(g);
    }
    (pool, vars)
}

/// All 2^n evaluations, assignment bit `i` = variable identity `i`.
fn truth_table(m: &BddManager, f: Bdd, n_vars: usize) -> Vec<bool> {
    (0..1usize << n_vars)
        .map(|bits| {
            let a: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
            m.eval(f, &a)
        })
        .collect()
}

/// Structural descriptor of the graph reachable from `b`: a recursive
/// `(var lo hi)` dump in variable identities. Complement tags and
/// terminals are rendered explicitly, so two handles describe the same
/// string iff the reachable structure (not just the function) matches.
fn describe(m: &BddManager, b: Bdd, out: &mut String) {
    if b.is_const() {
        out.push(if b.is_true() { '1' } else { '0' });
        return;
    }
    let v = m
        .root_var(b)
        .expect("non-constant node has a root variable");
    let (lo, hi) = m.root_cofactors(b);
    out.push('(');
    out.push_str(&v.index().to_string());
    out.push(' ');
    describe(m, lo, out);
    out.push(' ');
    describe(m, hi, out);
    out.push(')');
}

fn descriptor(m: &BddManager, b: Bdd) -> String {
    let mut s = String::new();
    describe(m, b, &mut s);
    s
}

/// Per-root snapshot taken before a sweep.
struct Snapshot {
    tt: Vec<bool>,
    support: Vec<Var>,
    shape: String,
    size: usize,
}

fn snapshot(m: &BddManager, roots: &[Bdd], n_vars: usize) -> Vec<Snapshot> {
    roots
        .iter()
        .map(|&f| Snapshot {
            tt: truth_table(m, f, n_vars),
            support: m.support(f),
            shape: descriptor(m, f),
            size: m.size(f),
        })
        .collect()
}

/// Compares live roots against their snapshots: function, support and
/// reachable structure must all be unchanged.
fn check_roots(
    m: &BddManager,
    roots: &[Bdd],
    snaps: &[Snapshot],
    n_vars: usize,
    stage: &str,
) -> Result<(), String> {
    for (i, (&f, snap)) in roots.iter().zip(snaps).enumerate() {
        if truth_table(m, f, n_vars) != snap.tt {
            return Err(format!("{stage}: root #{i} truth table changed"));
        }
        if m.support(f) != snap.support {
            return Err(format!("{stage}: root #{i} support changed"));
        }
        if descriptor(m, f) != snap.shape {
            return Err(format!("{stage}: root #{i} reachable structure changed"));
        }
        if m.size(f) != snap.size {
            return Err(format!("{stage}: root #{i} node count changed"));
        }
    }
    Ok(())
}

/// One sweep-focused property case: abandon a random subset of the
/// pool, sweep, and require the live remainder untouched, the arena
/// right-sized, and the manager fully usable afterwards.
fn run_sweep_case(seed: u64, n_vars: usize, n_gates: usize) -> Result<(), String> {
    let mut rng = XorShift::new(seed);
    let mut m = BddManager::new();
    let (pool, _) = random_dag(&mut m, &mut rng, n_vars, n_gates);

    // Keep a random ~half of the pool live; the rest becomes garbage.
    let live: Vec<Bdd> = pool.iter().copied().filter(|_| rng.below(2) == 0).collect();
    let snaps = snapshot(&m, &live, n_vars);
    let live_before = m.live_size(&live);

    let reclaimed = m.collect_garbage(&live);
    if m.node_count() != live_before + 1 {
        return Err(format!(
            "sweep kept {} occupied nodes, want {} live + terminal",
            m.node_count(),
            live_before
        ));
    }
    if m.live_size(&live) != live_before {
        return Err("sweep changed the live reachable set".into());
    }
    check_roots(&m, &live, &snaps, n_vars, "after sweep")?;

    // A second sweep with the same roots has nothing left to find.
    if m.collect_garbage(&live) != 0 {
        return Err("second sweep over unchanged roots reclaimed nodes".into());
    }

    // The manager stays fully usable: new gates over survivors must
    // agree with pointwise combination of the snapshot tables.
    if live.len() >= 2 {
        for round in 0..4 {
            let i = rng.below(live.len());
            let j = rng.below(live.len());
            let g = m.and(live[i], live[j]);
            let want: Vec<bool> = snaps[i]
                .tt
                .iter()
                .zip(&snaps[j].tt)
                .map(|(&a, &b)| a && b)
                .collect();
            if truth_table(&m, g, n_vars) != want {
                return Err(format!("post-sweep AND #{round} is wrong"));
            }
            let g = m.xor(live[i], live[j]);
            let want: Vec<bool> = snaps[i]
                .tt
                .iter()
                .zip(&snaps[j].tt)
                .map(|(&a, &b)| a != b)
                .collect();
            if truth_table(&m, g, n_vars) != want {
                return Err(format!("post-sweep XOR #{round} is wrong"));
            }
        }
        check_roots(&m, &live, &snaps, n_vars, "after post-sweep builds")?;
    }

    // Never-frees-reachable, degenerate direction: rooting *everything*
    // must preserve every pool function (only memoized intermediates and
    // constructed-then-superseded nodes may go).
    let mut m2 = BddManager::new();
    let mut rng2 = XorShift::new(seed);
    let (pool2, _) = random_dag(&mut m2, &mut rng2, n_vars, n_gates);
    let snaps2 = snapshot(&m2, &pool2, n_vars);
    m2.collect_garbage(&pool2);
    check_roots(&m2, &pool2, &snaps2, n_vars, "all-roots sweep")?;
    // Stats are monotone bookkeeping; both sweeps above must count.
    if m.gc_stats().sweeps != 2 || m.gc_stats().reclaimed != reclaimed as u64 {
        return Err("gc_stats disagree with the sweeps performed".into());
    }
    Ok(())
}

/// One pressure case: with a low trigger, `maybe_gc` safe points sweep
/// between constructions whose intermediates are abandoned, and none of
/// it may disturb the live root. Returns the number of sweeps that fired.
fn run_pressure_case(seed: u64, n_vars: usize, n_gates: usize) -> Result<u64, String> {
    let mut rng = XorShift::new(seed);
    let mut m = BddManager::new();
    m.set_gc_policy(GcPolicy::OnPressure { trigger_nodes: 24 });
    let (pool, vars) = random_dag(&mut m, &mut rng, n_vars, n_gates);
    let f = *pool.last().expect("pool starts non-empty");
    let snaps = snapshot(&m, &[f], n_vars);

    // Every other pool function is garbage from here on.
    m.maybe_gc(&[f]);
    check_roots(&m, &[f], &snaps, n_vars, "first safe point")?;
    for step in 0..2 * n_vars {
        let v = vars[rng.below(n_vars)];
        let lit = m.var(v);
        let g = m.xor(f, lit);
        let h = m.and(g, f);
        let _ = m.exists(h, v);
        m.maybe_gc(&[f]);
        check_roots(&m, &[f], &snaps, n_vars, &format!("step #{step}"))?;
    }
    let sweeps = m.gc_stats().sweeps;

    m.collect_garbage(&[f]);
    if m.node_count() != m.live_size(&[f]) + 1 {
        return Err("final sweep left unreachable nodes".into());
    }
    check_roots(&m, &[f], &snaps, n_vars, "final sweep")?;
    Ok(sweeps)
}

/// Runs both cases; returns the pressure sweeps that fired.
fn run_case(seed: u64, n_vars: usize, n_gates: usize) -> Result<u64, String> {
    run_sweep_case(seed, n_vars, n_gates)?;
    run_pressure_case(seed, n_vars, n_gates)
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
            Ok(_) => break,
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
            Ok(_) => break,
        }
    }
    format!(
        "gc property failed: seed={seed:#x} n_vars={best_vars} n_gates={best_gates}: \
         {best_err} (reproduce with RANDOM_SEED={seed})"
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
fn gc_preserves_semantics_on_random_dags() {
    let mut pressure_sweeps = 0;
    for seed in seeds() {
        let mut rng = XorShift::new(seed ^ 0xa5a5a5a5a5a5a5a5);
        for case in 0..6u64 {
            // 3..=12 variables (exhaustive evaluation stays ≤ 4096 rows).
            let n_vars = 3 + rng.below(10);
            let n_gates = 4 + rng.below(28);
            let case_seed = seed.wrapping_add(case.wrapping_mul(0x9e3779b97f4a7c15));
            match run_case(case_seed, n_vars, n_gates) {
                Ok(sweeps) => pressure_sweeps += sweeps,
                Err(e) => panic!("{}", shrink_and_report(case_seed, n_vars, n_gates, e)),
            }
        }
    }
    assert!(pressure_sweeps > 0, "no pressure sweep ever fired");
}

#[test]
fn shrinking_finds_small_reproductions() {
    // The shrinker itself must be sound: a case that "fails" for every
    // parameter choice shrinks to the floor without losing the seed info.
    let msg = shrink_and_report(42, 8, 16, "synthetic".into());
    assert!(msg.contains("seed=0x2a"), "{msg}");
    assert!(msg.contains("RANDOM_SEED=42"), "{msg}");
}
