//! Session soak: hundreds of mixed good/bad/deadline-limited requests
//! through one warm session, with a seeded fault schedule armed.
//!
//! Seeds come from a fixed table; set `RANDOM_SEED=<u64>` (decimal or
//! `0x`-hex) to add a seed — the same harness contract as the engine's
//! property suites, so CI's seeded jobs exercise the serve loop too.
//!
//! Pass criteria (the CI soak job pipes a comparable batch through the
//! real binary): zero panics escape the request boundary (the test
//! completing *is* the assertion — `handle_line` never unwinds), every
//! response is schema-valid, exactly one response per frame, and the
//! warm cache reports hits after the first repeated circuit.

use tbf_core::fault::{with_plan, FaultPlan, Site};
use tbf_obs::json::Value;
use tbf_serve::protocol::validate_response;
use tbf_serve::runner::run_lines;
use tbf_serve::session::{ServeConfig, Session};

/// Fixed seed table used by default and in CI's deterministic jobs.
const SEEDS: [u64; 2] = [0x5EED, 0x9e3779b97f4a7c15];

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

/// splitmix64 — tiny, deterministic, good enough to shuffle a soak.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const C17: &str = "INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)\nOUTPUT(g22)\nOUTPUT(g23)\ng10 = NAND(g1, g3)\ng11 = NAND(g3, g6)\ng16 = NAND(g2, g11)\ng19 = NAND(g11, g7)\ng22 = NAND(g10, g16)\ng23 = NAND(g16, g19)\n";

const CIRCUITS: [&str; 4] = [
    "INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n",
    "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n",
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(f)\nx = XOR(a, b)\nf = XOR(x, c)\n",
    C17,
];

/// One deterministic pseudo-random frame. The mix: ~60% good requests
/// over a small circuit pool (so repeats hammer the warm cache), ~10%
/// deadline-limited, ~30% hostile in six different ways.
fn frame(rng: &mut Rng, i: usize) -> String {
    let circuit = CIRCUITS[rng.below(CIRCUITS.len() as u64) as usize].replace('\n', "\\n");
    match rng.below(20) {
        0 => "total garbage".to_owned(),
        1 => format!(r#"{{"id":"r{i}","circuit":"{circuit}"}}"#).replace('}', "»"),
        2 => format!(r#"{{"id":"r{i}","circuit":"{}"}}"#, "x".repeat(5000)),
        3 => format!(r#"{{"id":"r{i}","schema":77,"circuit":"{circuit}"}}"#),
        4 => format!(r#"{{"id":"r{i}","circuit":"{circuit}"}}{}"#, "\r"),
        5 => format!(r#"{{"id":"r{i}","circuit":"broken netlist"}}"#),
        6 | 7 => format!(r#"{{"id":"r{i}","circuit":"{circuit}","deadline_ms":0}}"#),
        8 => format!(r#"{{"id":"r{i}","circuit":"{circuit}","delays":"unit"}}"#),
        9 => format!(r#"{{"id":"r{i}","circuit":"{circuit}","options":{{"cache":false}}}}"#),
        10 => format!(r#"{{"id":"r{i}","circuit":"{circuit}","options":{{"reorder":"manual"}}}}"#),
        _ => format!(r#"{{"id":"r{i}","circuit":"{circuit}"}}"#),
    }
}

fn soak_config() -> ServeConfig {
    ServeConfig {
        // Tight enough that case 2 above (a 5000-byte frame) trips the
        // oversize rejection; the good requests stay well under it.
        max_frame_bytes: 4096,
        ..ServeConfig::default()
    }
}

/// Runs one seeded soak batch and returns (responses, session).
fn run_soak(seed: u64, frames: usize) -> (Vec<String>, Session) {
    let mut rng = Rng(seed);
    let batch: Vec<String> = (0..frames).map(|i| frame(&mut rng, i)).collect();
    let mut session = Session::new(soak_config());
    let mut out = Vec::new();
    // A hostile-but-recoverable fault schedule: repeated cone panics,
    // frame-decode trips, cache poisons, and one mid-request cancel,
    // spread across the batch.
    let mut plan = FaultPlan::new();
    for k in 0..10 {
        plan = plan
            .once_at(Site::ConeStart, k * 7)
            .once_at(Site::FrameParse, k * 11)
            .once_at(Site::CachePoison, k * 13);
    }
    plan = plan.once_at(Site::RequestCancel, 3);
    with_plan(plan, || {
        run_lines(&mut session, &batch, &mut out).expect("writes to a Vec cannot fail");
    });
    let text = String::from_utf8(out).expect("responses are UTF-8");
    (text.lines().map(str::to_owned).collect(), session)
}

#[test]
fn soak_500_mixed_requests_per_seed() {
    for seed in seeds() {
        let (responses, session) = run_soak(seed, 520);
        assert_eq!(
            responses.len(),
            520,
            "seed {seed:#x}: exactly one response per frame"
        );
        let mut ok = 0u64;
        let mut errors = 0u64;
        for line in &responses {
            let doc = validate_response(line)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: invalid response {line:?}: {e}"));
            match doc.get("status").and_then(Value::as_str) {
                Some("ok") => ok += 1,
                Some("error") => errors += 1,
                other => panic!("seed {seed:#x}: unexpected status {other:?}"),
            }
        }
        let m = session.metrics();
        assert_eq!(m.frames, 520, "seed {seed:#x}");
        assert_eq!(m.ok, ok, "seed {seed:#x}: metrics agree with responses");
        assert_eq!(m.errors, errors, "seed {seed:#x}");
        assert!(ok > 0 && errors > 0, "seed {seed:#x}: the mix mixed");
        let c = session.cache_stats();
        assert!(
            c.hits > 0,
            "seed {seed:#x}: repeated circuits must produce warm-cache hits \
             (hits={}, misses={})",
            c.hits,
            c.misses
        );
        // The final artifact the runner would emit is schema-valid too.
        let artifact = session.final_artifact().render();
        tbf_obs::RunArtifact::validate(&artifact)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: invalid artifact: {e}"));
    }
}

#[test]
fn soak_is_deterministic_per_seed() {
    let (a, _) = run_soak(SEEDS[0], 260);
    let (b, _) = run_soak(SEEDS[0], 260);
    assert_eq!(a, b, "same seed, same batch, same bytes");
}
