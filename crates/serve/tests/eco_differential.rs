//! The ECO differential harness: seeded random edit scripts, replayed
//! incrementally and from cold, must agree byte-for-byte.
//!
//! Each case generates a random circuit, establishes it as an ECO
//! session base, then applies a random chain of ECO edits — gate-kind
//! swaps (which re-annotate delays under the MCNC-like model), fanin
//! rewires, gate additions, output additions and removals. After every
//! edit the warm session answers a `"kind":"eco"` request
//! incrementally; a **fresh cold session** answers the same netlist
//! with a plain analyze request. The deterministic `result` members
//! must be byte-identical at every prefix of the script, and the whole
//! response-line transcript must be byte-identical across worker-thread
//! counts.
//!
//! Seeds come from a fixed table; set `RANDOM_SEED=<u64>` (decimal or
//! `0x`-hex) to add one more (CI's soak job passes its run id).

use tbf_obs::json::Value;
use tbf_serve::protocol::{deterministic_view, validate_response};
use tbf_serve::session::{ServeConfig, Session};

/// Fixed seed table used by default and in CI's deterministic jobs.
const SEEDS: [u64; 3] = [0x9e3779b97f4a7c15, 0xdeadbeefcafef00d, 0x0123456789abcdef];

/// Edits per script: long enough to chain invalidations, short enough
/// that the full cell matrix stays quick in debug builds.
const SCRIPT_LEN: usize = 6;

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

    fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn seeds() -> Vec<u64> {
    let mut s: Vec<u64> = SEEDS.to_vec();
    if let Ok(v) = std::env::var("RANDOM_SEED") {
        let parsed = v
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16))
            .unwrap_or_else(|| v.parse());
        if let Ok(seed) = parsed {
            s.push(seed);
        }
    }
    s
}

const BINARY_KINDS: [&str; 5] = ["AND", "OR", "NAND", "NOR", "XOR"];

/// The fuzzer's editable circuit model, serialized to `.bench` text for
/// the wire.
#[derive(Clone)]
struct Gate {
    name: String,
    kind: &'static str,
    fanins: Vec<String>,
}

#[derive(Clone)]
struct Circuit {
    inputs: Vec<String>,
    gates: Vec<Gate>,
    outputs: Vec<String>,
    next_id: usize,
}

impl Circuit {
    fn random(rng: &mut XorShift) -> Circuit {
        let n_inputs = 3 + rng.below(3);
        let n_gates = 4 + rng.below(5);
        let inputs: Vec<String> = (0..n_inputs).map(|i| format!("i{i}")).collect();
        let mut c = Circuit {
            inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
            next_id: 0,
        };
        for _ in 0..n_gates {
            c.append_gate(rng);
        }
        // Expose a couple of distinct late gates as outputs (outputs are
        // what ECO cones hang off).
        let n_outputs = 2 + rng.below(2);
        for _ in 0..n_outputs {
            let candidates: Vec<String> = c
                .gates
                .iter()
                .map(|g| g.name.clone())
                .filter(|n| !c.outputs.contains(n))
                .collect();
            if let Some(name) = pick(rng, &candidates) {
                c.outputs.push(name);
            }
        }
        c
    }

    /// Signals a gate at position `idx` may legally read (all inputs,
    /// plus gates defined earlier — acyclic by construction).
    fn signals_before(&self, idx: usize) -> Vec<String> {
        self.inputs
            .iter()
            .cloned()
            .chain(self.gates[..idx].iter().map(|g| g.name.clone()))
            .collect()
    }

    fn append_gate(&mut self, rng: &mut XorShift) -> String {
        let name = format!("g{}", self.next_id);
        self.next_id += 1;
        let pool = self.signals_before(self.gates.len());
        let kind = BINARY_KINDS[rng.below(BINARY_KINDS.len())];
        let a = pool[rng.below(pool.len())].clone();
        let b = pool[rng.below(pool.len())].clone();
        let (kind, fanins) = if rng.below(5) == 0 {
            ("NOT", vec![a])
        } else {
            (kind, vec![a, b])
        };
        self.gates.push(Gate {
            name: name.clone(),
            kind,
            fanins,
        });
        name
    }

    fn bench(&self) -> String {
        let mut text = String::new();
        for i in &self.inputs {
            text.push_str(&format!("INPUT({i})\n"));
        }
        for o in &self.outputs {
            text.push_str(&format!("OUTPUT({o})\n"));
        }
        for g in &self.gates {
            text.push_str(&format!(
                "{} = {}({})\n",
                g.name,
                g.kind,
                g.fanins.join(", ")
            ));
        }
        text
    }

    /// How many outputs' fanin cones contain `signal` — the set of
    /// cones a 1-gate edit at `signal` must invalidate.
    fn outputs_reaching(&self, signal: &str) -> usize {
        let reaches = |output: &str| -> bool {
            let mut stack = vec![output.to_owned()];
            let mut seen = Vec::new();
            while let Some(s) = stack.pop() {
                if s == signal {
                    return true;
                }
                if seen.contains(&s) {
                    continue;
                }
                if let Some(g) = self.gates.iter().find(|g| g.name == s) {
                    stack.extend(g.fanins.iter().cloned());
                }
                seen.push(s);
            }
            false
        };
        self.outputs.iter().filter(|o| reaches(o)).count()
    }

    /// Applies one random edit, returning a label for failure reports.
    /// Every edit changes the serialized netlist.
    fn edit(&mut self, rng: &mut XorShift) -> String {
        loop {
            match rng.below(5) {
                // Gate-kind swap (also a delay re-annotation: the MCNC
                // delay model is kind-dependent).
                0 => {
                    let binaries: Vec<usize> = (0..self.gates.len())
                        .filter(|&i| self.gates[i].fanins.len() == 2)
                        .collect();
                    let Some(&i) = pick_ref(rng, &binaries) else {
                        continue;
                    };
                    let old = self.gates[i].kind;
                    let replacement = loop {
                        let k = BINARY_KINDS[rng.below(BINARY_KINDS.len())];
                        if k != old {
                            break k;
                        }
                    };
                    self.gates[i].kind = replacement;
                    return format!("swap {} {old}->{replacement}", self.gates[i].name);
                }
                // Fanin rewire to a different (still earlier) signal.
                1 => {
                    let i = rng.below(self.gates.len());
                    let pool = self.signals_before(i);
                    let slot = rng.below(self.gates[i].fanins.len());
                    let old = self.gates[i].fanins[slot].clone();
                    let others: Vec<String> = pool.into_iter().filter(|s| *s != old).collect();
                    let Some(new) = pick(rng, &others) else {
                        continue;
                    };
                    self.gates[i].fanins[slot] = new.clone();
                    return format!("rewire {}[{slot}] {old}->{new}", self.gates[i].name);
                }
                // Add a gate; sometimes expose it as a fresh output
                // (otherwise it is dead and no cone may recompute).
                2 => {
                    let name = self.append_gate(rng);
                    if rng.coin() {
                        self.outputs.push(name.clone());
                        return format!("add-gate {name} (exposed)");
                    }
                    return format!("add-gate {name} (dangling)");
                }
                // Expose an existing gate as a new output.
                3 => {
                    let hidden: Vec<String> = self
                        .gates
                        .iter()
                        .map(|g| g.name.clone())
                        .filter(|n| !self.outputs.contains(n))
                        .collect();
                    let Some(name) = pick(rng, &hidden) else {
                        continue;
                    };
                    self.outputs.push(name.clone());
                    return format!("add-output {name}");
                }
                // Remove an output (keep at least one).
                _ => {
                    if self.outputs.len() < 2 {
                        continue;
                    }
                    let i = rng.below(self.outputs.len());
                    let name = self.outputs.remove(i);
                    return format!("remove-output {name}");
                }
            }
        }
    }
}

fn pick(rng: &mut XorShift, pool: &[String]) -> Option<String> {
    if pool.is_empty() {
        None
    } else {
        Some(pool[rng.below(pool.len())].clone())
    }
}

fn pick_ref<'a, T>(rng: &mut XorShift, pool: &'a [T]) -> Option<&'a T> {
    if pool.is_empty() {
        None
    } else {
        Some(&pool[rng.below(pool.len())])
    }
}

fn frame(id: &str, kind: Option<&str>, session: Option<&str>, circuit: &str) -> String {
    let mut f = format!(r#"{{"id":"{id}""#);
    if let Some(k) = kind {
        f.push_str(&format!(r#","kind":"{k}""#));
    }
    if let Some(s) = session {
        f.push_str(&format!(r#","session":"{s}""#));
    }
    f.push_str(&format!(
        r#","circuit":"{}"}}"#,
        circuit.replace('\n', "\\n")
    ));
    f
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        ..ServeConfig::default()
    }
}

fn eco_counter(doc: &Value, key: &str) -> u64 {
    doc.get("effort")
        .and_then(|e| e.get("eco"))
        .and_then(|e| e.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing effort.eco.{key}"))
}

/// Replays one seeded edit script in one configuration cell: the warm
/// session's incremental answers must match a cold session's at every
/// prefix. Returns the warm session's full response transcript (for
/// cross-cell byte comparison) plus its final reuse totals.
fn replay(seed: u64, cfg: &ServeConfig) -> (Vec<String>, u64, u64) {
    let mut rng = XorShift::new(seed);
    let mut circuit = Circuit::random(&mut rng);
    let mut warm = Session::new(cfg.clone());
    let mut transcript = Vec::new();

    let establish = warm.handle_line(&frame("e0", None, Some("eco"), &circuit.bench()));
    validate_response(&establish).expect("establish response valid");
    transcript.push(establish);

    for step in 0..SCRIPT_LEN {
        let label = circuit.edit(&mut rng);
        let text = circuit.bench();
        let incremental =
            warm.handle_line(&frame(&format!("q{step}"), Some("eco"), Some("eco"), &text));
        let inc_doc = validate_response(&incremental)
            .unwrap_or_else(|e| panic!("seed {seed:#x} step {step} ({label}): {e}"));
        transcript.push(incremental);

        // The cold oracle: a fresh session, a plain analyze request.
        let mut cold = Session::new(cfg.clone());
        let fresh = cold.handle_line(&frame(&format!("q{step}"), None, None, &text));
        let fresh_doc = validate_response(&fresh).expect("cold response valid");
        assert_eq!(
            deterministic_view(&inc_doc),
            deterministic_view(&fresh_doc),
            "seed {seed:#x} step {step} ({label}): incremental result diverged from cold\n{text}"
        );

        // Conservation and diff-bounding of the reuse counters: every
        // output cone is either merged from the store or recomputed,
        // and only cones the base diff flagged as edited may recompute
        // (an undo can recompute even fewer, via older retained cones).
        let reused = eco_counter(&inc_doc, "reused");
        let recomputed = eco_counter(&inc_doc, "recomputed");
        let changed = eco_counter(&inc_doc, "changed");
        assert_eq!(
            reused + recomputed,
            circuit.outputs.len() as u64,
            "seed {seed:#x} step {step} ({label}): counters must cover every output cone"
        );
        assert!(
            recomputed <= changed,
            "seed {seed:#x} step {step} ({label}): recomputed {recomputed} cones but the \
             base diff only flagged {changed}"
        );
    }
    let totals = warm.workspace_stats();
    (transcript, totals.cones_reused, totals.cones_recomputed)
}

#[test]
fn edit_scripts_match_cold_runs_at_every_prefix() {
    for seed in seeds() {
        let (_, reused, recomputed) = replay(seed, &config(1));
        assert!(
            reused > 0,
            "seed {seed:#x}: a {SCRIPT_LEN}-edit script never reused a cone — the \
             incremental path is not incremental"
        );
        assert!(recomputed > 0, "seed {seed:#x}: nothing ever recomputed");
    }
}

#[test]
fn transcripts_are_byte_identical_across_threads() {
    for seed in seeds() {
        let (baseline, ..) = replay(seed, &config(1));
        let (other, ..) = replay(seed, &config(4));
        assert_eq!(
            baseline, other,
            "seed {seed:#x}: threads=4 changed the incremental transcript"
        );
    }
}

/// The acceptance criterion pinned exactly: a single gate-kind swap
/// recomputes precisely the cones whose fanin contains the edited gate
/// and reuses every other retained cone, and the counters say so.
#[test]
fn one_gate_edit_recomputes_exactly_the_affected_cone_set() {
    for seed in seeds() {
        let mut rng = XorShift::new(seed.rotate_left(17));
        let mut circuit = Circuit::random(&mut rng);
        let mut warm = Session::new(ServeConfig::default());
        let est = warm.handle_line(&frame("e", None, Some("s"), &circuit.bench()));
        validate_response(&est).expect("valid");

        // Swap one binary gate's kind (guaranteed to exist: generation
        // makes NOT gates only 1-in-5).
        let Some(i) = (0..circuit.gates.len()).find(|&i| circuit.gates[i].fanins.len() == 2) else {
            continue;
        };
        let old = circuit.gates[i].kind;
        circuit.gates[i].kind = BINARY_KINDS
            .iter()
            .find(|k| **k != old)
            .expect("five kinds");
        let edited_gate = circuit.gates[i].name.clone();
        let affected = circuit.outputs_reaching(&edited_gate) as u64;
        let total = circuit.outputs.len() as u64;

        let doc = validate_response(&warm.handle_line(&frame(
            "q",
            Some("eco"),
            Some("s"),
            &circuit.bench(),
        )))
        .expect("valid");
        assert_eq!(
            eco_counter(&doc, "recomputed"),
            affected,
            "seed {seed:#x}: swapping {edited_gate} must recompute exactly its fanout cones"
        );
        assert_eq!(
            eco_counter(&doc, "reused"),
            total - affected,
            "seed {seed:#x}: unaffected cones must all be reused"
        );
        assert_eq!(eco_counter(&doc, "changed"), affected);
    }
}
