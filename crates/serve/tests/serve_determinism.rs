//! Response determinism across execution strategies.
//!
//! The serve contract: the same request batch yields
//!
//! * **byte-identical response lines** across worker-thread counts
//!   ({1, 4}) — nothing in a response may leak scheduling choices;
//! * **identical `result` members** when recoverable faults are seeded
//!   (the `effort` member may differ — that is its job) — compared via
//!   [`deterministic_view`];
//! * **identical `result` members** when the session is killed
//!   mid-batch and a fresh session re-answers the remaining requests —
//!   a restart loses the warm cache, never the answers.

use tbf_core::fault::{with_plan, FaultPlan, Site};
use tbf_obs::json::Value;
use tbf_serve::protocol::{deterministic_view, validate_response};
use tbf_serve::session::{ServeConfig, Session};

const C17: &str = "INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)\nOUTPUT(g22)\nOUTPUT(g23)\ng10 = NAND(g1, g3)\ng11 = NAND(g3, g6)\ng16 = NAND(g2, g11)\ng19 = NAND(g11, g7)\ng22 = NAND(g10, g16)\ng23 = NAND(g16, g19)\n";

const XOR_TREE: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(f)\nx = XOR(a, b)\nf = XOR(x, c)\n";

const NOT1: &str = "INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n";

fn request(id: &str, circuit: &str) -> String {
    format!(
        r#"{{"id":"{id}","circuit":"{}"}}"#,
        circuit.replace('\n', "\\n")
    )
}

/// A mixed batch: distinct circuits, repeats (warm hits), a unit-delay
/// variant (distinct cache key), a zero-deadline request (deterministic
/// degradation), and hostile frames (typed errors) interleaved.
fn batch() -> Vec<String> {
    vec![
        request("r01", C17),
        request("r02", XOR_TREE),
        "definitely not json".to_owned(),
        request("r03", C17), // repeat: warm hit
        format!(
            r#"{{"id":"r04","circuit":"{}","delays":"unit"}}"#,
            C17.replace('\n', "\\n")
        ),
        format!(
            r#"{{"id":"r05","circuit":"{}","deadline_ms":0}}"#,
            C17.replace('\n', "\\n")
        ),
        r#"{"id":"r06","schema":404,"circuit":"x"}"#.to_owned(),
        request("r07", NOT1),
        request("r08", XOR_TREE), // repeat: warm hit
        r#"{"id":"r09","circuit":"not a netlist"}"#.to_owned(),
        request("r10", C17), // repeat: warm hit
    ]
}

fn run_batch(threads: usize) -> Vec<String> {
    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let mut session = Session::new(config);
    let responses: Vec<String> = batch().iter().map(|l| session.handle_line(l)).collect();
    for r in &responses {
        validate_response(r).expect("schema-valid");
    }
    assert!(
        session.cache_stats().hits > 0,
        "the batch repeats circuits, so the warm cache must hit"
    );
    responses
}

#[test]
fn responses_are_byte_identical_across_threads() {
    assert_eq!(
        run_batch(1),
        run_batch(4),
        "threads=4 must produce byte-identical response lines"
    );
}

#[test]
fn rerunning_the_same_batch_is_byte_identical() {
    assert_eq!(run_batch(1), run_batch(1));
}

#[test]
fn kill_mid_batch_and_restart_reanswers_identically() {
    let frames = batch();
    let straight: Vec<Value> = {
        let mut session = Session::new(ServeConfig::default());
        frames
            .iter()
            .map(|l| {
                deterministic_view(&validate_response(&session.handle_line(l)).expect("valid"))
            })
            .collect()
    };
    // "Kill" after every possible prefix: session A answers the prefix,
    // a cold session B re-answers the rest. Results (effort stripped —
    // a restarted session is legitimately colder) must match the
    // straight run at every split point.
    for split in 0..=frames.len() {
        let mut a = Session::new(ServeConfig::default());
        let mut restarted: Vec<Value> = frames[..split]
            .iter()
            .map(|l| deterministic_view(&validate_response(&a.handle_line(l)).expect("valid")))
            .collect();
        drop(a); // the kill: warm cache, budget, metrics all lost
        let mut b = Session::new(ServeConfig::default());
        restarted.extend(
            frames[split..]
                .iter()
                .map(|l| deterministic_view(&validate_response(&b.handle_line(l)).expect("valid"))),
        );
        assert_eq!(
            straight, restarted,
            "restart after frame {split} changed an answer"
        );
    }
}

/// Seeded recoverable faults change effort, never results. (The
/// unrecoverable sites — `RequestCancel` on a live request — are
/// exercised in `fault_path.rs`; they change results in *typed*,
/// documented ways and so stay out of a byte-equality suite.)
#[test]
fn seeded_faults_leave_results_identical() {
    let run = |plan: FaultPlan| -> Vec<Value> {
        let mut session = Session::new(ServeConfig::default());
        with_plan(plan, || {
            batch()
                .iter()
                .map(|l| {
                    deterministic_view(&validate_response(&session.handle_line(l)).expect("valid"))
                })
                .collect()
        })
    };
    let clean = run(FaultPlan::new());
    let seeded = run(FaultPlan::new()
        .once(Site::ConeStart)
        .once(Site::CachePoison));
    assert_eq!(clean, seeded);
    // And the seeded run itself is reproducible byte-for-byte.
    let run_full = |plan: FaultPlan| -> Vec<String> {
        let mut session = Session::new(ServeConfig::default());
        with_plan(plan, || {
            batch().iter().map(|l| session.handle_line(l)).collect()
        })
    };
    assert_eq!(
        run_full(FaultPlan::new().once(Site::ConeStart)),
        run_full(FaultPlan::new().once(Site::ConeStart)),
        "a seeded fault schedule replays byte-identically"
    );
}
