//! Deterministic fault injection on the serve request path.
//!
//! The same harness that walks the engine's degradation ladder
//! (`crates/core/tests/fault_ladder.rs`) drives the service loop here:
//! each request-path site — frame decode, mid-request cancel, cache
//! poison — plus the engine's cone-panic site is armed in turn, and the
//! session must isolate the fault to one request, quarantine only that
//! request's warm state, and keep answering.

use tbf_core::fault::{with_plan, FaultPlan, Site};
use tbf_obs::json::Value;
use tbf_serve::protocol::{deterministic_view, validate_response};
use tbf_serve::session::{ServeConfig, Session};

const C17: &str = "INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)\nOUTPUT(g22)\nOUTPUT(g23)\ng10 = NAND(g1, g3)\ng11 = NAND(g3, g6)\ng16 = NAND(g2, g11)\ng19 = NAND(g11, g7)\ng22 = NAND(g10, g16)\ng23 = NAND(g16, g19)\n";

const NOT1: &str = "INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n";

fn request(id: &str, circuit: &str) -> String {
    format!(
        r#"{{"id":"{id}","circuit":"{}"}}"#,
        circuit.replace('\n', "\\n")
    )
}

fn request_no_cache(id: &str, circuit: &str) -> String {
    format!(
        r#"{{"id":"{id}","circuit":"{}","options":{{"cache":false}}}}"#,
        circuit.replace('\n', "\\n")
    )
}

fn error_kind(response: &str) -> String {
    let doc = validate_response(response).expect("schema-valid");
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or("<ok>")
        .to_owned()
}

fn result_of(response: &str) -> Value {
    let doc = validate_response(response).expect("schema-valid");
    doc.get("result").expect("ok response").clone()
}

/// The fault-free answer for cross-checking recovered runs.
fn clean_result(circuit: &str) -> Value {
    let mut session = Session::new(ServeConfig::default());
    result_of(&session.handle_line(&request("clean", circuit)))
}

#[test]
fn frame_parse_fault_rejects_one_frame_and_session_survives() {
    let mut session = Session::new(ServeConfig::default());
    with_plan(FaultPlan::new().once(Site::FrameParse), || {
        let hit = session.handle_line(&request("r1", C17));
        assert_eq!(error_kind(&hit), "malformed_frame", "{hit}");
        // The fault is one-shot per session: the identical frame now
        // parses and analyzes.
        let ok = session.handle_line(&request("r2", C17));
        assert_eq!(error_kind(&ok), "<ok>", "{ok}");
        assert_eq!(result_of(&ok), clean_result(C17));
    });
}

#[test]
fn mid_request_cancel_degrades_that_request_only() {
    let mut session = Session::new(ServeConfig::default());
    with_plan(FaultPlan::new().once(Site::RequestCancel), || {
        let cancelled = session.handle_line(&request("r1", C17));
        let doc = validate_response(&cancelled).expect("schema-valid");
        assert_eq!(
            doc.get("status").and_then(Value::as_str),
            Some("ok"),
            "a cancelled request degrades to sound bounds, not an error: {cancelled}"
        );
        let rung = doc
            .get("result")
            .and_then(|r| r.get("rung"))
            .and_then(Value::as_str)
            .expect("rung");
        assert_ne!(rung, "exact", "{cancelled}");
        // The degraded result must not have been cached; the repeat
        // recomputes and lands exact.
        let repeat = session.handle_line(&request("r2", C17));
        assert_eq!(result_of(&repeat), clean_result(C17));
    });
    assert_eq!(session.metrics().cancelled, 1);
}

#[test]
fn cache_poison_quarantines_one_key_and_rebuilds() {
    let mut session = Session::new(ServeConfig::default());
    // Fires on the *second* analysis (hit index 1): r1 caches normally,
    // then r2's completion poisons its own key.
    with_plan(FaultPlan::new().once_at(Site::CachePoison, 1), || {
        let r1 = session.handle_line(&request("r1", C17)); // analysis 0: cached
        let _ = session.handle_line(&request_no_cache("r2", C17)); // analysis 1: poisons
        assert_eq!(session.cache_stats().poisons, 1, "the key was quarantined");
        // Bystander entries were untouched and the poisoned circuit is
        // rebuilt from scratch with the same answer.
        let r3 = session.handle_line(&request("r3", C17));
        assert_eq!(
            result_of(&r3),
            result_of(&r1),
            "rebuilt result is identical"
        );
        let r4 = session.handle_line(&request("r4", C17));
        assert_eq!(result_of(&r4), result_of(&r1));
    });
    let stats = session.cache_stats();
    assert!(
        stats.hits >= 1,
        "the rebuilt entry serves warm hits again: {stats:?}"
    );
    assert_eq!(stats.insertions, 2, "cached once, poisoned, cached again");
}

#[test]
fn cone_panic_is_retried_to_the_clean_answer() {
    let mut session = Session::new(ServeConfig::default());
    with_plan(FaultPlan::new().once(Site::ConeStart), || {
        let recovered = session.handle_line(&request_no_cache("r1", C17));
        let doc = validate_response(&recovered).expect("schema-valid");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            result_of(&recovered),
            clean_result(C17),
            "the retry after a cone panic must reach the fault-free answer"
        );
        let attempts = doc
            .get("effort")
            .and_then(|e| e.get("attempts"))
            .and_then(Value::as_u64)
            .expect("attempts");
        assert!(
            attempts >= 2,
            "recovery took a serve-level retry: {recovered}"
        );
    });
    assert!(session.metrics().retries >= 1);
}

/// g19 swapped NAND -> NOR: only g23's cone is affected, g22's is not.
const C17_EDIT: &str = "INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)\nOUTPUT(g22)\nOUTPUT(g23)\ng10 = NAND(g1, g3)\ng11 = NAND(g3, g6)\ng16 = NAND(g2, g11)\ng19 = NOR(g11, g7)\ng22 = NAND(g10, g16)\ng23 = NAND(g16, g19)\n";

fn establish(id: &str, session: &str, circuit: &str) -> String {
    format!(
        r#"{{"id":"{id}","session":"{session}","circuit":"{}"}}"#,
        circuit.replace('\n', "\\n")
    )
}

fn eco_frame(id: &str, session: &str, circuit: &str) -> String {
    format!(
        r#"{{"id":"{id}","kind":"eco","session":"{session}","circuit":"{}"}}"#,
        circuit.replace('\n', "\\n")
    )
}

fn eco_counter(response: &str, key: &str) -> u64 {
    let doc = validate_response(response).expect("schema-valid");
    doc.get("effort")
        .and_then(|e| e.get("eco"))
        .and_then(|e| e.get(key))
        .and_then(Value::as_u64)
        .expect("eco effort counters")
}

#[test]
fn frame_parse_fault_on_an_eco_frame_leaves_the_workspace_unpoisoned() {
    let oracle = clean_result(C17_EDIT);
    let mut session = Session::new(ServeConfig::default());
    let based = session.handle_line(&establish("e1", "eco", C17));
    assert_eq!(error_kind(&based), "<ok>", "{based}");
    with_plan(FaultPlan::new().once(Site::FrameParse), || {
        let hit = session.handle_line(&eco_frame("e2", "eco", C17_EDIT));
        assert_eq!(error_kind(&hit), "malformed_frame", "{hit}");
        // The dropped frame neither advanced the session's base nor
        // touched its retained cones: the retry diffs against the
        // original C17, reuses g22's cone, and recomputes only g23's.
        let retry = session.handle_line(&eco_frame("e3", "eco", C17_EDIT));
        assert_eq!(error_kind(&retry), "<ok>", "{retry}");
        assert_eq!(result_of(&retry), oracle);
        assert_eq!(eco_counter(&retry, "reused"), 1, "{retry}");
        assert_eq!(eco_counter(&retry, "recomputed"), 1, "{retry}");
    });
    assert_eq!(session.workspace_len(), 1, "the session outlives the fault");
}

#[test]
fn mid_eco_cancel_degrades_one_request_and_the_next_eco_lands_exact() {
    let oracle = clean_result(C17_EDIT);
    let mut session = Session::new(ServeConfig::default());
    let based = session.handle_line(&establish("e1", "eco", C17));
    assert_eq!(error_kind(&based), "<ok>", "{based}");
    with_plan(FaultPlan::new().once(Site::RequestCancel), || {
        let cancelled = session.handle_line(&eco_frame("e2", "eco", C17_EDIT));
        let doc = validate_response(&cancelled).expect("schema-valid");
        assert_eq!(
            doc.get("status").and_then(Value::as_str),
            Some("ok"),
            "a cancelled eco degrades to sound bounds, not an error: {cancelled}"
        );
        let rung = doc
            .get("result")
            .and_then(|r| r.get("rung"))
            .and_then(Value::as_str)
            .expect("rung");
        assert_ne!(rung, "exact", "{cancelled}");
        // Degraded cones were never retained; the repeat edit recomputes
        // them to the exact answer while the untouched cone stays warm.
        let repeat = session.handle_line(&eco_frame("e3", "eco", C17_EDIT));
        assert_eq!(error_kind(&repeat), "<ok>", "{repeat}");
        assert_eq!(result_of(&repeat), oracle);
    });
    assert_eq!(
        session.workspace_len(),
        1,
        "mid-edit cancellation never tears down the session"
    );
    assert_eq!(session.metrics().cancelled, 1);
}

#[test]
fn cone_panic_during_an_eco_degrades_one_recompute_and_the_store_stays_warm() {
    let oracle_edit = clean_result(C17_EDIT);
    let oracle_base = clean_result(C17);
    let mut session = Session::new(ServeConfig::default());
    let based = session.handle_line(&establish("e1", "eco", C17));
    assert_eq!(error_kind(&based), "<ok>", "{based}");
    with_plan(FaultPlan::new().once(Site::ConeStart), || {
        // The panic hits only the recomputed cone (the reused one never
        // runs the engine, so it cannot trip the fault); the engine
        // catches it, the degraded attempt is judged transient and never
        // retained, and the retry reuses the warm cone while recomputing
        // the panicked one to the exact answer.
        let recovered = session.handle_line(&eco_frame("e2", "eco", C17_EDIT));
        assert_eq!(error_kind(&recovered), "<ok>", "{recovered}");
        assert_eq!(result_of(&recovered), oracle_edit);
        assert_eq!(eco_counter(&recovered, "reused"), 1, "{recovered}");
        assert_eq!(eco_counter(&recovered, "recomputed"), 1, "{recovered}");
        let doc = validate_response(&recovered).expect("schema-valid");
        let attempts = doc
            .get("effort")
            .and_then(|e| e.get("attempts"))
            .and_then(Value::as_u64)
            .expect("attempts");
        assert!(attempts >= 2, "{recovered}");
    });
    assert!(session.metrics().retries >= 1);
    assert_eq!(session.workspace_len(), 1, "the session itself survives");
    // The panic evicted nothing: the original g23 cone from the
    // establish is still retained under its own slice key, so reverting
    // the edit reuses *both* cones without running the engine at all.
    let revert = session.handle_line(&eco_frame("e3", "eco", C17));
    assert_eq!(error_kind(&revert), "<ok>", "{revert}");
    assert_eq!(result_of(&revert), oracle_base);
    assert_eq!(eco_counter(&revert, "reused"), 2, "{revert}");
    assert_eq!(eco_counter(&revert, "recomputed"), 0, "{revert}");
}

#[test]
fn recovered_faults_leave_response_results_identical_to_clean_runs() {
    let batch = [
        request("a", C17),
        request("b", NOT1),
        request("c", C17), // warm hit in the clean run, maybe not under faults
    ];
    let run = |plan: FaultPlan| -> Vec<Value> {
        let mut session = Session::new(ServeConfig::default());
        with_plan(plan, || {
            batch
                .iter()
                .map(|line| {
                    let doc = validate_response(&session.handle_line(line)).expect("valid");
                    deterministic_view(&doc)
                })
                .collect()
        })
    };
    let clean = run(FaultPlan::new());
    let faulted = run(FaultPlan::new()
        .once(Site::ConeStart)
        .once_at(Site::CachePoison, 0));
    assert_eq!(
        clean, faulted,
        "recoverable faults may change effort, never results"
    );
}
