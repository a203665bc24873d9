//! Per-request observability scoping.
//!
//! The session opens no observation of its own: a request's artifact
//! row carries the counters of the `observe` around its frame, which
//! the stdio and socket runners open per frame under `--emit-metrics`.
//! The tests below scope frames the same way.
//!
//! The regression this pins: a warm process used to report one
//! session-cumulative counter registry, so the artifact row for request
//! N included all the work of requests 1..N-1. With per-frame scoping,
//! two identical back-to-back requests must record *identical* (and
//! individually complete) counter rows.

use tbf_core::obs::observe;
use tbf_obs::json::Value;
use tbf_obs::Metric;
use tbf_serve::session::{ServeConfig, Session};

const C17: &str = "INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g6)\nINPUT(g7)\nOUTPUT(g22)\nOUTPUT(g23)\ng10 = NAND(g1, g3)\ng11 = NAND(g3, g6)\ng16 = NAND(g2, g11)\ng19 = NAND(g11, g7)\ng22 = NAND(g10, g16)\ng23 = NAND(g16, g19)\n";

fn request(id: &str) -> String {
    format!(
        r#"{{"id":"{id}","circuit":"{}","options":{{"cache":false}}}}"#,
        C17.replace('\n', "\\n")
    )
}

/// One frame, scoped the way the runners scope it.
fn handle_observed(session: &mut Session, line: &str) -> String {
    observe(|| session.handle_line(line)).0
}

fn counter_rows(session: &Session) -> Vec<Value> {
    let rendered = session.final_artifact().render();
    let doc = Value::parse(&rendered).expect("artifact parses");
    doc.get("requests")
        .and_then(Value::as_array)
        .expect("requests section")
        .iter()
        .map(|row| row.get("counters").expect("per-request counters").clone())
        .collect()
}

#[test]
fn back_to_back_requests_record_identical_counters() {
    let mut session = Session::new(ServeConfig::default());
    let first = handle_observed(&mut session, &request("r1"));
    let second = handle_observed(&mut session, &request("r2"));
    assert!(first.contains(r#""status":"ok""#), "{first}");
    assert!(second.contains(r#""status":"ok""#), "{second}");

    let rows = counter_rows(&session);
    assert_eq!(rows.len(), 2);
    let some_effort = rows[0]
        .as_object()
        .expect("counters object")
        .iter()
        .any(|(_, v)| v.as_u64().unwrap_or(0) > 0);
    assert!(some_effort, "an analysis must record nonzero counters");
    assert_eq!(
        rows[0], rows[1],
        "identical requests must record identical per-request counters — \
         inequality means the session accumulated across requests"
    );
}

#[test]
fn cached_requests_record_no_analysis_counters() {
    let mut session = Session::new(ServeConfig::default());
    let warm = format!(r#"{{"id":"w1","circuit":"{}"}}"#, C17.replace('\n', "\\n"));
    let _ = handle_observed(&mut session, &warm);
    let warm2 = format!(r#"{{"id":"w2","circuit":"{}"}}"#, C17.replace('\n', "\\n"));
    let response = handle_observed(&mut session, &warm2);
    assert!(response.contains(r#""cached":true"#), "{response}");

    let rendered = session.final_artifact().render();
    let doc = Value::parse(&rendered).expect("artifact parses");
    let rows = doc
        .get("requests")
        .and_then(Value::as_array)
        .expect("requests section");
    assert!(
        rows[1].get("counters").is_none(),
        "a warm hit runs no analysis, so its row carries no counters"
    );
}

#[test]
fn an_observed_frame_counts_its_bdd_work_in_that_observation() {
    let mut session = Session::new(ServeConfig::default());
    let (response, obs) = observe(|| session.handle_line(&request("o1")));
    assert!(response.contains(r#""status":"ok""#), "{response}");
    assert!(
        obs.counters.get(Metric::IteCalls) > 0,
        "the caller's observation must see the request's BDD work"
    );
}

#[test]
fn unobserved_frames_record_no_counters() {
    let mut session = Session::new(ServeConfig::default());
    let response = session.handle_line(&request("u1"));
    assert!(response.contains(r#""status":"ok""#), "{response}");
    let rendered = session.final_artifact().render();
    let doc = Value::parse(&rendered).expect("artifact parses");
    let rows = doc
        .get("requests")
        .and_then(Value::as_array)
        .expect("requests section");
    assert!(rows[0].get("counters").is_none());
}
