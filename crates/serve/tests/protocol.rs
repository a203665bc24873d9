//! Table-driven request-parsing hardening: every class of hostile frame
//! yields exactly one typed error line, and the session keeps serving.

use tbf_obs::json::Value;
use tbf_serve::protocol::validate_response;
use tbf_serve::session::{ServeConfig, Session};

const NOT1: &str = r#"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n"#;

fn good(id: &str) -> String {
    format!(r#"{{"id":"{id}","circuit":"{NOT1}"}}"#)
}

fn kind_of(response: &str) -> (Option<String>, String) {
    let doc = validate_response(response).expect("even hostile input gets a schema-valid line");
    let id = doc.get("id").and_then(Value::as_str).map(str::to_owned);
    let kind = doc
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .expect("error kind")
        .to_owned();
    (id, kind)
}

#[test]
fn hostile_frames_get_typed_errors_and_the_session_survives() {
    // (frame, expected kind, expect the id to be echoed)
    let cases: Vec<(String, &str, bool)> = vec![
        // Not JSON at all.
        ("garbage".to_owned(), "malformed_frame", false),
        // Valid JSON, wrong shape.
        ("[1,2,3]".to_owned(), "malformed_frame", false),
        (r#""just a string""#.to_owned(), "malformed_frame", false),
        // Missing / bad id.
        (
            format!(r#"{{"circuit":"{NOT1}"}}"#),
            "malformed_frame",
            false,
        ),
        (
            format!(r#"{{"id":"","circuit":"{NOT1}"}}"#),
            "malformed_frame",
            false,
        ),
        (
            format!(r#"{{"id":7,"circuit":"{NOT1}"}}"#),
            "malformed_frame",
            false,
        ),
        // Raw control bytes: NUL and CRLF framing.
        (format!("{}\u{0}", good("nul")), "malformed_frame", false),
        (format!("{}\r", good("crlf")), "malformed_frame", false),
        // Unknown schema versions and names.
        (
            format!(r#"{{"id":"s1","schema":99,"circuit":"{NOT1}"}}"#),
            "unsupported_schema",
            true,
        ),
        (
            format!(
                r#"{{"id":"s2","schema":{{"name":"tbf-serve-request","version":42}},"circuit":"{NOT1}"}}"#
            ),
            "unsupported_schema",
            true,
        ),
        (
            format!(
                r#"{{"id":"s3","schema":{{"name":"something-else","version":1}},"circuit":"{NOT1}"}}"#
            ),
            "unsupported_schema",
            true,
        ),
        (
            format!(r#"{{"id":"s4","schema":true,"circuit":"{NOT1}"}}"#),
            "unsupported_schema",
            true,
        ),
        // Semantically broken requests.
        (r#"{"id":"b1"}"#.to_owned(), "bad_request", true),
        (
            format!(r#"{{"id":"b2","circuit":"{NOT1}","path":"x.bench"}}"#),
            "bad_request",
            true,
        ),
        (
            r#"{"id":"b3","path":"/nonexistent/definitely-missing.bench"}"#.to_owned(),
            "bad_request",
            true,
        ),
        (
            r#"{"id":"b4","circuit":"this is not a netlist"}"#.to_owned(),
            "bad_request",
            true,
        ),
        (
            format!(r#"{{"id":"b5","circuit":"{NOT1}","model":"statistical"}}"#),
            "bad_request",
            true,
        ),
        (
            format!(r#"{{"id":"b6","circuit":"{NOT1}","format":"verilog"}}"#),
            "bad_request",
            true,
        ),
        (
            format!(r#"{{"id":"b7","circuit":"{NOT1}","delays":"gaussian"}}"#),
            "bad_request",
            true,
        ),
        (
            format!(r#"{{"id":"b8","circuit":"{NOT1}","options":7}}"#),
            "bad_request",
            true,
        ),
        (
            format!(r#"{{"id":"b9","circuit":"{NOT1}","options":{{"max_paths":"lots"}}}}"#),
            "bad_request",
            true,
        ),
        (
            format!(r#"{{"id":"b11","circuit":"{NOT1}","options":{{"cache":"yes"}}}}"#),
            "bad_request",
            true,
        ),
    ];
    // Known members with the wrong JSON type: each is a bad request that
    // names the member, never read as if it were absent.
    let mistyped: Vec<(&str, String)> = vec![
        (
            "deadline_ms",
            format!(r#"{{"id":"m1","circuit":"{NOT1}","deadline_ms":"0"}}"#),
        ),
        (
            "deadline_ms",
            format!(r#"{{"id":"m2","circuit":"{NOT1}","deadline_ms":-1}}"#),
        ),
        (
            "deadline_ms",
            format!(r#"{{"id":"m3","circuit":"{NOT1}","deadline_ms":1.5}}"#),
        ),
        (
            "model",
            format!(r#"{{"id":"m4","circuit":"{NOT1}","model":7}}"#),
        ),
        (
            "delays",
            format!(r#"{{"id":"m5","circuit":"{NOT1}","delays":false}}"#),
        ),
        (
            "format",
            format!(r#"{{"id":"m6","circuit":"{NOT1}","format":1}}"#),
        ),
        ("circuit", r#"{"id":"m7","circuit":5}"#.to_owned()),
        (
            "path",
            format!(r#"{{"id":"m8","circuit":"{NOT1}","path":["x.bench"]}}"#),
        ),
    ];
    let cases: Vec<(String, &str, bool)> = cases
        .into_iter()
        .chain(
            mistyped
                .iter()
                .map(|(_, frame)| (frame.clone(), "bad_request", true)),
        )
        .collect();

    let mut session = Session::new(ServeConfig::default());
    for (frame, expected_kind, id_echoed) in &cases {
        let response = session.handle_line(frame);
        let (id, kind) = kind_of(&response);
        assert_eq!(&kind, expected_kind, "frame: {frame:?} → {response}");
        assert_eq!(
            id.is_some(),
            *id_echoed,
            "id echo mismatch for {frame:?} → {response}"
        );
        // One line, no raw control characters, valid UTF-8 by construction.
        assert!(!response.contains('\n'), "responses are single lines");
        if let Some((member, _)) = mistyped.iter().find(|(_, f)| f == frame) {
            assert!(
                response.contains(&format!("`{member}` must be")),
                "{frame}: the detail must name `{member}` → {response}"
            );
        }
    }

    // After the whole gauntlet the session still answers.
    let ok = session.handle_line(&good("alive"));
    let doc = validate_response(&ok).expect("valid");
    assert_eq!(doc.get("status"), Some(&Value::str("ok")), "{ok}");
    assert_eq!(session.metrics().frames, cases.len() as u64 + 1);
    assert_eq!(session.metrics().errors, cases.len() as u64);
    assert_eq!(session.metrics().ok, 1);
}

#[test]
fn retired_option_members_are_ignored() {
    // `reorder` is not an option the engine reads, so like any unknown
    // `options` member it is ignored, whatever its value.
    let mut session = Session::new(ServeConfig::default());
    for (i, opts) in [r#""sometimes""#, r#""pressure""#, "7"].iter().enumerate() {
        let frame = format!(r#"{{"id":"r{i}","circuit":"{NOT1}","options":{{"reorder":{opts}}}}}"#);
        let response = session.handle_line(&frame);
        let doc = validate_response(&response).expect("valid");
        assert_eq!(doc.get("status"), Some(&Value::str("ok")), "{response}");
    }
}

#[test]
fn oversized_frames_are_rejected_before_parsing() {
    let mut session = Session::new(ServeConfig {
        max_frame_bytes: 256,
        ..ServeConfig::default()
    });
    let huge = format!(r#"{{"id":"big","circuit":"{}"}}"#, "x".repeat(1024));
    let (id, kind) = kind_of(&session.handle_line(&huge));
    assert_eq!(kind, "frame_too_large");
    assert!(id.is_none(), "an unparsed frame cannot echo an id");
    // A frame exactly at the cap is fine.
    let ok = session.handle_line(&good("fits"));
    assert!(ok.contains(r#""status":"ok""#), "{ok}");
}

#[test]
fn error_details_are_deterministic() {
    // Two sessions, same hostile frame, byte-identical error lines —
    // the determinism suite relies on this for mixed batches.
    let frame = r#"{"id":"x","circuit":"not a netlist"}"#;
    let a = Session::new(ServeConfig::default()).handle_line(frame);
    let b = Session::new(ServeConfig::default()).handle_line(frame);
    assert_eq!(a, b);
}
