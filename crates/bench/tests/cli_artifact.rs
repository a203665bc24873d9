//! End-to-end checks of `tbf --emit-metrics`: the run artifact is
//! schema-valid and its deterministic sections are byte-identical across
//! `--threads {1,2,8}` on c17; `tbf serve --emit-metrics` writes each
//! analyzed request's counters into its row, and a row for each frame it
//! refused unread.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use tbf_obs::json::Value;
use tbf_obs::RunArtifact;

fn c17() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/c17.bench")
}

/// Runs `tbf --emit-metrics - <extra> c17.bench` and returns the parsed,
/// validated artifact document.
fn run_artifact(extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .arg("--emit-metrics")
        .arg("-")
        .args(extra)
        .arg(c17())
        .output()
        .expect("tbf runs");
    assert!(
        out.status.success(),
        "tbf failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 artifact");
    RunArtifact::validate(&stdout).expect("schema-valid artifact")
}

/// The comparable serialization: everything except the volatile
/// `timing` section and the `policy` echo of the varied flags.
fn deterministic_without_policy(doc: &Value) -> String {
    match RunArtifact::deterministic_view(doc) {
        Value::Obj(pairs) => {
            Value::Obj(pairs.into_iter().filter(|(k, _)| k != "policy").collect()).to_string()
        }
        other => other.to_string(),
    }
}

#[test]
fn artifact_is_schema_valid_with_all_sections() {
    let doc = run_artifact(&[]);
    let version = doc
        .get("schema")
        .and_then(|s| s.get("version"))
        .and_then(Value::as_u64);
    assert_eq!(version, Some(3));
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["schema", "circuit", "policy", "results", "counters", "phases", "timing"]
    );
    // BDD work actually happened and was counted.
    let ite = doc
        .get("counters")
        .and_then(|c| c.get("ite_calls"))
        .and_then(Value::as_u64)
        .expect("ite_calls counter");
    assert!(ite > 0, "c17 analysis must execute ITE calls");
    let gates = doc
        .get("circuit")
        .and_then(|c| c.get("gates"))
        .and_then(Value::as_u64);
    assert_eq!(gates, Some(6));
}

#[test]
fn deterministic_sections_identical_across_threads() {
    // model=anytime exercises the worker pool; the default model ignores
    // --threads entirely.
    for model in ["all", "anytime"] {
        let baseline =
            deterministic_without_policy(&run_artifact(&["--model", model, "--threads", "1"]));
        for threads in ["2", "8"] {
            let doc = run_artifact(&["--model", model, "--threads", threads]);
            assert_eq!(
                deterministic_without_policy(&doc),
                baseline,
                "model={model} threads={threads}"
            );
        }
    }
}

#[test]
fn streaming_to_stdout_keeps_stdout_pure_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .args(["--emit-metrics", "-", "--per-output"])
        .arg(c17())
        .output()
        .expect("tbf runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // No human report lines before or after the document.
    assert!(
        stdout.trim_start().starts_with('{'),
        "stdout must be JSON only"
    );
    RunArtifact::validate(&stdout).expect("stdout parses as one artifact");
    // Diagnostics are quieted too.
    assert!(out.stderr.is_empty(), "streaming implies --quiet");
}

#[test]
fn quiet_flag_suppresses_diagnostics_only() {
    // A blown cap makes the two-vector model emit a diagnostic; --quiet
    // must silence stderr while the human stdout report stays.
    let loud = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .args(["--model", "two-vector", "--max-paths", "1"])
        .arg(c17())
        .output()
        .expect("tbf runs");
    assert!(!loud.stderr.is_empty(), "cap overflow should be diagnosed");
    let quiet = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .args(["--model", "two-vector", "--max-paths", "1", "--quiet"])
        .arg(c17())
        .output()
        .expect("tbf runs");
    assert!(quiet.stderr.is_empty(), "--quiet must silence diagnostics");
    assert!(!quiet.stdout.is_empty(), "--quiet keeps the report");
}

#[test]
fn emit_to_file_writes_the_same_artifact() {
    let dir = std::env::temp_dir().join(format!("tbf-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("c17.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .arg("--emit-metrics")
        .arg(&path)
        .arg(c17())
        .output()
        .expect("tbf runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let doc = RunArtifact::validate(&text).expect("schema-valid");
    let streamed = run_artifact(&[]);
    assert_eq!(
        deterministic_without_policy(&doc),
        deterministic_without_policy(&streamed),
        "file and stream artifacts agree on deterministic sections"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_emit_metrics_writes_counters_on_analyzed_rows_only() {
    let dir = std::env::temp_dir().join(format!("tbf-serve-artifact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.json");
    let c17 = c17().display().to_string();
    let frames =
        format!("{{\"id\":\"r1\",\"path\":\"{c17}\"}}\n{{\"id\":\"r2\",\"path\":\"{c17}\"}}\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .args(["serve", "--quiet", "--emit-metrics"])
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("tbf serve starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(frames.as_bytes())
        .expect("frames written");
    let out = child.wait_with_output().expect("tbf serve exits");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let doc = RunArtifact::validate(&text).expect("schema-valid");
    let rows = doc
        .get("requests")
        .and_then(Value::as_array)
        .expect("requests section");
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1].get("cached"), Some(&Value::Bool(true)));
    let ite = rows[0]
        .get("counters")
        .and_then(|c| c.get("ite_calls"))
        .and_then(Value::as_u64);
    assert!(ite > Some(0), "the analyzed row counts its BDD work");
    assert!(
        rows[1].get("counters").is_none(),
        "a warm-cache hit runs no analysis"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_refuses_unreadable_frames_and_keeps_reading() {
    let dir = std::env::temp_dir().join(format!("tbf-serve-frames-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.json");
    let good = |id: &str| {
        format!("{{\"id\":\"{id}\",\"circuit\":\"INPUT(a)\\nOUTPUT(f)\\nf = NOT(a)\\n\"}}\n")
    };
    let big = format!("{{\"id\":\"big\",\"pad\":\"{}\"}}\n", "x".repeat(300));
    let frames = [
        b"\xff{\"id\":\"bad\"}\n",
        good("r1").as_bytes(),
        big.as_bytes(),
        good("r2").as_bytes(),
    ]
    .concat();
    let mut child = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .args(["serve", "--quiet", "--max-frame-bytes", "256"])
        .arg("--emit-metrics")
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("tbf serve starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&frames)
        .expect("frames written");
    let out = child.wait_with_output().expect("tbf serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("responses are UTF-8");
    let text = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("-").to_owned();
    let answers: Vec<String> = stdout
        .lines()
        .map(|line| {
            let doc = tbf_serve::protocol::validate_response(line).expect("schema-valid");
            let kind = doc.get("error").and_then(|e| e.get("kind"));
            format!("{} {}", text(doc.get("id")), text(kind))
        })
        .collect();
    assert_eq!(
        answers,
        ["- malformed_frame", "r1 -", "- frame_too_large", "r2 -"],
        "one answer per frame, in order"
    );
    let doc = RunArtifact::validate(&std::fs::read_to_string(&path).expect("artifact written"))
        .expect("schema-valid");
    let session = doc.get("session").expect("session section");
    let count = |name: &str| session.get(name).and_then(Value::as_u64);
    assert_eq!(
        [count("frames"), count("ok"), count("errors")],
        [Some(4), Some(2), Some(2)]
    );
    let kinds: Vec<String> = doc
        .get("requests")
        .and_then(Value::as_array)
        .expect("requests section")
        .iter()
        .map(|row| text(row.get("error_kind")))
        .collect();
    assert_eq!(kinds, ["malformed_frame", "-", "frame_too_large", "-"]);
    std::fs::remove_dir_all(&dir).ok();
}
