//! End-to-end checks of `tbf --emit-metrics`: the run artifact is
//! schema-valid and its deterministic sections are byte-identical across
//! `--threads {1,2,8}` on c17.

#![cfg(feature = "obs")]

use std::path::PathBuf;
use std::process::Command;

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
    for section in [
        "circuit",
        "policy",
        "results",
        "counters",
        "histograms",
        "phases",
        "timing",
    ] {
        assert!(doc.get(section).is_some(), "missing section `{section}`");
    }
    // The timing section must serialize last.
    let keys: Vec<&String> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys.last().map(|s| s.as_str()), Some("timing"));
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
