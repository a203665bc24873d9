//! Usage errors of the `tbf` CLI and `tbf serve`: a flag or flag value
//! they do not know must fail the run, never fall through to a partial
//! report or a running service.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn c17() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/c17.bench")
}

#[test]
fn unknown_model_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_tbf"))
        .args(["--model", "two_vector"])
        .arg(c17())
        .output()
        .expect("tbf runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--model"), "stderr: {stderr}");
    assert!(stderr.contains("two_vector"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report on a usage error");
}

#[test]
fn retired_serve_flags_are_usage_errors() {
    for flag in [
        ["--max-in-flight", "4"],
        ["--backoff", "5"],
        ["--max-backoff", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tbf"))
            .arg("serve")
            .args(flag)
            .stdin(Stdio::null())
            .output()
            .expect("tbf runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?} stderr: {stderr}");
        assert!(
            stderr.contains("unknown serve argument"),
            "{flag:?} stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag:?}: no responses on a usage error"
        );
    }
}
