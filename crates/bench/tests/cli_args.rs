//! Usage errors of the `tbf` CLI: a flag value it does not know must
//! fail the run, never fall through to a partial report.

use std::path::PathBuf;
use std::process::Command;

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
