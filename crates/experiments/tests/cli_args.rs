//! Argument validation of the `experiments` binary: a bad value is a
//! usage error (exit 2) before any world runs.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

#[test]
fn zero_scale_is_a_usage_error() {
    // Scale 0 would run zero-length worlds and print empty figures.
    let out = Command::new(BIN)
        .args(["fig5", "--scale", "0", "--no-cache"])
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--scale needs a positive integer"),
        "stderr:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "a rejected run prints no figure");
}
