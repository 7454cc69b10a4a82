//! Argument validation of the `experiments` binary: a bad value or a
//! repeated setting is a usage error (exit 2) before any world runs.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// Run `experiments` with `args` and return (exit code, stderr, stdout
/// was empty).
fn run(args: &[&str]) -> (Option<i32>, String, bool) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, out.stdout.is_empty())
}

#[test]
fn zero_scale_is_a_usage_error() {
    // Scale 0 would run zero-length worlds and print empty figures.
    let (code, stderr, quiet) = run(&["fig5", "--scale", "0", "--no-cache"]);
    assert_eq!(code, Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("--scale needs a positive integer"),
        "stderr:\n{stderr}"
    );
    assert!(quiet, "a rejected run prints no figure");
}

#[test]
fn repeated_or_conflicting_flags_are_usage_errors() {
    // A repeat used to be read silently: `--no-cache --cache-dir d` ran
    // uncached.
    for (args, want) in [
        (
            &["fig5", "--no-cache", "--cache-dir", "d"][..],
            "--cache-dir after --no-cache",
        ),
        (
            &["fig5", "--cache-dir", "d", "--no-cache"],
            "--no-cache after --cache-dir",
        ),
        (
            &["fig5", "--no-cache", "--workers", "1", "--workers", "2"],
            "--workers after --workers",
        ),
        (
            &["fig5", "--no-cache", "--seed", "1", "--seed", "2"],
            "--seed after --seed",
        ),
        (
            &["fig5", "--no-cache", "--scale", "1", "--scale", "2"],
            "--scale after --scale",
        ),
        (
            &[
                "fig5",
                "--no-cache",
                "--exec",
                "process",
                "--exec",
                "in-process",
            ],
            "--exec after --exec",
        ),
        (
            &["fig5", "--no-cache", "--no-cache"],
            "--no-cache after --no-cache",
        ),
        (&["fig5", "fig6", "--no-cache"], "fig6 after fig5"),
    ] {
        let (code, stderr, quiet) = run(args);
        assert_eq!(code, Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains(want), "{args:?}: stderr:\n{stderr}");
        assert!(quiet, "{args:?}: a rejected run prints no figure");
    }
}
