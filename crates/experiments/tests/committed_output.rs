//! `experiments_output.txt` at the repository root is the committed record
//! of every table and figure. A fresh-cache `experiments all` must
//! reproduce it byte for byte, so a change that moves any figure, or adds
//! a section, fails here until the file is regenerated alongside it:
//!
//! ```text
//! ./target/release/experiments all --cache-dir <fresh dir> > experiments_output.txt
//! ```

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");
const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");

#[test]
fn fresh_cache_experiments_all_reproduces_the_committed_output() {
    let expected = std::fs::read(COMMITTED).expect("read experiments_output.txt");
    let dir = std::env::temp_dir().join(format!(
        "experiments-committed-output-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // The output does not depend on the worker count; two keep the run
    // small on any machine.
    let out = Command::new(BIN)
        .args(["all", "--workers", "2", "--cache-dir"])
        .arg(dir.join("cache"))
        .output()
        .expect("spawn experiments");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "experiments all failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    if out.stdout == expected {
        return;
    }
    let (got, want) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&expected),
    );
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "experiments all differs from experiments_output.txt at line {}:\n  committed: {:?}\n  produced:  {:?}",
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of file>"),
    );
}
