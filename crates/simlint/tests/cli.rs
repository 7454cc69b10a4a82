//! End-to-end tests of the `simlint` binary: the acceptance criterion is
//! that a seeded violation in a scratch tree produces a non-zero exit and
//! a `file:line: error[rule]` diagnostic on stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch tree under the target tmpdir, unique per test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simlint-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("rel path has a parent")).expect("mkdir");
    fs::write(path, contents).expect("write scratch source");
}

fn run_simlint(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--root")
        .arg(root)
        .arg("--json")
        .arg(root.join("simlint.json"))
        .output()
        .expect("spawn simlint binary")
}

#[test]
fn seeded_violation_fails_with_rustc_style_diagnostic() {
    let root = scratch("seeded");
    write(
        &root,
        "crates/spider-core/src/bad.rs",
        "use std::collections::HashMap;\n\
         pub struct S {\n\
         \x20   pub m: HashMap<u32, u32>,\n\
         }\n\
         pub fn f(v: Option<u32>) -> u32 {\n\
         \x20   v.unwrap()\n\
         }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "seeded violation must fail CI; stderr:\n{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "violations exit with code 1");
    // rustc-style `file:line: error[rule]` diagnostics, one per site.
    assert!(
        stderr.contains("crates/spider-core/src/bad.rs:1: error[unordered-map]"),
        "missing unordered-map diagnostic:\n{stderr}"
    );
    assert!(
        stderr.contains("crates/spider-core/src/bad.rs:6: error[panic-path]"),
        "missing panic-path diagnostic:\n{stderr}"
    );
    // The machine-readable summary is written even on failure.
    let json = fs::read_to_string(root.join("simlint.json")).expect("json summary");
    assert!(
        json.contains("\"unordered-map\""),
        "json lists the rule: {json}"
    );
    assert!(json.contains("bad.rs"), "json names the file: {json}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn clean_tree_passes() {
    let root = scratch("clean");
    write(
        &root,
        "crates/spider-core/src/good.rs",
        "use std::collections::BTreeMap;\n\
         pub struct S {\n\
         \x20   pub m: BTreeMap<u32, u32>,\n\
         }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "clean tree must pass; stderr:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn waiver_without_reason_is_rejected() {
    let root = scratch("waiver");
    write(
        &root,
        "crates/sim-engine/src/w.rs",
        "pub fn f(v: Option<u32>) -> u32 {\n\
         \x20   // simlint: allow(panic-path)\n\
         \x20   v.unwrap()\n\
         }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr.contains("error[waiver-missing-reason]"),
        "a reason-less waiver must be its own violation:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn waiver_with_reason_suppresses_the_violation() {
    let root = scratch("waived-ok");
    write(
        &root,
        "crates/sim-engine/src/w.rs",
        "pub fn f(v: Option<u32>) -> u32 {\n\
         \x20   // simlint: allow(panic-path) — caller guarantees Some; a None is a harness bug\n\
         \x20   v.unwrap()\n\
         }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a reasoned waiver must suppress the site; stderr:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn bench_crate_tiering_matches_policy() {
    let root = scratch("bench-tiers");
    // stats.rs is sim tier: the wall clock is banned there.
    write(
        &root,
        "crates/bench/src/stats.rs",
        "pub fn now_ns() -> u128 {\n\
         \x20   std::time::Instant::now().elapsed().as_nanos()\n\
         }\n",
    );
    // timer.rs is lib tier: it may read the clock (it measures it) but
    // answers for panic paths.
    write(
        &root,
        "crates/bench/src/timer.rs",
        "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n\
         pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    // Suite bodies and the gate CLI are bin tier: nothing enforced.
    write(
        &root,
        "crates/bench/src/suites.rs",
        "pub fn setup(v: Option<u32>) -> u32 { v.unwrap() }\n",
    );
    write(
        &root,
        "crates/bench/src/bin/bench.rs",
        "fn main() { std::env::args().nth(1).unwrap(); }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("crates/bench/src/stats.rs:2: error[wall-clock]"),
        "stats.rs wall clock must be flagged:\n{stderr}"
    );
    assert!(
        stderr.contains("crates/bench/src/timer.rs:2: error[panic-path]"),
        "timer.rs unwrap must be flagged:\n{stderr}"
    );
    assert!(
        !stderr.contains("timer.rs:1"),
        "timer.rs clock read must be allowed:\n{stderr}"
    );
    assert!(
        !stderr.contains("suites.rs") && !stderr.contains("bin/bench.rs"),
        "bin-tier bench files must be exempt:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn bin_and_test_tiers_are_exempt() {
    let root = scratch("tiers");
    // Experiments (Bin tier): panic paths allowed.
    write(
        &root,
        "crates/experiments/src/main.rs",
        "fn main() { std::env::args().nth(1).unwrap(); }\n",
    );
    // tests/ directory: everything allowed.
    write(
        &root,
        "crates/spider-core/tests/t.rs",
        "use std::collections::HashMap;\n\
         #[test]\n\
         fn t() { let _m: HashMap<u32, u32> = HashMap::new(); }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exempt tiers flagged; stderr:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn usage_and_io_errors_exit_2() {
    // Unknown flag: usage error.
    for flag in ["--bogus", "--no-cache", "--cache"] {
        let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
            .arg(flag)
            .output()
            .expect("spawn simlint binary");
        assert_eq!(out.status.code(), Some(2), "{flag} is a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    }
    // Unreadable root: IO error.
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--root")
        .arg("/nonexistent-simlint-root")
        .output()
        .expect("spawn simlint binary");
    assert_eq!(out.status.code(), Some(2), "unreadable root is an IO error");
}

#[test]
fn new_sim_tier_rules_flag_and_lib_tier_does_not() {
    let root = scratch("v2-rules");
    write(
        &root,
        "crates/spider-core/src/bad.rs",
        "pub fn order(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n\
         pub fn gate() -> bool { std::env::var(\"X\").is_ok() }\n\
         pub fn seed() -> u64 { thread_rng().gen() }\n",
    );
    // The same constructs are legal in lib tier (campaign reads env for
    // cache dirs, etc.).
    write(
        &root,
        "crates/campaign/src/lib.rs",
        "pub fn gate() -> bool { std::env::var(\"X\").is_ok() }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("crates/spider-core/src/bad.rs:1: error[float-order]"),
        "partial_cmp call must be flagged:\n{stderr}"
    );
    assert!(
        stderr.contains("crates/spider-core/src/bad.rs:2: error[env-read]"),
        "env read must be flagged:\n{stderr}"
    );
    assert!(
        stderr.contains("crates/spider-core/src/bad.rs:3: error[ambient-rng]"),
        "entropy-seeded rng must be flagged:\n{stderr}"
    );
    assert!(
        !stderr.contains("crates/campaign"),
        "lib tier must not enforce sim-only rules:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn partial_cmp_definition_is_not_flagged() {
    // The v1 lexer could not tell a PartialOrd impl from a call site;
    // the parser can — this is the "parse, don't grep" acceptance test.
    let root = scratch("defn-not-call");
    write(
        &root,
        "crates/sim-engine/src/order.rs",
        "impl PartialOrd for Entry {\n\
         \x20   fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n\
         \x20       Some(self.cmp(other))\n\
         \x20   }\n\
         }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn panic_reach_renders_witness_path_across_files() {
    let root = scratch("reach");
    write(
        &root,
        "crates/spider-core/src/world.rs",
        "pub fn drive() { geo::rank::pick(1); }\n",
    );
    write(
        &root,
        "crates/geo/src/rank.rs",
        "pub fn pick(i: usize) -> u8 { inner(i) }\n\
         fn inner(i: usize) -> u8 { TABLE.get(i).copied().unwrap() }\n",
    );
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("crates/spider-core/src/world.rs:1: error[panic-reach]"),
        "transitive reach must be flagged at the pub fn:\n{stderr}"
    );
    assert!(
        stderr.contains(
            "drive (crates/spider-core/src/world.rs:1) -> \
             pick (crates/geo/src/rank.rs:1) -> \
             inner (crates/geo/src/rank.rs:2) -> \
             unwrap() at crates/geo/src/rank.rs:2"
        ),
        "diagnostic must render the shortest witness call path:\n{stderr}"
    );
    // The artifact carries the reachability section.
    let json = fs::read_to_string(root.join("simlint.json")).expect("json summary");
    assert!(json.contains("\"reachability\""), "{json}");
    assert!(json.contains("\"witness\""), "{json}");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn unclassified_crate_is_a_lint_error() {
    let root = scratch("unclassified");
    write(&root, "crates/newcomer/src/lib.rs", "pub fn ok() {}\n");
    let out = run_simlint(&root);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("crates/newcomer:1: error[unclassified-crate]"),
        "unknown crate dirs must be denied by default:\n{stderr}"
    );
    fs::remove_dir_all(&root).ok();
}
