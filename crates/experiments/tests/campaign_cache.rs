//! The campaign cache's determinism contract, through the real
//! `experiments` binary: a second process, in another environment,
//! sharing the first one's cache directory prints byte-identical figure
//! text and is served from the cache. The manifest is an audit log, not
//! the resume index, so a torn tail costs no hits; a corrupt record is a
//! miss, not a crash. The spatial grid and the earshot bound behind the
//! metro and fleet targets are accelerators, not semantics.
//!
//! Each process runs under its own `SPIDER_ORDER_PROBE`: a cache hit needs
//! byte-identical records, so results must not depend on per-process
//! state (environment contents, hash-map iteration order, ASLR).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

const FIRST: &str = "first-process-aaaa";
const SECOND: &str = "second-process-zzzz-longer";

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "experiments-campaign-cache-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `experiments <target> --cache-dir <cache>` with `probe` as an
/// environment value the results must not depend on; it must exit 0.
fn experiments(target: &str, cache: &Path, probe: &str) -> Output {
    let out = Command::new(BIN)
        .args([target, "--cache-dir"])
        .arg(cache)
        .env("SPIDER_ORDER_PROBE", probe)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "{target} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The campaign summary line's `(shards, hits, misses, cancelled)`.
fn summary(out: &Output) -> (u64, u64, u64, u64) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("campaign: "))
        .unwrap_or_else(|| panic!("no campaign summary:\n{stderr}"));
    let mut counts = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<u64>().expect("a count"));
    let mut next = || counts.next().expect("four counts");
    (next(), next(), next(), next())
}

/// Run `target` cold, then again from a second process on the same
/// cache: the second prints the same figure text, served entirely from
/// the cache.
fn replays_from_cache_in_a_second_process(target: &str) {
    let dir = scratch(target);
    let cache = dir.join("cache");

    let first = experiments(target, &cache, FIRST);
    let (shards, _, misses, _) = summary(&first);
    assert!(
        shards > 0 && misses == shards,
        "{target}: a cold cache runs every shard"
    );

    let second = experiments(target, &cache, SECOND);
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout),
        "{target}: the cached second run's figure text diverged"
    );
    assert_eq!(
        summary(&second),
        (shards, shards, 0, 0),
        "{target}: the second run was not served entirely from the cache"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig5_cache_survives_a_second_process_a_torn_manifest_and_a_corrupt_record() {
    let dir = scratch("fig5");
    let cache = dir.join("cache");
    let first = experiments("fig5", &cache, FIRST);
    assert_eq!(
        summary(&first),
        (4, 0, 4, 0),
        "a cold cache runs every shard"
    );

    let rerun = |what: &str, want: (u64, u64, u64, u64)| {
        let out = experiments("fig5", &cache, SECOND);
        assert_eq!(out.stdout, first.stdout, "{what}: figure text diverged");
        assert_eq!(
            summary(&out),
            want,
            "{what}: (shards, hits, misses, cancelled)"
        );
    };
    rerun("second process", (4, 4, 0, 0));

    // A torn non-UTF-8 manifest tail (a kill that cut a multi-byte label
    // in half) costs no hits.
    let manifest = cache.join("manifest.jsonl");
    let mut bytes = std::fs::read(&manifest).expect("manifest");
    bytes.extend_from_slice(b"{\"shard\":\"fig5 \xce");
    std::fs::write(&manifest, bytes).expect("tear the manifest");
    rerun("torn manifest tail", (4, 4, 0, 0));

    // A record of 200,000 nested objects costs exactly one re-run shard,
    // never a stack overflow.
    let record = std::fs::read_dir(cache.join("reports"))
        .expect("reports dir")
        .map(|e| e.expect("dir entry").path())
        .min()
        .expect("a record");
    std::fs::write(&record, "{\"v\":".repeat(200_000)).expect("corrupt a record");
    rerun("corrupt record", (4, 3, 1, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metro_campaign_replays_from_cache_in_a_second_process() {
    replays_from_cache_in_a_second_process("channel-assignment");
}

#[test]
fn fleet_contention_replays_from_cache_in_a_second_process() {
    replays_from_cache_in_a_second_process("fleet-contention");
}

/// A world built with an explicitly empty fleet replays the historical
/// single-client world at `RunRecord` fidelity (`fleet-identity` exits
/// nonzero otherwise), and two processes print the same record.
#[test]
fn fleet_identity_is_byte_identical_across_processes() {
    let dir = scratch("fleet-identity");
    let cache = dir.join("cache");
    let first = experiments("fleet-identity", &cache, FIRST);
    let second = experiments("fleet-identity", &cache, SECOND);
    assert!(!first.stdout.is_empty(), "fleet-identity printed nothing");
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout),
        "fleet-identity output differs between processes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
