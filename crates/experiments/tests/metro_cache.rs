//! The 1024-AP metro campaign behind `channel-assignment` holds the
//! campaign cache's determinism contract: a second process, in another
//! environment, sharing the first one's cache directory prints
//! byte-identical figure text and is served entirely from the cache. The
//! spatial grid and the earshot bound are accelerators, not semantics.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// `experiments channel-assignment --scale 1` on the cache in `cache`,
/// with `probe` as an environment value the results must not depend on.
fn channel_assignment(cache: &Path, probe: &str) -> Output {
    let out = Command::new(BIN)
        .args(["channel-assignment", "--scale", "1", "--cache-dir"])
        .arg(cache)
        .env("SPIDER_ORDER_PROBE", probe)
        .output()
        .expect("spawn experiments");
    assert!(
        out.status.success(),
        "channel-assignment failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The campaign summary line's `(shards, hits, misses, cancelled)`.
fn summary(stderr: &[u8]) -> (u64, u64, u64, u64) {
    let stderr = String::from_utf8_lossy(stderr);
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

#[test]
fn metro_campaign_replays_from_cache_in_a_second_process() {
    let dir = std::env::temp_dir().join(format!("experiments-metro-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache = dir.join("metro-cache");

    let first = channel_assignment(&cache, "first-process-aaaa");
    let (shards, _, misses, _) = summary(&first.stderr);
    assert!(
        shards > 0 && misses == shards,
        "a cold cache runs every shard"
    );

    let second = channel_assignment(&cache, "second-process-zzzz-longer");
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout),
        "the cached second run's figure text diverged"
    );
    assert_eq!(
        summary(&second.stderr),
        (shards, shards, 0, 0),
        "the second run was not served entirely from the cache"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
