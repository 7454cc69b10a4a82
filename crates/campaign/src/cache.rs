//! The content-addressed run-record store.
//!
//! Layout under the campaign directory:
//!
//! ```text
//! <cache-dir>/
//!   reports/<hash>.json    one RunRecord per shard input hash
//!   manifest.jsonl         append-only campaign log (see `manifest`)
//! ```
//!
//! Records are written atomically (temp file + rename in the same
//! directory), so a killed campaign never leaves a half-written record:
//! after an interrupt the file either exists complete or not at all,
//! which is exactly the property resume needs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use spider_core::report::RunRecord;
use spider_core::world::RunResult;

/// Handle on a campaign cache directory.
#[derive(Debug, Clone)]
pub struct RecordCache {
    reports: PathBuf,
}

impl RecordCache {
    /// Open (creating if needed) the cache under `root`.
    pub fn open(root: &Path) -> io::Result<RecordCache> {
        let reports = root.join("reports");
        fs::create_dir_all(&reports)?;
        Ok(RecordCache { reports })
    }

    /// Where the record for `hash` lives (whether or not it exists yet).
    pub fn record_path(&self, hash: &str) -> PathBuf {
        self.reports.join(format!("{hash}.json"))
    }

    /// Is a record for `hash` present on disk?
    pub fn contains(&self, hash: &str) -> bool {
        self.record_path(hash).is_file()
    }

    /// Load the cached run for `hash`. Returns `None` when the record is
    /// absent or fails to parse (a corrupt or stale-schema record is
    /// treated as a miss and will be overwritten by the fresh run).
    pub fn load(&self, hash: &str) -> Option<RunResult> {
        let text = fs::read_to_string(self.record_path(hash)).ok()?;
        RunRecord::from_json(&text).ok()
    }

    /// Store `result` under `hash` atomically; returns the record path.
    ///
    /// Temp-file + same-directory rename: concurrent writers (threads or
    /// whole processes sharing the cache) each use a distinct temp name,
    /// and the last rename wins with the file complete either way.
    pub fn store(&self, hash: &str, result: &RunResult) -> io::Result<PathBuf> {
        let json = RunRecord::to_json(result)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self
            .reports
            .join(format!(".tmp-{hash}-{}", std::process::id()));
        fs::write(&tmp, json)?;
        let path = self.record_path(hash);
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::deployment::ApSite;
    use mobility::geometry::Point;
    use sim_engine::time::Duration;
    use spider_core::config::SpiderConfig;
    use spider_core::world::{run, ClientMotion, WorldConfig};
    use wifi_mac::channel::Channel;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("campaign-cache-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_run() -> RunResult {
        let site = ApSite {
            id: 1,
            position: Point::new(0.0, 0.0),
            channel: Channel::CH1,
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(300),
        };
        run(WorldConfig::new(
            5,
            vec![site],
            ClientMotion::Fixed(Point::new(0.0, 10.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(10),
        ))
    }

    #[test]
    fn store_then_load_roundtrips_exactly() {
        let root = scratch("roundtrip");
        let cache = RecordCache::open(&root).expect("open");
        let result = tiny_run();
        assert!(!cache.contains("abc"));
        let path = cache.store("abc", &result).expect("store");
        assert!(cache.contains("abc"));
        assert_eq!(path, cache.record_path("abc"));
        let loaded = cache.load("abc").expect("load");
        assert_eq!(
            RunRecord::to_json(&loaded).unwrap(),
            RunRecord::to_json(&result).unwrap()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_records_read_as_misses() {
        let root = scratch("corrupt");
        let cache = RecordCache::open(&root).expect("open");
        fs::write(cache.record_path("bad"), "{\"v\":1,\"truncated").expect("write");
        assert!(cache.contains("bad"));
        assert!(cache.load("bad").is_none());
        // Deep enough to overflow the stack of an unbounded recursive parser.
        fs::write(cache.record_path("deep"), "{\"v\":".repeat(200_000)).expect("write");
        assert!(cache.load("deep").is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
