//! The append-only campaign manifest.
//!
//! One JSON object per line, written as each shard finishes:
//!
//! ```text
//! {"shard":"(1) Channel 1, Multi-AP","hash":"9f…","wall_ms":412,"cache":"miss","path":"reports/9f….json"}
//! ```
//!
//! The manifest is the campaign's append-only audit log: what ran, when
//! it hit, how long it took. `Campaign::run` writes it but never reads
//! it back — resume is keyed on the record files under `reports/`, so a
//! missing, truncated, or corrupt manifest never costs a cache hit, and
//! deleting a record (or the whole `reports/` directory) re-runs those
//! shards. [`Manifest::replay`] reads the log for tools and tests,
//! skipping lines it cannot parse, such as the truncated final line a
//! process killed mid-append leaves behind.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sim_engine::json::{self, quote, Value};

/// One completed shard, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The shard's human-readable key (the experiment label).
    pub shard: String,
    /// The shard's content hash.
    pub hash: String,
    /// Wall-clock time the shard took, milliseconds (0 for cache hits).
    pub wall_ms: u64,
    /// Whether the shard was served from cache.
    pub cache_hit: bool,
    /// Record path relative to the cache directory.
    pub path: String,
}

impl ManifestEntry {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            r#"{{"shard":{},"hash":{},"wall_ms":{},"cache":{},"path":{}}}"#,
            quote(&self.shard),
            quote(&self.hash),
            self.wall_ms,
            if self.cache_hit {
                "\"hit\""
            } else {
                "\"miss\""
            },
            quote(&self.path),
        )
    }

    /// Parse one line; `None` for anything malformed (corrupt tail) and
    /// for any key outside the schema (such as the scheduling-note lines
    /// that older caches hold).
    pub fn parse_line(line: &str) -> Option<ManifestEntry> {
        let mut shard = None;
        let mut hash = None;
        let mut wall_ms = None;
        let mut cache = None;
        let mut path = None;
        for (key, value) in object_fields(line)? {
            match key.as_str() {
                "shard" => shard = Some(into_string(value)?),
                "hash" => hash = Some(into_string(value)?),
                "wall_ms" => wall_ms = Some(value.as_u64()?),
                "cache" => cache = Some(into_string(value)?),
                "path" => path = Some(into_string(value)?),
                _ => return None,
            }
        }
        let cache_hit = match cache?.as_str() {
            "hit" => true,
            "miss" => false,
            _ => return None,
        };
        Some(ManifestEntry {
            shard: shard?,
            hash: hash?,
            wall_ms: wall_ms?,
            cache_hit,
            path: path?,
        })
    }
}

/// An open manifest, appendable from any worker thread.
#[derive(Debug)]
pub struct Manifest {
    file: Mutex<File>,
}

/// The manifest's file name inside a campaign cache directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

impl Manifest {
    /// The manifest path for a cache directory.
    pub fn path_in(cache_dir: &Path) -> PathBuf {
        cache_dir.join(MANIFEST_FILE)
    }

    /// Open (creating if needed) for appending.
    pub fn open(cache_dir: &Path) -> io::Result<Manifest> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::path_in(cache_dir))?;
        Ok(Manifest {
            file: Mutex::new(file),
        })
    }

    /// Append one entry and flush, so a kill right after a shard
    /// completes still finds it logged on resume.
    pub fn append(&self, entry: &ManifestEntry) -> io::Result<()> {
        // Poison recovery: a worker that panicked mid-append leaves at
        // worst a truncated line, which `replay` already skips — keep
        // logging the shards that do finish.
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        writeln!(file, "{}", entry.to_line())?;
        file.flush()
    }

    /// Replay a manifest, skipping unparsable (truncated) lines. A
    /// missing manifest is an empty campaign, not an error.
    pub fn replay(cache_dir: &Path) -> io::Result<Vec<ManifestEntry>> {
        let bytes = Self::read(cache_dir)?;
        Ok(utf8_lines(&bytes)
            .filter_map(ManifestEntry::parse_line)
            .collect())
    }

    /// The whole manifest; a missing one reads as empty.
    fn read(cache_dir: &Path) -> io::Result<Vec<u8>> {
        match fs::read(Self::path_in(cache_dir)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            read => read,
        }
    }
}

/// The lines of `bytes` that are valid UTF-8. A kill mid-append can cut
/// a multi-byte character in half; that torn line is skipped like any
/// other unparsable one instead of failing the whole read.
fn utf8_lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|line| std::str::from_utf8(line).ok())
}

/// The fields of a line holding one JSON object, in document order;
/// `None` for anything else.
fn object_fields(line: &str) -> Option<Vec<(String, Value)>> {
    match json::parse(line).ok()? {
        Value::Obj(fields) => Some(*fields),
        _ => None,
    }
}

/// The contents of a string value, moved out.
fn into_string(value: Value) -> Option<String> {
    match value {
        Value::Str(s) => Some(*s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(shard: &str, hash: &str, hit: bool) -> ManifestEntry {
        ManifestEntry {
            shard: shard.to_string(),
            hash: hash.to_string(),
            wall_ms: 412,
            cache_hit: hit,
            path: format!("reports/{hash}.json"),
        }
    }

    #[test]
    fn lines_roundtrip() {
        for e in [
            entry("(1) Channel 1, Multi-AP", "9f00aa", false),
            entry(
                "weird \"label\" with \\ and \n newline — ünïcode",
                "00",
                true,
            ),
        ] {
            let line = e.to_line();
            assert_eq!(ManifestEntry::parse_line(&line), Some(e), "line: {line}");
        }
        // Older writers escaped every control character as `\u00XX`.
        let legacy = r#"{"shard":"a\u000ab","hash":"00","wall_ms":1,"cache":"hit","path":"p"}"#;
        assert_eq!(
            ManifestEntry::parse_line(legacy).map(|e| e.shard),
            Some("a\nb".to_string())
        );
    }

    #[test]
    fn truncated_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-truncated",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest::open(&dir).unwrap();
        m.append(&entry("a", "h1", false)).unwrap();
        m.append(&entry("b", "h2", true)).unwrap();
        drop(m);
        // Simulate a kill mid-append: a torn final line.
        let path = Manifest::path_in(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"shard\":\"c\",\"hash\":\"h3\",\"wall");
        std::fs::write(&path, text).unwrap();
        let replayed = Manifest::replay(&dir).unwrap();
        assert_eq!(
            replayed,
            vec![entry("a", "h1", false), entry("b", "h2", true)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_torn_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-non-utf8",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest::open(&dir).unwrap();
        m.append(&entry("a", "h1", false)).unwrap();
        drop(m);
        // A kill that cuts a multi-byte label ("Ω" is 0xCE 0xA9) in half.
        let path = Manifest::path_in(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"shard\":\"fig5 \xce");
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(
            Manifest::replay(&dir).unwrap(),
            vec![entry("a", "h1", false)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_notes_are_invisible_to_resume_replay() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-fleet",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Caches written by multi-process campaigns interleave scheduling
        // notes, led by a "fleet" key, with the shard entries.
        let note = |kind: &str| {
            format!(
                r#"{{"fleet":"{kind}","shard":"f6 = \"50%\"","worker":3,"attempt":2,"detail":"clean EOF"}}"#
            )
        };
        let m = Manifest::open(&dir).unwrap();
        let raw = |line: String| writeln!(m.file.lock().unwrap(), "{line}").unwrap();
        raw(note("assigned"));
        m.append(&entry("a", "h1", false)).unwrap();
        raw(note("worker-died"));
        raw(note("requeued"));
        m.append(&entry("b", "h2", true)).unwrap();
        drop(m);
        // Replay returns only the shard entries.
        assert_eq!(
            Manifest::replay(&dir).unwrap(),
            vec![entry("a", "h1", false), entry("b", "h2", true)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_empty() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-missing",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Manifest::replay(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
