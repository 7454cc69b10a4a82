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
    /// for any key outside the schema (fleet notes).
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

/// One fleet scheduling event (assignment, completion, crash, retry,
/// respawn), as logged by multi-process campaigns.
///
/// Fleet notes share the manifest file with [`ManifestEntry`] lines but
/// lead with a `"fleet"` key, which [`ManifestEntry::parse_line`] rejects
/// — so [`Manifest::replay`] skips them untouched. They are the forensic
/// record: [`Manifest::replay_fleet`] reconstructs what the fleet did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetNote {
    /// Event kind: `"assigned"`, `"completed"`, `"worker-died"`,
    /// `"requeued"`, `"respawned"`, `"worker-ready"`.
    pub kind: String,
    /// The shard involved, when the event concerns one.
    pub shard: Option<String>,
    /// The worker slot involved, when the event concerns one.
    pub worker: Option<u64>,
    /// 1-based attempt number, for assignments and requeues.
    pub attempt: Option<u64>,
    /// Free-form cause or context (crash reasons, backoff).
    pub detail: Option<String>,
}

impl FleetNote {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = format!(r#"{{"fleet":{}"#, quote(&self.kind));
        if let Some(shard) = &self.shard {
            out.push_str(&format!(r#","shard":{}"#, quote(shard)));
        }
        if let Some(worker) = self.worker {
            out.push_str(&format!(r#","worker":{worker}"#));
        }
        if let Some(attempt) = self.attempt {
            out.push_str(&format!(r#","attempt":{attempt}"#));
        }
        if let Some(detail) = &self.detail {
            out.push_str(&format!(r#","detail":{}"#, quote(detail)));
        }
        out.push('}');
        out
    }

    /// Parse one line; `None` for non-fleet or malformed lines.
    pub fn parse_line(line: &str) -> Option<FleetNote> {
        let mut kind = None;
        let mut shard = None;
        let mut worker = None;
        let mut attempt = None;
        let mut detail = None;
        for (key, value) in object_fields(line)? {
            match key.as_str() {
                "fleet" => kind = Some(into_string(value)?),
                "shard" => shard = Some(into_string(value)?),
                "worker" => worker = Some(value.as_u64()?),
                "attempt" => attempt = Some(value.as_u64()?),
                "detail" => detail = Some(into_string(value)?),
                _ => return None,
            }
        }
        Some(FleetNote {
            kind: kind?,
            shard,
            worker,
            attempt,
            detail,
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

    /// Append one fleet scheduling note and flush.
    pub fn append_fleet(&self, note: &FleetNote) -> io::Result<()> {
        // Same poison recovery as `append`: a torn line is skipped on replay.
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        writeln!(file, "{}", note.to_line())?;
        file.flush()
    }

    /// Replay only the fleet scheduling notes (crash forensics;
    /// [`Manifest::replay`] skips these lines).
    pub fn replay_fleet(cache_dir: &Path) -> io::Result<Vec<FleetNote>> {
        let bytes = Self::read(cache_dir)?;
        Ok(utf8_lines(&bytes)
            .filter_map(FleetNote::parse_line)
            .collect())
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
        assert!(Manifest::replay_fleet(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn note(kind: &str) -> FleetNote {
        FleetNote {
            kind: kind.to_string(),
            shard: Some("f6 = \"50%\"".to_string()),
            worker: Some(3),
            attempt: Some(2),
            detail: Some("worker died mid-shard: clean EOF (exit status: 86)".to_string()),
        }
    }

    #[test]
    fn fleet_notes_roundtrip() {
        for n in [
            note("worker-died"),
            FleetNote {
                kind: "worker-ready".to_string(),
                shard: None,
                worker: Some(0),
                attempt: None,
                detail: None,
            },
        ] {
            let line = n.to_line();
            assert_eq!(FleetNote::parse_line(&line), Some(n), "line: {line}");
        }
    }

    #[test]
    fn fleet_notes_are_invisible_to_resume_replay() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-manifest-test-{}-fleet",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest::open(&dir).unwrap();
        m.append_fleet(&note("assigned")).unwrap();
        m.append(&entry("a", "h1", false)).unwrap();
        m.append_fleet(&note("worker-died")).unwrap();
        m.append_fleet(&note("requeued")).unwrap();
        m.append(&entry("b", "h2", true)).unwrap();
        drop(m);
        // Resume sees only the shard entries…
        assert_eq!(
            Manifest::replay(&dir).unwrap(),
            vec![entry("a", "h1", false), entry("b", "h2", true)]
        );
        // …while forensics sees only the fleet notes, in order.
        let kinds: Vec<String> = Manifest::replay_fleet(&dir)
            .unwrap()
            .into_iter()
            .map(|n| n.kind)
            .collect();
        assert_eq!(kinds, vec!["assigned", "worker-died", "requeued"]);
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
