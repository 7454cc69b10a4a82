//! The incremental fact cache (`target/simlint-cache.json`).
//!
//! [`crate::parse::FileFacts`] is a pure function of a file's bytes, so
//! it is cached per **content hash** (FNV-1a 64): a warm run re-hashes
//! every file (cheap) and skips lexing + parsing for unchanged ones
//! (the expensive part). Only the *syntax facts* are cached — the rule
//! matching and the call-graph/reachability phases re-run every time,
//! which is what keeps cross-file diagnostics (`panic-reach`,
//! workspace-wide `waiver-unused`) correct when one file changes out
//! from under its unchanged neighbors.
//!
//! The cache document embeds a fingerprint derived from
//! [`crate::rules::RULES_REVISION`]; bumping that constant (any change
//! to parsing or rule semantics) invalidates every entry at once. Any
//! read failure — missing file, malformed JSON, wrong fingerprint,
//! wrong shape — degrades silently to a cold run: the cache can slow
//! simlint down, never wrong it.
//!
//! Parsing goes through `sim_engine::json`; the schema checks below turn
//! every surprise — a missing key, a float or negative number where a
//! line number belongs — into `None`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use sim_engine::json::{self, quote, Value};

use crate::parse::{CallFact, CallKind, FileFacts, FnFact, SiteFact, WaiverDiag, WaiverFact};
use crate::rules::{Rule, RULES_REVISION};

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint() -> String {
    format!("simlint-facts-r{RULES_REVISION}")
}

/// A loaded cache: content-hash-keyed facts per workspace-relative path.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileFacts)>,
}

impl Cache {
    /// Load from `path`. Any failure (missing, corrupt, stale
    /// fingerprint) yields an empty cache — a cold run, never an error.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        parse_cache(&text).unwrap_or_default()
    }

    /// The cached facts for `rel`, iff its content hash still matches.
    pub fn lookup(&self, rel: &str, hash: u64) -> Option<&FileFacts> {
        match self.entries.get(rel) {
            Some((h, facts)) if *h == hash => Some(facts),
            _ => None,
        }
    }
}

/// Write the cache document for this run's `(rel, hash, facts)` set.
pub fn store(path: &Path, entries: &[(String, u64, &FileFacts)]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = String::with_capacity(entries.len() * 512);
    out.push_str("{\"fingerprint\": ");
    out.push_str(&quote(&fingerprint()));
    out.push_str(", \"files\": [");
    for (i, (rel, hash, facts)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n {\"path\": ");
        out.push_str(&quote(rel));
        out.push_str(&format!(", \"hash\": \"{hash:016x}\", \"facts\": "));
        write_facts(&mut out, facts);
        out.push('}');
    }
    out.push_str("\n]}\n");
    fs::write(path, out)
}

// ---------------------------------------------------------------------
// Facts -> JSON

fn write_facts(out: &mut String, f: &FileFacts) {
    out.push_str("{\"rel\": ");
    out.push_str(&quote(&f.rel));
    out.push_str(", \"fns\": [");
    for (i, x) in f.functions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\": {}, \"qual\": {}, \"mod\": {}, \"line\": {}, \"end\": {}, \
             \"pub\": {}, \"test\": {}}}",
            quote(&x.name),
            match &x.qualifier {
                Some(q) => quote(q),
                None => "null".to_string(),
            },
            quote(&x.module),
            x.line,
            x.end_line,
            x.is_pub,
            x.test
        ));
    }
    out.push_str("], \"calls\": [");
    for (i, x) in f.calls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let segs: Vec<String> = x.segs.iter().map(|s| quote(s)).collect();
        out.push_str(&format!(
            "{{\"caller\": {}, \"kind\": \"{}\", \"segs\": [{}], \"line\": {}}}",
            x.caller,
            match x.kind {
                CallKind::Method => "m",
                CallKind::Path => "p",
            },
            segs.join(","),
            x.line
        ));
    }
    out.push_str("], \"sites\": [");
    for (i, x) in f.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\": {}, \"detail\": {}, \"line\": {}, \"func\": {}, \"test\": {}}}",
            quote(x.rule.name()),
            quote(&x.detail),
            x.line,
            match x.func {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            },
            x.test
        ));
    }
    out.push_str("], \"waivers\": [");
    for (i, x) in f.waivers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"line\": {}, \"rule\": {}, \"standalone\": {}}}",
            x.line,
            quote(x.rule.name()),
            x.standalone
        ));
    }
    out.push_str("], \"diags\": [");
    for (i, x) in f.waiver_diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"line\": {}, \"code\": {}, \"msg\": {}}}",
            x.line,
            quote(&x.code),
            quote(&x.message)
        ));
    }
    out.push_str("]}");
}

// ---------------------------------------------------------------------
// JSON -> Facts

fn parse_cache(text: &str) -> Option<Cache> {
    let root = json::parse(text).ok()?;
    if root.get("fingerprint")?.as_str()? != fingerprint() {
        return None;
    }
    let mut entries = BTreeMap::new();
    for item in items(&root, "files")? {
        let hash = u64::from_str_radix(item.get("hash")?.as_str()?, 16).ok()?;
        let facts = parse_facts(item.get("facts")?)?;
        entries.insert(string(item, "path")?, (hash, facts));
    }
    Some(Cache { entries })
}

fn parse_facts(v: &Value) -> Option<FileFacts> {
    let mut facts = FileFacts {
        rel: string(v, "rel")?,
        ..FileFacts::default()
    };
    for x in items(v, "fns")? {
        facts.functions.push(FnFact {
            name: string(x, "name")?,
            qualifier: match x.get("qual")? {
                Value::Null => None,
                other => Some(other.as_str()?.to_string()),
            },
            module: string(x, "mod")?,
            line: index(x, "line")?,
            end_line: index(x, "end")?,
            is_pub: x.get("pub")?.as_bool()?,
            test: x.get("test")?.as_bool()?,
        });
    }
    for x in items(v, "calls")? {
        let mut segs = Vec::new();
        for s in items(x, "segs")? {
            segs.push(s.as_str()?.to_string());
        }
        facts.calls.push(CallFact {
            caller: index(x, "caller")?,
            kind: match x.get("kind")?.as_str()? {
                "m" => CallKind::Method,
                "p" => CallKind::Path,
                _ => return None,
            },
            segs,
            line: index(x, "line")?,
        });
    }
    for x in items(v, "sites")? {
        facts.sites.push(SiteFact {
            rule: Rule::from_name(x.get("rule")?.as_str()?)?,
            detail: string(x, "detail")?,
            line: index(x, "line")?,
            func: match x.get("func")? {
                Value::Null => None,
                other => Some(usize::try_from(other.as_u64()?).ok()?),
            },
            test: x.get("test")?.as_bool()?,
        });
    }
    for x in items(v, "waivers")? {
        facts.waivers.push(WaiverFact {
            line: index(x, "line")?,
            rule: Rule::from_name(x.get("rule")?.as_str()?)?,
            standalone: x.get("standalone")?.as_bool()?,
        });
    }
    for x in items(v, "diags")? {
        facts.waiver_diags.push(WaiverDiag {
            line: index(x, "line")?,
            code: string(x, "code")?,
            message: string(x, "msg")?,
        });
    }
    Some(facts)
}

/// The string under `key`.
fn string(v: &Value, key: &str) -> Option<String> {
    Some(v.get(key)?.as_str()?.to_string())
}

/// The non-negative integer (a line or an index) under `key`.
fn index(v: &Value, key: &str) -> Option<usize> {
    usize::try_from(v.get(key)?.as_u64()?).ok()
}

/// The array under `key`.
fn items<'a>(v: &'a Value, key: &str) -> Option<&'a [Value]> {
    v.get(key)?.as_array()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::extract;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"acb"));
    }

    #[test]
    fn facts_roundtrip_through_cache_file() {
        let src = "use std::collections::HashMap; // simlint: allow(unordered-map) — docs\n\
                   pub fn entry() { mid(); }\n\
                   fn mid(v: Option<u8>) -> u8 { v.unwrap() }\n\
                   // simlint: allow(bogus) — not a rule\n";
        let facts = extract("crates/spider-core/src/x.rs", src);
        assert!(!facts.functions.is_empty());
        assert!(!facts.calls.is_empty());
        assert!(!facts.sites.is_empty());
        assert!(!facts.waivers.is_empty());
        assert!(!facts.waiver_diags.is_empty());

        let dir = std::env::temp_dir().join(format!("simlint-cache-test-{}", std::process::id()));
        let path = dir.join("cache.json");
        let hash = fnv1a64(src.as_bytes());
        store(
            &path,
            &[("crates/spider-core/src/x.rs".to_string(), hash, &facts)],
        )
        .unwrap();

        let cache = Cache::load(&path);
        let loaded = cache.lookup("crates/spider-core/src/x.rs", hash).unwrap();
        assert_eq!(loaded, &facts);
        // Stale hash misses.
        assert!(cache
            .lookup("crates/spider-core/src/x.rs", hash ^ 1)
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_stale_cache_degrades_to_cold() {
        let dir = std::env::temp_dir().join(format!("simlint-cache-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        std::fs::write(&path, "{not json").unwrap();
        assert!(Cache::load(&path).entries.is_empty());

        std::fs::write(
            &path,
            "{\"fingerprint\": \"simlint-facts-r0\", \"files\": []}",
        )
        .unwrap();
        assert!(Cache::load(&path).entries.is_empty());

        // Missing file entirely.
        assert!(Cache::load(&dir.join("nope.json")).entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn off_schema_cache_documents_degrade_to_cold() {
        let facts = extract("crates/spider-core/src/x.rs", "pub fn entry() {}\n");
        let dir = std::env::temp_dir().join(format!("simlint-cache-shape-{}", std::process::id()));
        let path = dir.join("cache.json");
        store(&path, &[("x.rs".to_string(), 1, &facts)]).unwrap();
        assert_eq!(Cache::load(&path).entries.len(), 1);
        let good = std::fs::read_to_string(&path).unwrap();
        let line = "\"line\": 1,";
        assert!(good.contains(line), "{good}");
        for bad in [
            format!("{good} extra"),
            good.replacen(line, "\"line\": 1.5,", 1),
            good.replacen(line, "\"line\": -1,", 1),
            "[".repeat(200_000),
        ] {
            std::fs::write(&path, bad).unwrap();
            assert!(Cache::load(&path).entries.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
