//! Workspace traversal: find every `.rs` file under a root, extract
//! facts, lint locally, run the call-graph analysis, and aggregate
//! everything into a [`Summary`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::parse::{extract, FileFacts};
use crate::report::Summary;
use crate::rules::{known_crate, lint_facts, sort_violations, Violation};

/// Directories never descended into, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Collect every `.rs` file under `root`, workspace-relative with forward
/// slashes, sorted for deterministic output.
pub fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Every directory under `root/crates/` with no entry in the tier table
/// is a violation: the tier mapping is default-deny so a future crate
/// cannot silently skip enforcement. (There is nothing to waive — the
/// fix is a one-line tier entry in `rules.rs`.)
fn unclassified_crates(root: &Path) -> io::Result<Vec<Violation>> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    if !crates_dir.is_dir() {
        return Ok(out);
    }
    let mut names: Vec<String> = fs::read_dir(&crates_dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .collect();
    names.sort();
    for name in names {
        if !known_crate(&name) {
            out.push(Violation {
                file: format!("crates/{name}"),
                line: 1,
                code: "unclassified-crate".to_string(),
                message: format!(
                    "crate `{name}` has no tier entry; add it to the tier table in \
                     `crates/simlint/src/rules.rs` (the mapping is default-deny)"
                ),
            });
        }
    }
    Ok(out)
}

/// The full pipeline over every `.rs` file under `root`: fact
/// extraction, per-file rules, call-graph reachability, and the
/// default-deny crate-tier check.
pub fn analyze_tree(root: &Path) -> io::Result<Summary> {
    let files = rust_sources(root)?
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            Ok(extract(&rel, &fs::read_to_string(path)?))
        })
        .collect::<io::Result<Vec<FileFacts>>>()?;
    let (mut violations, graph) = lint_facts(&files);
    violations.extend(unclassified_crates(root)?);
    sort_violations(&mut violations);
    Ok(Summary {
        files_checked: files.len(),
        violations,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simlint-walk-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn walks_and_flags_a_seeded_violation() {
        let root = scratch("seeded");
        let src_dir = root.join("crates/spider-core/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("bad.rs"),
            "use std::collections::HashMap;\npub fn f() { Option::<u8>::None.unwrap(); }\n",
        )
        .unwrap();
        // target/ content must be ignored.
        let tgt = root.join("target/debug");
        fs::create_dir_all(&tgt).unwrap();
        fs::write(tgt.join("gen.rs"), "use std::collections::HashMap;\n").unwrap();

        let summary = analyze_tree(&root).unwrap();
        assert_eq!(summary.files_checked, 1);
        let violations = summary.violations;
        let codes: Vec<&str> = violations.iter().map(|v| v.code.as_str()).collect();
        assert!(codes.contains(&"unordered-map"), "{violations:?}");
        assert!(codes.contains(&"panic-path"), "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.file == "crates/spider-core/src/bad.rs"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_crate_dir_is_flagged_known_ones_are_not() {
        let root = scratch("tiers");
        for name in ["spider-core", "rogue"] {
            fs::create_dir_all(root.join("crates").join(name).join("src")).unwrap();
            fs::write(
                root.join("crates").join(name).join("src/lib.rs"),
                "pub fn ok() {}\n",
            )
            .unwrap();
        }
        let violations = analyze_tree(&root).unwrap().violations;
        let tiers: Vec<&Violation> = violations
            .iter()
            .filter(|v| v.code == "unclassified-crate")
            .collect();
        assert_eq!(tiers.len(), 1, "{violations:?}");
        assert_eq!(tiers[0].file, "crates/rogue");
        assert!(tiers[0].message.contains("default-deny"));
        let _ = fs::remove_dir_all(&root);
    }
}
