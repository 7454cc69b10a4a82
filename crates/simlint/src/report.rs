//! The machine-readable summary written to `target/SIMLINT.json`.
//!
//! Written with `format!` and `sim_engine::json::quote`; the schema is
//! small and stable:
//!
//! ```json
//! {
//!   "files_checked": 115,
//!   "errors": 0,
//!   "violations": [
//!     {"file": "…", "line": 12, "rule": "unordered-map", "message": "…"}
//!   ],
//!   "call_graph": {"functions": 2481, "edges": 7010, "public_functions": 1024},
//!   "reachability": {
//!     "panic_sources": 0,
//!     "flagged": [
//!       {"function": "World::step", "file": "…", "line": 40,
//!        "witness": "World::step (…:40) -> … -> unwrap() at …:97",
//!        "waived": true}
//!     ]
//!   }
//! }
//! ```
//!
//! `reachability.flagged` includes **waived** findings on purpose: the
//! artifact is the audit trail for exceptions, not just failures.

use sim_engine::json::quote;

use crate::graph::GraphStats;
use crate::rules::Violation;

/// Aggregate lint outcome for one run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// Everything flagged, sorted by file then line.
    pub violations: Vec<Violation>,
    /// Call-graph shape + reachability findings.
    pub graph: GraphStats,
}

impl Summary {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Render `summary` as the `target/SIMLINT.json` document.
pub fn json_summary(summary: &Summary) -> String {
    let mut out = String::with_capacity(1024 + summary.violations.len() * 128);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"files_checked\": {},\n  \"errors\": {},\n  \"violations\": [",
        summary.files_checked,
        summary.violations.len()
    ));
    for (i, v) in summary.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            quote(&v.file),
            v.line,
            quote(&v.code),
            quote(&v.message)
        ));
    }
    if !summary.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"call_graph\": {{\"functions\": {}, \"edges\": {}, \"public_functions\": {}}},\n",
        summary.graph.functions, summary.graph.edges, summary.graph.public_functions
    ));
    out.push_str(&format!(
        "  \"reachability\": {{\"panic_sources\": {}, \"flagged\": [",
        summary.graph.panic_sources
    ));
    for (i, e) in summary.graph.flagged.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"function\": {}, \"file\": {}, \"line\": {}, \"witness\": {}, \"waived\": {}}}",
            quote(&e.function),
            quote(&e.file),
            e.line,
            quote(&e.witness),
            e.waived
        ));
    }
    if !summary.graph.flagged.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ReachEntry;
    use crate::rules::Violation;

    #[test]
    fn clean_summary_serializes() {
        let s = Summary {
            files_checked: 3,
            ..Summary::default()
        };
        assert_eq!(
            json_summary(&s),
            "{\n  \"files_checked\": 3,\n  \"errors\": 0,\n  \"violations\": [],\n  \
             \"call_graph\": {\"functions\": 0, \"edges\": 0, \"public_functions\": 0},\n  \
             \"reachability\": {\"panic_sources\": 0, \"flagged\": []}\n}\n"
        );
    }

    #[test]
    fn violations_escape_cleanly() {
        let s = Summary {
            files_checked: 1,
            violations: vec![Violation {
                file: "a.rs".to_string(),
                line: 9,
                code: "panic-path".to_string(),
                message: "uses `unwrap()` on \"stuff\"".to_string(),
            }],
            ..Summary::default()
        };
        let json = json_summary(&s);
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\\\"stuff\\\""));
        assert!(json.contains("\"line\": 9"));
    }

    #[test]
    fn flagged_entries_serialize_with_witness() {
        let s = Summary {
            files_checked: 1,
            graph: GraphStats {
                functions: 2,
                edges: 1,
                public_functions: 1,
                panic_sources: 1,
                flagged: vec![ReachEntry {
                    function: "World::step".to_string(),
                    file: "crates/spider-core/src/world.rs".to_string(),
                    line: 40,
                    witness: "World::step (w.rs:40) -> unwrap() at w.rs:97".to_string(),
                    waived: true,
                }],
            },
            ..Summary::default()
        };
        let json = json_summary(&s);
        assert!(json.contains("\"panic_sources\": 1"));
        assert!(json.contains("\"function\": \"World::step\""));
        assert!(json.contains("\"waived\": true"));
        assert!(json.contains("unwrap() at w.rs:97"));
    }
}
