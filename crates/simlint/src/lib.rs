//! # simlint
//!
//! The workspace's in-tree determinism & panic-path linter. The campaign
//! cache (`crates/campaign`) is content-addressed on the assumption that
//! *same code + same `WorldConfig` ⇒ byte-identical `RunRecord`*; simlint
//! is the static gate that keeps that assumption true:
//!
//! * no `HashMap`/`HashSet`/`RandomState` state in simulation crates
//!   (iteration order is randomized per process),
//! * no wall-clock reads (`SystemTime`, `std::time`, `Instant::now`) in
//!   simulation crates,
//! * no `unwrap()`/`expect()`/`panic!` panic paths in library crates
//!   outside `#[cfg(test)]`,
//! * no `partial_cmp` float ordering, no `std::env` reads, and no
//!   entropy-seeded randomness in simulation crates,
//! * no **public** sim/lib function that can *transitively* reach an
//!   unwaived panic site (`panic-reach`, with a rendered witness call
//!   path in the diagnostic),
//! * no crate directory without an explicit tier entry
//!   (`unclassified-crate` — the tier mapping is default-deny).
//!
//! Every surviving exception must carry an in-diff justification:
//! `simlint: allow(<rule>)` followed by a mandatory reason, written as a
//! plain (non-doc) comment on the offending line or the line above.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p simlint --release
//! ```
//!
//! Diagnostics are rustc-style (`file:line: error[rule]: message`) on
//! stderr; a machine-readable summary lands at `target/SIMLINT.json`
//! (violations plus call-graph shape and reachability findings); the
//! exit code is 0 clean / 1 violations / 2 usage or IO error. `ci.sh`
//! runs it as the first gate, before the build.
//!
//! The implementation's one dependency is `sim-engine`, for the shared
//! JSON string quoter (`sim_engine::json::quote`). The rest is in-crate: a
//! hand-rolled lexer ([`lexer`]) that understands raw strings, char literals vs
//! lifetimes, and nested block comments; a lightweight item parser
//! ([`parse`]) that recognizes `fn`/`impl`/`trait`/`mod` items, call
//! sites, and method receivers (so a *definition* of `partial_cmp` is
//! not a call, and `unwrap` in a doc comment is not a panic); a tiered
//! rule engine ([`rules`]); a workspace call graph with panic
//! reachability ([`graph`]); and a tree walker ([`walk`]) that ties the
//! pipeline together in one pass: read, extract, lint, graph, report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::{json_summary, Summary};
pub use rules::Violation;
pub use walk::analyze_tree;

/// Lint one file's source text as if it lived at `rel` in the workspace
/// (single-file call graph included). The fixture harness and the rule
/// tests use this; the CLI goes through [`analyze_tree`].
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    rules::lint_facts(&[parse::extract(rel, source)]).0
}
