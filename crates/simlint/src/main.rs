//! The `simlint` CLI: lint the workspace (or `--root <dir>`), print
//! rustc-style diagnostics to stderr, write the JSON summary, exit
//! non-zero on any violation.
//!
//! ```text
//! simlint [--root <dir>] [--json <path>] [--quiet]
//! ```
//!
//! Defaults: root = the workspace this binary was built in (its own
//! manifest dir's grandparent), json = `<root>/target/SIMLINT.json`.
//!
//! # Exit-code contract
//!
//! Mirrors the bench binary's contract so scripts can branch without
//! parsing output:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | tree is clean |
//! | 1 | at least one violation (diagnostics on stderr) |
//! | 2 | usage or IO error (bad flag, unreadable root, unwritable json) |

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{analyze_tree, json_summary};

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    // The workspace root is two levels up from this crate's manifest —
    // baked in at compile time, which is exactly right for an in-tree tool.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .ok_or_else(|| "cannot locate workspace root".to_string())?;
    let mut args = Args {
        root: default_root,
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                );
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--json needs a value".to_string())?,
                ));
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: simlint [--root <dir>] [--json <path>] [--quiet]\n\
                     exit codes: 0 clean, 1 violations, 2 usage/IO error"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let summary =
        analyze_tree(&args.root).map_err(|e| format!("walking {}: {e}", args.root.display()))?;
    for v in &summary.violations {
        eprintln!("{}", v.render());
    }
    let json_path = args
        .json
        .unwrap_or_else(|| args.root.join("target/SIMLINT.json"));
    if let Some(dir) = json_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&json_path, json_summary(&summary))
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    if !args.quiet {
        let graph_line = format!(
            "graph: {} fns, {} edges, {} panic sources",
            summary.graph.functions, summary.graph.edges, summary.graph.panic_sources
        );
        if summary.is_clean() {
            println!(
                "simlint: {} files checked, 0 errors; {graph_line} ({})",
                summary.files_checked,
                json_path.display()
            );
        } else {
            eprintln!(
                "simlint: {} files checked, {} error(s); {graph_line}; see {}",
                summary.files_checked,
                summary.violations.len(),
                json_path.display()
            );
        }
    }
    Ok(summary.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("simlint: error: {msg}");
            ExitCode::from(2)
        }
    }
}
