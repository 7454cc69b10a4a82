//! Regenerates every table and figure of "Concurrent Wi-Fi for Mobile
//! Users: Analysis and Measurements" (CoNEXT 2011).
//!
//! ```text
//! experiments <target> [--seed N] [--scale K] [--json DIR]
//!             [--workers N] [--cache-dir DIR] [--no-cache]
//!             [--exec process|in-process]
//! ```
//!
//! A target is one of the paper's tables or figures (`fig5`, `table2`,
//! …) or an extension experiment, each an entry of the `TARGETS` table,
//! or `all`, which runs every entry in the table's order. A bad target
//! prints the full list.
//!
//! `--scale K` multiplies run lengths by `K` (1 = quick pass; the paper's
//! 30–60 minute drives correspond to roughly `--scale 4`).
//!
//! `--exec process` runs uncached shards in worker OS processes (this
//! same binary, re-invoked with the hidden `--worker` flag) instead of
//! threads: a crashed shard is retried on a respawned worker rather than
//! taking the whole run down. Output is byte-identical either way.
//!
//! Simulation shards run through the campaign orchestrator: results are
//! cached by content hash under `target/campaign` (override with
//! `--cache-dir`, bypass with `--no-cache`), so re-running an unchanged
//! target replays from cache with byte-identical output. `--workers N`
//! caps the worker pool (default: all cores); progress/ETA lines go to
//! stderr, figure text to stdout.
//!
//! Each setting may be given once (`--cache-dir` and `--no-cache` are
//! one setting); a repeat, like a bad value, is a usage error (exit 2).

mod common;
mod eval_figs;
mod extensions;
mod fleet_figs;
mod join_figs;
mod metro_figs;
mod model_figs;
mod tcp_figs;

use common::{Scale, DEFAULT_SEED};

/// A target: the names that select it and what it runs.
type Target = (&'static [&'static str], fn(Scale));

/// Every target in `all`'s order. Dispatch, `all` and the usage line all
/// read this table.
const TARGETS: &[Target] = &[
    (&["fig2"], |scale| model_figs::fig2(scale.seed)),
    (&["fig3"], |_| model_figs::fig3()),
    (&["fig4"], |_| model_figs::fig4()),
    (&["fig5"], join_figs::fig5),
    (&["fig6"], join_figs::fig6),
    (&["fig7"], tcp_figs::fig7),
    (&["fig8"], tcp_figs::fig8),
    (&["table1"], tcp_figs::table1),
    (&["fig9"], tcp_figs::fig9),
    (&["fig10", "table2"], eval_figs::table2_fig10),
    (&["density"], eval_figs::density),
    (&["fig11", "table3"], join_figs::table3_fig11),
    (&["fig12"], join_figs::fig12),
    (&["table4"], eval_figs::table4),
    (&["fig13", "fig14", "usability"], eval_figs::usability),
    (&["sensitivity"], |_| model_figs::sensitivity_panel()),
    (&["ablation"], extensions::ablation),
    (&["speed"], extensions::speed_sweep),
    (&["adaptive"], extensions::adaptive),
    (&["encounters"], extensions::encounters),
    (&["capacity"], extensions::capacity),
    (&["channel-assignment"], metro_figs::channel_assignment),
    (&["fleet-contention"], fleet_figs::fleet_contention),
    (&["fleet-identity"], fleet_figs::fleet_identity),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Worker mode: speak the fleet protocol on stdin/stdout and nothing
    // else. Checked before any output — stdout belongs to the protocol.
    if args.first().map(String::as_str) == Some("--worker") {
        let fingerprint = campaign::hash::code_fingerprint();
        match fleet::worker::serve(std::io::stdin(), std::io::stdout(), &fingerprint) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("worker: protocol error: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut target = String::from("all");
    let mut scale = Scale {
        factor: 1,
        seed: DEFAULT_SEED,
    };
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let setting = match arg {
            "--no-cache" => "--cache-dir",
            t if !t.starts_with('-') => "target",
            flag => flag,
        };
        if let Some((_, prev)) = given.iter().find(|(s, _)| *s == setting) {
            usage(&format!(
                "{arg} after {prev}: each setting may be given once"
            ));
        }
        given.push((setting, arg));
        match arg {
            "--seed" => {
                i += 1;
                scale.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--scale" => {
                i += 1;
                scale.factor = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage("--scale needs a positive integer"));
            }
            "--json" => {
                i += 1;
                let dir = std::path::PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| usage("--json needs a directory")),
                );
                std::fs::create_dir_all(&dir)
                    .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", dir.display())));
                let _ = common::JSON_DIR.set(Some(dir));
            }
            "--workers" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--workers needs a positive integer"));
                let _ = common::WORKERS.set(n);
            }
            "--cache-dir" => {
                i += 1;
                let dir = std::path::PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| usage("--cache-dir needs a directory")),
                );
                let _ = common::CACHE_DIR.set(Some(dir));
            }
            "--no-cache" => {
                let _ = common::CACHE_DIR.set(None);
            }
            "--exec" => {
                i += 1;
                let mode = match args.get(i).map(String::as_str) {
                    Some("process") => common::ExecChoice::Process,
                    Some("in-process") => common::ExecChoice::InProcess,
                    _ => usage("--exec needs 'process' or 'in-process'"),
                };
                let _ = common::EXEC.set(mode);
            }
            t if !t.starts_with('-') => target = t.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    println!(
        "Spider (CoNEXT 2011) reproduction — seed {} scale {}",
        scale.seed, scale.factor
    );
    if target == "all" {
        for (_, run) in TARGETS {
            run(scale);
        }
        return;
    }
    match TARGETS
        .iter()
        .find(|(names, _)| names.contains(&target.as_str()))
    {
        Some((_, run)) => run(scale),
        None => usage(&format!("unknown target {target}")),
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    let names: Vec<&str> = TARGETS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .collect();
    eprintln!(
        "usage: experiments <{}|all> [--seed N] [--scale K] [--json DIR] [--workers N] [--cache-dir DIR] [--no-cache] [--exec process|in-process]",
        names.join("|")
    );
    std::process::exit(2);
}
