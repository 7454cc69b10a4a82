//! Regenerates every table and figure of "Concurrent Wi-Fi for Mobile
//! Users: Analysis and Measurements" (CoNEXT 2011).
//!
//! ```text
//! experiments <target> [--seed N] [--scale K] [--json DIR]
//!             [--workers N] [--cache-dir DIR] [--no-cache]
//!             [--exec process|in-process]
//!
//! targets: fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!          fig13 fig14 table1 table2 table3 table4 density
//!          sensitivity ablation speed adaptive encounters capacity
//!          channel-assignment fleet-contention fleet-identity all
//! ```
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
    match target.as_str() {
        "fig2" => model_figs::fig2(scale.seed),
        "fig3" => model_figs::fig3(),
        "fig4" => model_figs::fig4(),
        "fig5" => join_figs::fig5(scale),
        "fig6" => join_figs::fig6(scale),
        "fig7" => tcp_figs::fig7(scale),
        "fig8" => tcp_figs::fig8(scale),
        "fig9" => tcp_figs::fig9(scale),
        "fig10" | "table2" => eval_figs::table2_fig10(scale),
        "fig11" | "table3" => join_figs::table3_fig11(scale),
        "fig12" => join_figs::fig12(scale),
        "fig13" | "fig14" | "usability" => eval_figs::usability(scale),
        "table1" => tcp_figs::table1(scale),
        "table4" => eval_figs::table4(scale),
        "density" => eval_figs::density(scale),
        "sensitivity" => model_figs::sensitivity_panel(),
        "ablation" => extensions::ablation(scale),
        "speed" => extensions::speed_sweep(scale),
        "adaptive" => extensions::adaptive(scale),
        "encounters" => extensions::encounters(scale),
        "capacity" => extensions::capacity(scale),
        "channel-assignment" => metro_figs::channel_assignment(scale),
        "fleet-contention" => fleet_figs::fleet_contention(scale),
        "fleet-identity" => fleet_figs::fleet_identity(scale),
        "all" => {
            model_figs::fig2(scale.seed);
            model_figs::fig3();
            model_figs::fig4();
            join_figs::fig5(scale);
            join_figs::fig6(scale);
            tcp_figs::fig7(scale);
            tcp_figs::fig8(scale);
            tcp_figs::table1(scale);
            tcp_figs::fig9(scale);
            eval_figs::table2_fig10(scale);
            eval_figs::density(scale);
            join_figs::table3_fig11(scale);
            join_figs::fig12(scale);
            eval_figs::table4(scale);
            eval_figs::usability(scale);
            model_figs::sensitivity_panel();
            extensions::ablation(scale);
            extensions::speed_sweep(scale);
            extensions::adaptive(scale);
            extensions::encounters(scale);
            extensions::capacity(scale);
            metro_figs::channel_assignment(scale);
            fleet_figs::fleet_contention(scale);
            fleet_figs::fleet_identity(scale);
        }
        other => usage(&format!("unknown target {other}")),
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: experiments <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|table1|table2|table3|table4|density|sensitivity|ablation|speed|adaptive|encounters|capacity|channel-assignment|fleet-contention|fleet-identity|all> [--seed N] [--scale K] [--json DIR] [--workers N] [--cache-dir DIR] [--no-cache] [--exec process|in-process]"
    );
    std::process::exit(2);
}
