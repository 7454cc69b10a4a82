//! The end-to-end benchmark's command line.
//!
//! ```text
//! bench-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! bench-e2e compare DIR_A DIR_B
//! bench-e2e bless
//! bench-e2e list
//! ```
//!
//! A run prints the hardware header, a table of its metrics with their
//! quartiles across passes, and as its last line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! carrying the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The full result — raw samples, hardware,
//! spans — goes to `DIR/<workload>-<seed>[.trace].json`, `DIR`
//! defaulting to `bench-e2e/` in the cargo target directory.
//!
//! `compare` reads two directories of untraced results and exits 2 when
//! a metric is worse than `BENCHMARK.json` allows, 3 when the spread is
//! too wide to tell, 0 otherwise. `bless` regenerates `golden.json`.
//! Exit code 1 means the command could not run.

use std::path::{Path, PathBuf};

use bench_e2e::golden::{Expected, Golden};
use bench_e2e::hw::Hardware;
use bench_e2e::metrics::{END_TO_END, PER_LAYER};
use bench_e2e::run::{Outcome, RunConfig};
use bench_e2e::workloads::{Workload, ALL, DEFAULT_SEED};
use bench_e2e::{campaign, compare, json, trace, world};

fn main() {
    std::process::exit(match cli() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            1
        }
    });
}

fn usage() -> String {
    let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: bench-e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      bench-e2e compare DIR_A DIR_B | bless | list",
        names.join("|")
    )
}

fn cli() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match args.get(1..) {
            Some([a, b]) => compare_cmd(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("bless") if args.len() == 1 => bless(),
        Some("list") if args.len() == 1 => {
            for w in ALL {
                println!("{}", w.name());
            }
            Ok(0)
        }
        _ => run_cmd(&args),
    }
}

/// The directory this binary was built into, which also holds the
/// `experiments` binary.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "this binary has no parent directory".to_string())
}

/// `bench-e2e/` in the cargo target directory.
fn default_out() -> Result<PathBuf, String> {
    let exe_dir = exe_dir()?;
    let target = exe_dir.parent().unwrap_or(&exe_dir);
    Ok(target.join("bench-e2e"))
}

fn run_config(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunConfig, String> {
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        work_dir: out.join(format!("work-{}-{}", workload.name(), std::process::id())),
        experiments: exe_dir()?.join("experiments"),
    })
}

fn run_cmd(args: &[String]) -> Result<i32, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 12.0;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let out = match out {
        Some(dir) => dir,
        None => default_out()?,
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let cfg = run_config(workload, seed, seconds, trace, &out)?;

    let hw = Hardware::probe();
    println!("{}", hw.header());
    println!(
        "bench-e2e {}  seed {seed}  {seconds} s  {}",
        workload.name(),
        if trace { "traced" } else { "untraced" }
    );
    let outcome = match workload {
        Workload::CampaignCold | Workload::CampaignWarm => campaign::run(&cfg)?,
        _ => world::run(&cfg)?,
    };
    for m in &outcome.metrics {
        println!("{}", m.row());
    }
    for p in &outcome.problems {
        println!("  problem: {p}");
    }
    let suffix = if trace { ".trace" } else { "" };
    let file = out.join(format!("{}-{seed}{suffix}.json", workload.name()));
    std::fs::write(&file, result_json(&cfg, &hw, &outcome))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "  {} of {} ops failed; result written to {}",
        outcome.failed,
        outcome.attempted,
        file.display()
    );
    println!(
        "{}",
        result_line(&outcome, if trace { &PER_LAYER } else { &END_TO_END })?
    );
    Ok(0)
}

/// The result line: exactly the listed metrics, by name, value and unit.
fn result_line(outcome: &Outcome, listed: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in listed {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == *name && m.unit == *unit)
            .ok_or_else(|| format!("the run did not measure {name}"))?;
        metrics.push(format!("{}:{}", json::quote(name), m.to_line_json()));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

/// The full result file.
fn result_json(cfg: &RunConfig, hw: &Hardware, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json::quote(&m.name), m.to_json()))
        .collect();
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, xs)| format!("{}:{}", json::quote(name), json::numbers(xs)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| json::quote(p)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"hardware\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"problems\":[{}],\n\
         \"metrics\":{{{}}},\n\"samples\":{{{}}},\n\"spans\":{}}}\n",
        json::quote(cfg.workload.name()),
        cfg.seed,
        json::number(cfg.seconds),
        cfg.trace,
        hw.to_json(),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        problems.join(","),
        metrics.join(",\n"),
        samples.join(",\n"),
        trace::spans_json(&outcome.spans)
    )
}

fn compare_cmd(a: &Path, b: &Path) -> Result<i32, String> {
    let bounds = compare::bounds(compare::BENCHMARK_JSON)?;
    let rows = compare::compare(&compare::load_set(a)?, &compare::load_set(b)?, &bounds);
    if rows.is_empty() {
        return Err(format!(
            "no untraced results in common between {} and {}",
            a.display(),
            b.display()
        ));
    }
    println!("A = {}\nB = {}", a.display(), b.display());
    print!("{}", compare::render(&rows));
    Ok(compare::exit_code(&rows))
}

/// Recompute every workload's digests at the default seed and write
/// `golden.json` next to this package's manifest.
fn bless() -> Result<i32, String> {
    let mut golden = Golden::default();
    let out = default_out()?;
    for w in ALL {
        let expected = match w {
            Workload::CampaignCold | Workload::CampaignWarm => Expected {
                output: campaign::reference_digest(&run_config(
                    w,
                    DEFAULT_SEED,
                    1.0,
                    false,
                    &out,
                )?)?,
                op0: None,
            },
            _ => {
                let (output, op0) = world::reference_digests(w, DEFAULT_SEED)?;
                Expected {
                    output,
                    op0: Some(op0),
                }
            }
        };
        println!("{:<14} {:016x}", w.name(), expected.output);
        golden.set(w, expected);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    std::fs::write(&path, golden.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}; rebuild to check against it", path.display());
    Ok(0)
}
