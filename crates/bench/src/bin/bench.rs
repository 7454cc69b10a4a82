//! The regression-gate CLI: runs bench suites as a first-class process
//! whose exit code reaches the shell (unlike `cargo bench`, which
//! swallows bench-target statuses behind its own).
//!
//! ```text
//! bench list
//! bench <suite> [filter] [--budget-ms N] [--capture out.json]
//! bench <suite> --compare baseline.json \
//!       [--confidence 99] [--min-effect 5] [--resamples 2000] \
//!       [--trajectory target/BENCH_trajectory.jsonl] [--commit abc123]
//! bench selftest [--budget-ms N] ...
//! bench diff BASE.json[,BASE.json...] HEAD.json[,HEAD.json...] \
//!       [--min-effect 5] [--json out.json] [--trajectory ...] [--commit ...]
//! bench trajectory [target/BENCH_trajectory.jsonl] \
//!       [--min-points 3] [--min-rise 5]
//! ```
//!
//! Exit codes: `0` ok / no regression, `1` could not run (bad args,
//! unknown suite, unreadable baseline, a compare run whose filter
//! matched no bench — always a CI failure), `2`
//! regression confirmed at the configured confidence (gates CI), `3`
//! measurement inconclusive (noisy machine; report, don't gate).
//!
//! `selftest` proves the machinery before it is trusted: an interleaved
//! A/A of one identical closure must read "no difference", and an
//! interleaved A/B with a genuinely injected +10 % workload must read
//! "regression". Anything else exits 3 — the machine is too noisy to
//! gate on, and ci.sh reports that loudly instead of flaking.
//!
//! `diff` compares captures instead of measuring: the base captures are
//! pooled into one baseline, and each bench's HEAD captures (two or
//! more, in the order they ran) are judged against it as one run whose
//! halves are the first and second half of the captures. Captures taken
//! in alternation with the base's (B H H B ...) share the machine's slow
//! phases, which one capture and one compare minutes apart do not.

use std::path::Path;

use bench::baseline::Baseline;
use bench::stats::Verdict;
use bench::suites::{self, spin, GATE_SPIN_ITERS};
use bench::timer::{Harness, Options, EXIT_INCONCLUSIVE};

fn usage() {
    eprintln!("usage: bench <list|selftest|trajectory|SUITE> [filter] [--flags]");
    eprintln!("suites:");
    for (name, _) in suites::SUITES {
        eprintln!("  {name}");
    }
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut raw = std::env::args().skip(1).peekable();
    let Some(cmd) = raw.next() else {
        usage();
        return 1;
    };
    // `trajectory` is a log reader with its own tiny flag set; it never
    // touches Options (no harness is built) and never gates (exit 1 only
    // for unusable input).
    if cmd == "trajectory" {
        return trajectory_cmd(raw.collect());
    }
    if cmd == "diff" {
        return diff_cmd(raw);
    }
    let mut opts = Options::from_env();
    if let Err(e) = opts.apply_args(raw) {
        eprintln!("bench: bad arguments: {e}");
        return 1;
    }
    match cmd.as_str() {
        "list" => {
            for (name, _) in suites::SUITES {
                println!("{name}");
            }
            0
        }
        "selftest" => selftest(opts),
        suite_name => {
            let Some(suite) = suites::find(suite_name) else {
                eprintln!("bench: unknown suite {suite_name:?}");
                usage();
                return 1;
            };
            let mut h = match Harness::with_options(suite_name, opts) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("bench: {e}");
                    return 1;
                }
            };
            suite(&mut h);
            h.finish()
        }
    }
}

/// `bench trajectory [file] [--min-points N] [--min-rise PCT]`: join the
/// append-only gate log into per-commit tables and flag monotone drifts
/// too slow for any single-commit gate to see. A reader, not a gate —
/// exits 0 whenever the log was readable (including when drifts are
/// found; acting on a cross-machine, cross-day log is a human call).
fn trajectory_cmd(args: Vec<String>) -> i32 {
    let mut file = std::path::PathBuf::from("target/BENCH_trajectory.jsonl");
    let mut min_points: usize = 3;
    let mut min_rise: f64 = 5.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--min-points" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()).filter(|&n| n >= 2) {
                    Some(n) => min_points = n,
                    None => {
                        eprintln!("bench trajectory: --min-points needs an integer >= 2");
                        return 1;
                    }
                }
            }
            "--min-rise" => {
                i += 1;
                match args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|x| x.is_finite() && *x >= 0.0)
                {
                    Some(x) => min_rise = x,
                    None => {
                        eprintln!("bench trajectory: --min-rise needs a percentage >= 0");
                        return 1;
                    }
                }
            }
            flag if flag.starts_with('-') => {
                eprintln!("bench trajectory: unknown flag {flag}");
                return 1;
            }
            path => file = std::path::PathBuf::from(path),
        }
        i += 1;
    }
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench trajectory: cannot read {}: {e}", file.display());
            return 1;
        }
    };
    let points = match bench::trajectory::parse_lines(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bench trajectory: {}: {e}", file.display());
            return 1;
        }
    };
    if points.is_empty() {
        println!(
            "trajectory: {} is empty — nothing to join yet",
            file.display()
        );
        return 0;
    }
    print!(
        "{}",
        bench::trajectory::report(&points, min_points, min_rise)
    );
    0
}

/// `bench diff BASES HEADS [--flags]`: judge the HEAD captures against
/// the pooled base captures (comma-separated lists of capture files), with
/// the exit codes of a compare run.
fn diff_cmd(args: impl Iterator<Item = String>) -> i32 {
    diff(args).unwrap_or_else(|e| {
        eprintln!("bench diff: {e}");
        1
    })
}

fn diff(mut args: impl Iterator<Item = String>) -> Result<i32, String> {
    let (Some(bases), Some(heads)) = (args.next(), args.next()) else {
        return Err("usage: bench diff BASE.json[,...] HEAD.json[,...] [--flags]".into());
    };
    let mut opts = Options::from_env();
    opts.apply_args(args)?;
    let load = |list: &str| -> Result<Vec<Baseline>, String> {
        list.split(',')
            .map(|p| Baseline::load(Path::new(p)))
            .collect()
    };
    let base_runs = load(&bases)?;
    let head_runs = load(&heads)?;
    if head_runs.len() < 2 {
        return Err("give at least two HEAD captures".into());
    }
    let base = Baseline::pooled(&base_runs)?;
    let head = Baseline::pooled(&head_runs)?;
    if head.target != base.target {
        return Err(format!(
            "base captures are of {:?}, HEAD captures of {:?}",
            base.target, head.target
        ));
    }
    let what = format!(
        "{} HEAD captures against {} pooled base captures",
        head_runs.len(),
        base_runs.len()
    );
    let mut h = Harness::comparing(&head.target, opts, &what, base);
    for bench in &head.benches {
        let runs: Vec<&[f64]> = head_runs
            .iter()
            .filter_map(|r| r.samples_for(&bench.name))
            .collect();
        if runs.len() < 2 {
            eprintln!(
                "warning: {:?} is in fewer than two HEAD captures — skipped",
                bench.name
            );
            continue;
        }
        h.record_runs(&bench.name, &runs, bench.iters);
    }
    Ok(h.finish())
}

/// The A/A + injected-slowdown self-test. Exit 0 when both expectations
/// hold, [`EXIT_INCONCLUSIVE`] when the machine is too noisy to trust.
fn selftest(mut opts: Options) -> i32 {
    if opts.min_effect == 0.0 {
        // A/A at exactly zero guard band has a (1 − confidence) false
        // alarm rate by construction; the self-test wants "is this
        // machine quiet enough to gate at the band ci.sh uses".
        opts.min_effect = 0.05;
    }
    let mut h = match Harness::with_options("selftest", opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bench selftest: {e}");
            return 1;
        }
    };
    let aa = h.bench_pair(
        "aa_identical_closures",
        || spin(GATE_SPIN_ITERS),
        || spin(GATE_SPIN_ITERS),
    );
    let injected = GATE_SPIN_ITERS + GATE_SPIN_ITERS / 10;
    let ab = h.bench_pair(
        "ab_injected_10pct_slowdown",
        || spin(GATE_SPIN_ITERS),
        || spin(injected),
    );
    let _ = h.finish(); // no baseline loaded → always 0; artifacts still written

    let aa_ok = matches!(&aa, Some(c) if c.verdict == Verdict::NoDifference);
    let ab_ok = matches!(&ab, Some(c) if c.verdict == Verdict::Regression);
    if aa_ok && ab_ok {
        println!("selftest: PASS — A/A quiet, injected +10% slowdown detected");
        0
    } else {
        if !aa_ok {
            eprintln!(
                "selftest: A/A of identical closures did not read no-difference: {:?}",
                aa.map(|c| c.verdict)
            );
        }
        if !ab_ok {
            eprintln!(
                "selftest: injected +10% slowdown was not flagged as a regression: {:?}",
                ab.map(|c| c.verdict)
            );
        }
        eprintln!(
            "selftest: INCONCLUSIVE (exit {EXIT_INCONCLUSIVE}) — machine too noisy to gate on"
        );
        EXIT_INCONCLUSIVE
    }
}
