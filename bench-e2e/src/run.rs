//! What every workload's run shares: its settings, the driver that
//! sequences set-ups and passes, the machine canary and the outcome.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics::Metric;
use crate::summary;
use crate::trace::Span;
use crate::workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed passes in an untraced run. A traced run alternates
/// untraced and traced passes and makes at least two of each.
const MIN_PASSES: usize = 3;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed of op 0; op `k` uses `seed + k`.
    pub seed: u64,
    /// How long the timed passes may take.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch space for caches; the run removes it when done.
    pub work_dir: PathBuf,
    /// The `experiments` binary the campaign workloads run.
    pub experiments: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops timed.
    pub attempted: u64,
    /// Of which failed: panicked, exited non-zero, or produced output
    /// whose digest differs from the reference.
    pub failed: u64,
    /// Why the outputs are not correct, beyond failed ops (a golden
    /// digest mismatch, say). Empty on a correct run.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Raw samples behind the metrics, by name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// No op failed and every digest matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// A workload's run, as [`drive`] sequences it.
pub trait Workbench {
    /// One set-up: everything before a timed op can run. The first call
    /// also fixes the reference outputs the passes are checked against.
    fn setup(&mut self) -> Result<(), String>;
    /// One timed pass, traced or not.
    fn pass(&mut self, traced: bool) -> Result<(), String>;
}

/// Set-up times and canary readings of a driven run.
#[derive(Debug, Default)]
pub struct Driven {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// [`spin_ns`] before each pass.
    pub spin_ns: Vec<f64>,
}

/// Run `bench`: a set-up, then timed passes until another pass, at the
/// median length so far, would take the passes past `cfg.seconds` (at
/// least [`MIN_PASSES`]). A traced run alternates untraced and traced
/// passes, so both see the same machine, and makes at least two of each.
///
/// The other set-ups are spread through the passes, at each third of the
/// run. On the shared VM this benchmark was sized on, other tenants' load
/// comes in bursts of seconds; three set-ups back to back fell in the
/// same burst often enough that two sets of ten `lab_tcp` runs read
/// `setup_s` medians of 0.15 s and 0.22 s.
pub fn drive(cfg: &RunConfig, bench: &mut impl Workbench) -> Result<Driven, String> {
    let mut driven = Driven::default();
    driven.setup_s.push(timed(|| bench.setup())?);
    let min_passes = if cfg.trace {
        2 * MIN_PASSES - 2
    } else {
        MIN_PASSES
    };
    let mut walls: Vec<f64> = Vec::new();
    loop {
        driven.spin_ns.push(spin_ns());
        let traced = cfg.trace && walls.len() % 2 == 1;
        let wall = timed(|| bench.pass(traced))?;
        walls.push(wall);
        let passed: f64 = walls.iter().sum();
        let due = driven.setup_s.len() as f64 * cfg.seconds / SETUP_REPEATS as f64;
        if driven.setup_s.len() < SETUP_REPEATS && passed >= due {
            driven.setup_s.push(timed(|| bench.setup())?);
        }
        let typical = summary::median(&walls).unwrap_or(wall);
        if walls.len() >= min_passes && passed + typical > cfg.seconds {
            break;
        }
    }
    while driven.setup_s.len() < SETUP_REPEATS {
        driven.setup_s.push(timed(|| bench.setup())?);
    }
    Ok(driven)
}

/// Seconds `f` took.
fn timed(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let t = Instant::now();
    f()?;
    Ok(t.elapsed().as_secs_f64())
}

/// The machine canary: ns for one `bench::suites::spin(GATE_SPIN_ITERS)`.
/// Its work never changes, so it moving means the machine got slower or
/// busier, not the program.
pub fn spin_ns() -> f64 {
    let t = Instant::now();
    black_box(bench::suites::spin(black_box(
        bench::suites::GATE_SPIN_ITERS,
    )));
    t.elapsed().as_nanos() as f64
}

/// `op_ms_p50` and `op_ms_p90`: that percentile of each pass's op
/// times, summarized over passes by their faster quartile
/// ([`Metric::fast_quartile_of`]). The percentile is taken within a pass
/// so a burst of outside load, which slows whole passes, stays out of
/// the tail.
pub fn op_ms_metrics(per_pass: &[Vec<f64>]) -> Vec<Metric> {
    let ops = per_pass.iter().map(Vec::len).sum();
    [("op_ms_p50", 0.5), ("op_ms_p90", 0.9)]
        .into_iter()
        .filter_map(|(name, q)| {
            let passes: Vec<f64> = per_pass
                .iter()
                .filter_map(|ops| summary::percentile(&summary::sorted(ops), q))
                .collect();
            let mut m = Metric::fast_quartile_of(name, "ms", &passes, false)?;
            if let Some(s) = m.spread.as_mut() {
                s.n = ops;
            }
            Some(m)
        })
        .collect()
}

/// `sim_rate`: simulated client-seconds per host second of each pass,
/// summarized by the faster quartile.
pub fn sim_rate_metric(pass_rates: &[f64]) -> Option<Metric> {
    Metric::fast_quartile_of("sim_rate", "s/s", pass_rates, true)
}

/// `trace.overhead_ratio`: the traced passes' `sim_rate` over the
/// untraced passes' of the same run.
pub fn overhead_ratio(traced_rates: &[f64], plain_rates: &[f64]) -> Option<Metric> {
    let traced = sim_rate_metric(traced_rates)?.value;
    let plain = sim_rate_metric(plain_rates)?.value;
    (plain > 0.0).then(|| Metric::exact("trace.overhead_ratio", "ratio", traced / plain))
}

/// The tail percentile the sample count supports, as a table note.
pub fn tail_note(op_ms: &[f64]) -> Option<String> {
    let level = summary::tail_level(op_ms.len())?;
    let value = summary::percentile(&summary::sorted(op_ms), level / 100.0)?;
    Some(format!(
        "op_ms tail: p{level} = {value:.4} ms over {} ops",
        op_ms.len()
    ))
}

/// The median self time of the spans called `span`, as `name` in `unit`
/// (`ns_per_unit` ns each).
pub fn span_metric(
    groups: &[(&'static str, Vec<u64>)],
    span: &str,
    name: &str,
    unit: &'static str,
    ns_per_unit: f64,
) -> Option<Metric> {
    let (_, ns) = groups.iter().find(|(n, _)| *n == span)?;
    let scaled: Vec<f64> = ns.iter().map(|&x| x as f64 / ns_per_unit).collect();
    Metric::median_of(name, unit, &scaled)
}

/// Remove and re-create `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_metrics_take_the_fast_quartile_of_per_pass_percentiles() {
        let passes = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 3.0, 4.0],
            vec![3.0, 4.0, 5.0],
            // One pass slowed by a burst of outside load.
            vec![30.0, 40.0, 50.0],
        ];
        let m = op_ms_metrics(&passes);
        assert_eq!(m.len(), 2);
        // Per-pass medians 2, 3, 4, 40: the faster quartile is 2.25.
        assert_eq!(m[0].value, 2.25);
        let s = m[0].spread.expect("spread");
        assert_eq!(s.n, 12);
        assert_eq!((s.q1, s.q3), (2.25, 31.0));
        // Per-pass p90s 2.8, 3.8, 4.8, 48.
        assert!((m[1].value - 3.05).abs() < 1e-9, "p90 {}", m[1].value);
        assert!(op_ms_metrics(&[]).is_empty());
        let ratio = overhead_ratio(&[90.0, 90.0], &[100.0, 100.0]).expect("rates");
        assert!((ratio.value - 0.9).abs() < 1e-12);
    }

    /// Records the order of calls; each pass takes at least 10 ms.
    struct Script {
        calls: Vec<&'static str>,
    }

    impl Workbench for Script {
        fn setup(&mut self) -> Result<(), String> {
            self.calls.push("setup");
            Ok(())
        }
        fn pass(&mut self, traced: bool) -> Result<(), String> {
            self.calls.push(if traced { "traced" } else { "pass" });
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(())
        }
    }

    fn config(seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload: Workload::LabTcp,
            seed: 1,
            seconds,
            trace,
            work_dir: PathBuf::new(),
            experiments: PathBuf::new(),
        }
    }

    #[test]
    fn drive_spreads_setups_and_keeps_the_minimum_passes() {
        let mut s = Script { calls: vec![] };
        let d = drive(&config(0.0, false), &mut s).expect("driven");
        assert_eq!(s.calls, ["setup", "pass", "setup", "pass", "setup", "pass"]);
        assert_eq!((d.setup_s.len(), d.spin_ns.len()), (3, 3));

        let mut s = Script { calls: vec![] };
        drive(&config(0.1, false), &mut s).expect("driven");
        let passes = s.calls.iter().filter(|c| **c == "pass").count();
        assert!((3..=11).contains(&passes), "{:?}", s.calls);
        let setups: Vec<usize> = (0..s.calls.len())
            .filter(|&i| s.calls[i] == "setup")
            .collect();
        assert_eq!(setups.len(), 3);
        assert!(setups[1] > 1 && setups[2] > setups[1] + 1, "{:?}", s.calls);

        let mut s = Script { calls: vec![] };
        drive(&config(0.0, true), &mut s).expect("driven");
        let traced = s.calls.iter().filter(|c| **c == "traced").count();
        assert_eq!((traced, s.calls.len() - traced - 3), (2, 2));
    }
}
