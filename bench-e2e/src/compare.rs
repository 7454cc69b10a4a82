//! `bench-e2e compare DIR_A DIR_B`: two sets of untraced result files,
//! judged against the bounds in `BENCHMARK.json`.
//!
//! For every (workload, end-to-end metric) both sets have, it prints
//! each set's median and quartiles across runs, the change of B against
//! A, and a verdict:
//! * `ok` — B is no worse than A by more than the bound;
//! * `REGRESSION` — B is worse by more than the bound;
//! * `unresolved` — A's own spread is wider than the bound, so the sets
//!   cannot tell, unless every run of B beats every run of A (`better`).
//!
//! `setup_s` is judged by its median alone, as `BENCHMARK.json`'s bounds
//! are: a set-up is one short span of a run, so its spread across runs
//! is the host's. It may also move by 20 ms however small it is.

use std::path::Path;

use crate::json::{self, Value};
use crate::summary;

/// The root `BENCHMARK.json`, which fixes each metric's bound.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Absolute slack for `setup_s`, seconds.
const SETUP_FLOOR_S: f64 = 0.020;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end bounds listed in `BENCHMARK.json` text.
pub fn bounds(text: &str) -> Result<Vec<Bound>, String> {
    let root = json::parse(text)?;
    let list = root
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no \"end_to_end\" list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let lower_is_better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: \"better\" is neither lower nor higher")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One metric value from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The run's value.
    pub value: f64,
}

/// Every metric value of every untraced result file in `dir`.
pub fn load_set(dir: &Path) -> Result<Vec<Sample>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut samples = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if root.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            root.get("workload").and_then(Value::as_str),
            root.get("metrics").and_then(Value::as_object),
        ) else {
            continue;
        };
        for (metric, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                samples.push(Sample {
                    workload: workload.to_string(),
                    metric: metric.clone(),
                    value,
                });
            }
        }
    }
    Ok(samples)
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regression,
    /// A's spread is wider than the bound.
    Unresolved,
    /// A's spread is wider than the bound, but every B run beats every A run.
    Better,
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `(q1, median, q3, runs)` of set A.
    pub a: (f64, f64, f64, usize),
    /// The same for set B.
    pub b: (f64, f64, f64, usize),
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    /// The share allowed.
    pub allowed: f64,
    /// The judgement.
    pub verdict: Verdict,
}

fn values(set: &[Sample], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|s| s.workload == workload && s.metric == metric)
        .map(|s| s.value)
        .collect()
}

/// Compare set `b` against set `a` on every bounded metric both have.
pub fn compare(a: &[Sample], b: &[Sample], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = a.iter().map(|s| s.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        for bound in bounds {
            let (va, vb) = (
                values(a, workload, &bound.name),
                values(b, workload, &bound.name),
            );
            let (Some((a1, am, a3)), Some((b1, bm, b3))) =
                (summary::quartiles(&va), summary::quartiles(&vb))
            else {
                continue;
            };
            if am == 0.0 {
                continue;
            }
            let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
            let worse_by = sign * (bm - am) / am.abs();
            let setup = bound.name == "setup_s";
            let allowed = match setup {
                true => bound.bound.max(SETUP_FLOOR_S / am.abs()),
                false => bound.bound,
            };
            let spread = (a3 - a1) / am.abs();
            let b_beats_all = |x: f64| va.iter().all(|&y| sign * (x - y) < 0.0);
            let verdict = if spread > allowed && !setup {
                if vb.iter().all(|&x| b_beats_all(x)) {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by > allowed {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: bound.name.clone(),
                a: (a1, am, a3, va.len()),
                b: (b1, bm, b3, vb.len()),
                worse_by,
                allowed,
                verdict,
            });
        }
    }
    rows
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>30} {:>30} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "bound"
    );
    let cell = |(q1, m, q3, n): (f64, f64, f64, usize)| format!("{m:.4} [{q1:.4}, {q3:.4}] {n}");
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<12} {:>30} {:>30} {:>7.1}% {:>6.1}%  {:?}\n",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            r.worse_by * 100.0,
            r.allowed * 100.0,
            r.verdict
        ));
    }
    out
}

/// Exit code for a comparison: 2 on any regression, else 3 if anything
/// is unresolved, else 0.
pub fn exit_code(rows: &[Row]) -> i32 {
    if rows.iter().any(|r| r.verdict == Verdict::Regression) {
        2
    } else if rows.iter().any(|r| r.verdict == Verdict::Unresolved) {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, values: &[f64]) -> Vec<Sample> {
        values
            .iter()
            .map(|&value| Sample {
                workload: workload.to_string(),
                metric: metric.to_string(),
                value,
            })
            .collect()
    }

    fn bound(name: &str, lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_string(),
            lower_is_better,
            bound,
        }
    }

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn identical_sets_pass_and_exit_zero() {
        let a = set("w", "sim_rate", &STEADY);
        let rows = compare(&a, &a, &[bound("sim_rate", false, 0.1)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].worse_by, 0.0);
        assert_eq!(exit_code(&rows), 0);
    }

    #[test]
    fn a_slower_set_beyond_the_bound_is_a_regression() {
        let a = set("w", "sim_rate", &STEADY);
        let slow: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        let b = set("w", "sim_rate", &slow);
        let rows = compare(&a, &b, &[bound("sim_rate", false, 0.1)]);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
        assert_eq!(exit_code(&rows), 2);
        // Lower-is-better metrics regress upwards.
        let fast = set("w", "op_ms_p50", &slow);
        let base = set("w", "op_ms_p50", &STEADY);
        let rows = compare(&fast, &base, &[bound("op_ms_p50", true, 0.1)]);
        assert_eq!(rows[0].verdict, Verdict::Regression);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_run() {
        let noisy = set("w", "op_ms_p50", &[50.0, 100.0, 150.0, 60.0, 140.0]);
        let b = set("w", "op_ms_p50", &[120.0, 125.0, 130.0]);
        let rows = compare(&noisy, &b, &[bound("op_ms_p50", true, 0.1)]);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(exit_code(&rows), 3);
        let quick = set("w", "op_ms_p50", &[10.0, 11.0, 12.0]);
        let rows = compare(&noisy, &quick, &[bound("op_ms_p50", true, 0.1)]);
        assert_eq!(rows[0].verdict, Verdict::Better);
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        let a = set("w", "setup_s", &[0.010, 0.010, 0.010]);
        let b = set("w", "setup_s", &[0.025, 0.025, 0.025]);
        let rows = compare(&a, &b, &[bound("setup_s", true, 0.25)]);
        assert_eq!(
            rows[0].verdict,
            Verdict::Ok,
            "15 ms is inside the 20 ms floor"
        );
        let c = set("w", "setup_s", &[0.040, 0.040, 0.040]);
        let rows = compare(&a, &c, &[bound("setup_s", true, 0.25)]);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        // A wide set-up spread is the host's: only the medians count.
        let wide = set("w", "setup_s", &[0.5, 1.0, 1.5, 0.6, 1.4]);
        let rows = compare(&wide, &wide, &[bound("setup_s", true, 0.25)]);
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn result_sets_load_from_files_and_skip_traced_runs() {
        let dir = std::env::temp_dir().join(format!("bench-e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = |name: &str, trace: bool, v: f64| {
            let text = format!(
                "{{\"workload\":\"w\",\"trace\":{trace},\"metrics\":{{\"sim_rate\":{{\"value\":{v},\"unit\":\"s/s\"}}}}}}"
            );
            std::fs::write(dir.join(name), text).expect("write");
        };
        file("w-1.json", false, 10.0);
        file("w-2.json", false, 12.0);
        file("w-1.trace.json", true, 99.0);
        std::fs::write(dir.join("notes.txt"), "not a result").expect("write");
        let samples = load_set(&dir).expect("loads");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            samples.iter().map(|s| s.value).collect::<Vec<_>>(),
            vec![10.0, 12.0]
        );
    }

    #[test]
    fn benchmark_json_bounds_parse() {
        let b = bounds(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        assert!(b.iter().any(|m| m.name == "setup_s" && m.lower_is_better));
        assert!(b.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let max = b.iter().map(|m| m.bound).fold(0.0, f64::max);
        let setup = b.iter().find(|m| m.name == "setup_s").map(|m| m.bound);
        assert_eq!(setup, Some(max), "setup_s has the largest bound");
    }
}
