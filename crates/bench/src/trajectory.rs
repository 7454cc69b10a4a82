//! Cross-commit trajectory analysis: the reader for `BENCH_trajectory.jsonl`.
//!
//! Every gated bench run appends one JSON line per bench (commit, median,
//! bootstrap CI — see `Harness::finish`). Each line answers "did this
//! commit regress against its immediate baseline?"; what no single line
//! can answer is "has this bench been quietly getting slower for a
//! month?". A 1 % drift per commit never trips a 5 % gate, yet ten of
//! them compound into a real regression.
//!
//! `bench trajectory <file>` joins the log into a per-bench, per-commit
//! table and flags **monotone drifts**: runs of consecutive commits whose
//! medians only go up, with a cumulative rise past a threshold. It is a
//! reader, not a gate — it always exits 0 and leaves acting on the drift
//! to a human, because the log spans machines and days and a hard
//! threshold across that much environment would cry wolf.

use sim_engine::json::{self, Value};

use crate::timer::fmt_ns;

/// One `BENCH_trajectory.jsonl` line.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Abbreviated commit hash the run was made at.
    pub commit: String,
    /// Bench target (suite) name.
    pub target: String,
    /// Bench name within the target.
    pub bench: String,
    /// Median ns/iteration of the run.
    pub median_ns: f64,
    /// Bootstrap CI low edge, ns.
    pub ci_lo_ns: f64,
    /// Bootstrap CI high edge, ns.
    pub ci_hi_ns: f64,
}

/// A flagged monotone drift: `points` consecutive commits of one bench
/// whose medians strictly increased, compounding to `rise_pct`.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Bench target (suite) name.
    pub target: String,
    /// Bench name within the target.
    pub bench: String,
    /// First commit of the run-up.
    pub from_commit: String,
    /// Last commit of the run-up.
    pub to_commit: String,
    /// Commits in the run-up (≥ the detector's minimum).
    pub points: usize,
    /// Cumulative rise over the run-up, percent.
    pub rise_pct: f64,
}

/// Parse a trajectory JSONL text. Blank lines are skipped; a malformed
/// line is an error naming its line number (the log is append-only and
/// machine-written, so damage means something worth hearing about).
pub fn parse_lines(text: &str) -> Result<Vec<TrajectoryPoint>, String> {
    let mut points = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        points.push(parse_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(points)
}

fn parse_line(line: &str) -> Result<TrajectoryPoint, String> {
    let root = json::parse(line).map_err(|e| e.to_string())?;
    let string = |key: &str| match root.get(key).and_then(Value::as_str) {
        Some(s) => Ok(s.to_string()),
        None => Err(format!("missing string field {key:?}")),
    };
    let number = |key: &str| match root.get(key).and_then(Value::as_f64) {
        Some(x) if x > 0.0 => Ok(x),
        _ => Err(format!("missing positive number field {key:?}")),
    };
    Ok(TrajectoryPoint {
        commit: string("commit")?,
        target: string("target")?,
        bench: string("bench")?,
        median_ns: number("median_ns")?,
        ci_lo_ns: number("ci_lo_ns")?,
        ci_hi_ns: number("ci_hi_ns")?,
    })
}

/// The per-bench series hidden in the flat log, in first-appearance
/// order. Within a series, re-runs at the same commit collapse to the
/// **latest** line (the freshest measurement of that commit).
pub fn series(points: &[TrajectoryPoint]) -> Vec<(String, String, Vec<TrajectoryPoint>)> {
    let mut out: Vec<(String, String, Vec<TrajectoryPoint>)> = Vec::new();
    for pt in points {
        let idx = out
            .iter()
            .position(|(t, b, _)| *t == pt.target && *b == pt.bench)
            .unwrap_or_else(|| {
                out.push((pt.target.clone(), pt.bench.clone(), Vec::new()));
                out.len() - 1
            });
        let group = &mut out[idx].2;
        match group.iter_mut().find(|q| q.commit == pt.commit) {
            Some(existing) => *existing = pt.clone(),
            None => group.push(pt.clone()),
        }
    }
    out
}

/// Find monotone drifts: maximal runs of ≥ `min_points` consecutive
/// commits whose medians strictly increase step over step, compounding
/// to at least `min_rise_pct` percent.
pub fn find_drifts(points: &[TrajectoryPoint], min_points: usize, min_rise_pct: f64) -> Vec<Drift> {
    let mut drifts = Vec::new();
    for (target, bench, run) in series(points) {
        let mut start = 0;
        for i in 1..=run.len() {
            let rising = i < run.len() && run[i].median_ns > run[i - 1].median_ns;
            if rising {
                continue;
            }
            // The monotone stretch run[start..i] just ended.
            let len = i - start;
            if len >= min_points {
                let rise_pct = (run[i - 1].median_ns / run[start].median_ns - 1.0) * 100.0;
                if rise_pct >= min_rise_pct {
                    drifts.push(Drift {
                        target: target.clone(),
                        bench: bench.clone(),
                        from_commit: run[start].commit.clone(),
                        to_commit: run[i - 1].commit.clone(),
                        points: len,
                        rise_pct,
                    });
                }
            }
            start = i;
        }
    }
    drifts
}

/// Render the per-commit table plus the drift report. Pure text in, pure
/// text out — the bin layer owns I/O and exit codes.
pub fn report(points: &[TrajectoryPoint], min_points: usize, min_rise_pct: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (target, bench, run) in series(points) {
        let _ = writeln!(out, "{target}/{bench} — {} commit(s)", run.len());
        let mut prev: Option<f64> = None;
        for pt in &run {
            let step = match prev {
                Some(p) => format!("{:+6.1}%", (pt.median_ns / p - 1.0) * 100.0),
                None => "      —".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>12}  [{} .. {}]  {step}",
                pt.commit,
                fmt_ns(pt.median_ns),
                fmt_ns(pt.ci_lo_ns),
                fmt_ns(pt.ci_hi_ns),
            );
            prev = Some(pt.median_ns);
        }
    }
    let drifts = find_drifts(points, min_points, min_rise_pct);
    if drifts.is_empty() {
        let _ = writeln!(
            out,
            "no monotone drift of ≥ {min_points} commits rising ≥ {min_rise_pct:.1}%"
        );
    } else {
        for d in &drifts {
            let _ = writeln!(
                out,
                "DRIFT {}/{}: +{:.1}% over {} commits ({} → {}) — no single step \
                 tripped a gate, the sum did",
                d.target, d.bench, d.rise_pct, d.points, d.from_commit, d.to_commit
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(commit: &str, bench: &str, median: f64) -> String {
        format!(
            r#"{{"commit":"{commit}","target":"des_core","bench":"{bench}","median_ns":{median},"ci_lo_ns":{},"ci_hi_ns":{},"batches":24}}"#,
            median * 0.98,
            median * 1.02
        )
    }

    #[test]
    fn parses_the_gate_line_schema_with_optional_fields() {
        let with_verdict = r#"{"commit":"abc123","target":"t","bench":"b","median_ns":100.0,"ci_lo_ns":95.0,"ci_hi_ns":105.0,"batches":24,"diff_pct":1.5,"verdict":"unchanged"}"#;
        let pt = parse_line(with_verdict).expect("valid line");
        assert_eq!(pt.commit, "abc123");
        assert_eq!(pt.median_ns, 100.0);
        assert!(parse_line("{}").is_err());
        assert!(parse_line("not json").is_err());
        let text = format!("{}\n\n{}\n", line("a", "x", 10.0), line("b", "x", 11.0));
        assert_eq!(parse_lines(&text).expect("two lines").len(), 2);
        let err = parse_lines("{\"commit\":1}\n").expect_err("bad line");
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn series_collapse_reruns_to_the_latest_line() {
        let text = [
            line("a", "x", 10.0),
            line("a", "x", 12.0), // re-run at the same commit
            line("b", "x", 11.0),
            line("a", "y", 5.0),
        ]
        .join("\n");
        let pts = parse_lines(&text).expect("parses");
        let s = series(&pts);
        assert_eq!(s.len(), 2, "x and y series");
        assert_eq!(s[0].2.len(), 2, "commits a,b");
        assert_eq!(s[0].2[0].median_ns, 12.0, "latest re-run wins");
    }

    #[test]
    fn flags_slow_compounding_drift_a_gate_misses() {
        // Four commits each +2 % — under any 5 % per-commit gate, but
        // +6.1 % end to end.
        let text = [
            line("c1", "hot", 100.0),
            line("c2", "hot", 102.0),
            line("c3", "hot", 104.0),
            line("c4", "hot", 106.1),
            // A noisy bench that bounces: no drift.
            line("c1", "noisy", 50.0),
            line("c2", "noisy", 55.0),
            line("c3", "noisy", 49.0),
            line("c4", "noisy", 54.0),
        ]
        .join("\n");
        let pts = parse_lines(&text).expect("parses");
        let drifts = find_drifts(&pts, 3, 5.0);
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert_eq!(drifts[0].bench, "hot");
        assert_eq!(drifts[0].points, 4);
        assert_eq!(
            (drifts[0].from_commit.as_str(), drifts[0].to_commit.as_str()),
            ("c1", "c4")
        );
        assert!((drifts[0].rise_pct - 6.1).abs() < 1e-9);
        // Raising the bar hides it again.
        assert!(find_drifts(&pts, 3, 10.0).is_empty());
        assert!(find_drifts(&pts, 5, 5.0).is_empty());
        let rendered = report(&pts, 3, 5.0);
        assert!(rendered.contains("DRIFT des_core/hot"), "{rendered}");
    }

    #[test]
    fn a_reset_breaks_the_run() {
        // Rises, dips, rises again: neither stretch alone clears 3 points
        // + 5 %.
        let text = [
            line("c1", "hot", 100.0),
            line("c2", "hot", 103.0),
            line("c3", "hot", 101.0),
            line("c4", "hot", 104.0),
        ]
        .join("\n");
        let pts = parse_lines(&text).expect("parses");
        assert!(find_drifts(&pts, 3, 5.0).is_empty());
    }
}
