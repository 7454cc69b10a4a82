//! Baseline loading for `bench <suite> --compare` and `bench diff`.
//!
//! A baseline file is simply a bench JSON artifact written by
//! [`crate::timer::Harness`] with per-batch sample arrays — capture one
//! with `bench <suite> --capture <file>`, on the machine that will
//! compare against it (`ci.sh` captures the base commit's build in
//! rounds that alternate with HEAD's, and pools them). Keeping
//! raw samples (not just summaries) is the point:
//! the comparison re-bootstraps both sides, so the interval honestly
//! reflects the baseline's own measurement noise instead of treating a
//! recorded median as gospel.
//!
//! The text is parsed by `sim_engine::json`; this module checks the
//! artifact schema on top of it.

use std::path::Path;

use sim_engine::json::{self, Value};

/// One bench's committed measurement: its name and raw per-batch
/// samples in ns/iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineBench {
    /// Bench name as registered with the harness.
    pub name: String,
    /// Per-batch ns/iteration samples from the capture run.
    pub samples_ns: Vec<f64>,
    /// Iterations the samples cover (0 when the artifact omits them).
    pub iters: u64,
}

/// A parsed baseline artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The bench target ("suite") the baseline was captured from.
    pub target: String,
    /// Every bench with a non-empty sample array.
    pub benches: Vec<BaselineBench>,
}

impl Baseline {
    /// Load and parse a baseline file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Baseline::from_json(&text)
            .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))
    }

    /// Parse baseline JSON (the bench artifact schema). Every sample must
    /// be a positive number; booleans and `null` are rejected.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let target = root
            .get("target")
            .and_then(Value::as_str)
            .ok_or("baseline has no string \"target\" field")?
            .to_string();
        let entries = root
            .get("benches")
            .and_then(Value::as_array)
            .ok_or("baseline has no \"benches\" array")?;
        let mut benches = Vec::new();
        for entry in entries {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or("bench entry has no string \"name\"")?
                .to_string();
            let Some(values) = entry.get("samples_ns").and_then(Value::as_array) else {
                return Err(format!(
                    "bench {name:?} has no \"samples_ns\" array — re-capture the baseline \
                     with this harness version"
                ));
            };
            let mut samples_ns = Vec::with_capacity(values.len());
            for v in values {
                match v.as_f64() {
                    Some(x) if x > 0.0 => samples_ns.push(x),
                    Some(_) => return Err(format!("bench {name:?} has a non-positive sample")),
                    None => return Err(format!("bench {name:?} samples are not numbers")),
                }
            }
            if samples_ns.is_empty() {
                return Err(format!("bench {name:?} has an empty sample array"));
            }
            let iters = entry.get("iters").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            benches.push(BaselineBench {
                name,
                samples_ns,
                iters,
            });
        }
        if benches.is_empty() {
            return Err("baseline contains no benches".to_string());
        }
        Ok(Baseline { target, benches })
    }

    /// The committed samples for one bench name, if present.
    pub fn samples_for(&self, name: &str) -> Option<&[f64]> {
        self.bench(name).map(|b| b.samples_ns.as_slice())
    }

    /// One bench's entry, if present.
    pub fn bench(&self, name: &str) -> Option<&BaselineBench> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Pool captures of one target into one baseline: each bench's
    /// samples and iterations are those of every run that has it, in run
    /// order, and the benches keep the order of their first appearance.
    /// Fails on no runs or runs of different targets.
    pub fn pooled(runs: &[Baseline]) -> Result<Baseline, String> {
        let first = runs.first().ok_or("no runs to pool")?;
        let mut pool = Baseline {
            target: first.target.clone(),
            benches: Vec::new(),
        };
        for run in runs {
            if run.target != pool.target {
                return Err(format!(
                    "cannot pool captures of targets {:?} and {:?}",
                    pool.target, run.target
                ));
            }
            for bench in &run.benches {
                match pool.benches.iter_mut().find(|b| b.name == bench.name) {
                    Some(b) => {
                        b.samples_ns.extend_from_slice(&bench.samples_ns);
                        b.iters += bench.iters;
                    }
                    None => pool.benches.push(bench.clone()),
                }
            }
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"target":"des_core","budget_ms":300,"benches":[
        {"name":"fig5","min_ns":1.0,"median_ns":2.0,"mean_ns":2.1,"batches":3,"iters":9,
         "samples_ns":[2400000.5,2500000.0,2600000.1]},
        {"name":"intern","samples_ns":[900.1,905.2]}],
        "events_per_sec":5719958.0,"scenario":"fig5_scale_world_60s"}"#;

    #[test]
    fn parses_the_artifact_schema() {
        let b = Baseline::from_json(OK).expect("valid baseline");
        assert_eq!(b.target, "des_core");
        assert_eq!(b.benches.len(), 2);
        assert_eq!(b.samples_for("fig5").map(<[f64]>::len), Some(3));
        assert_eq!(b.samples_for("intern"), Some(&[900.1, 905.2][..]));
        assert_eq!(b.samples_for("missing"), None);
    }

    #[test]
    fn pooling_concatenates_runs_in_order() {
        let a = Baseline::from_json(OK).unwrap();
        let b = Baseline::from_json(
            r#"{"target":"des_core","benches":[{"name":"new","samples_ns":[7.0]},
                {"name":"fig5","iters":3,"samples_ns":[2.0]}]}"#,
        )
        .unwrap();
        let pool = Baseline::pooled(&[a, b]).unwrap();
        let names: Vec<&str> = pool.benches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["fig5", "intern", "new"]);
        assert_eq!(
            pool.samples_for("fig5"),
            Some(&[2400000.5, 2500000.0, 2600000.1, 2.0][..])
        );
        assert_eq!(pool.bench("fig5").map(|b| b.iters), Some(12));
        assert_eq!(pool.bench("intern").map(|b| b.iters), Some(0));
        let other =
            Baseline::from_json(r#"{"target":"x","benches":[{"name":"a","samples_ns":[1.0]}]}"#)
                .unwrap();
        assert!(Baseline::pooled(&[pool, other]).is_err());
        assert!(Baseline::pooled(&[]).is_err());
    }

    #[test]
    fn rejects_summary_only_baselines() {
        let legacy = r#"{"target":"t","benches":[{"name":"a","median_ns":5.0}]}"#;
        let err = Baseline::from_json(legacy).expect_err("no samples → error");
        assert!(err.contains("samples_ns"), "{err}");
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "[1,2,3]",
            r#"{"target":"t"}"#,
            r#"{"target":"t","benches":[]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[1e999]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[-3.0]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[true]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[null]}]}"#,
            r#"{"target":"t","benches":[{"name":"a","samples_ns":[1.0]}] extra"#,
            r#"{"target":5,"benches":[{"name":"a","samples_ns":[1.0]}]}"#,
        ] {
            assert!(Baseline::from_json(bad).is_err(), "accepted: {bad}");
        }
        // Deep enough to overflow the stack of an unbounded recursive parser.
        assert!(Baseline::from_json(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn roundtrips_whitespace_variants() {
        let spaced = OK.replace(',', " ,\n ");
        assert!(Baseline::from_json(&spaced).is_ok());
    }
}
