//! Deterministic, std-only statistics for paired benchmark comparison.
//!
//! Everything here is pure arithmetic over sample slices: no wall clock,
//! no unordered containers, no entropy beyond the caller-supplied seed.
//! The bootstrap resampling stream flows from [`sim_engine::rng::Rng`]
//! (xoshiro256**), so a comparison over the same two sample sets with the
//! same [`CompareConfig`] yields bit-identical intervals on every machine
//! and every run — the regression gate's verdict is reproducible, which
//! is what lets CI act on it.
//!
//! # Method
//!
//! Per-batch timings are not normally distributed (scheduler preemption
//! skews the right tail), so the module avoids t-statistics entirely:
//!
//! * The location estimate is the **median** (order statistics with
//!   linear interpolation), robust to tail outliers.
//! * Uncertainty comes from the **percentile bootstrap**: resample each
//!   side with replacement, recompute the statistic, and read the
//!   interval straight off the resampled distribution's quantiles.
//! * Comparisons are made on the **relative median difference**
//!   `(median(candidate) − median(baseline)) / median(baseline)` —
//!   positive values mean the candidate is *slower* (samples are
//!   ns/iteration) — with **Cliff's delta** reported alongside as a
//!   scale-free effect size.
//!
//! A regression is declared only when the difference interval excludes
//! zero **and** the point estimate clears the `min_effect` guard band —
//! statistical significance alone cannot flag a well-resolved 0.5 %
//! wobble, and a large point estimate alone cannot flag noise. Too few
//! samples yield [`Verdict::Inconclusive`] instead of a guess.

use sim_engine::rng::Rng;

/// Default number of bootstrap resamples. 2000 keeps the 0.5 % / 99.5 %
/// interval endpoints stable to well under a percent of the effect scale
/// at the sample counts the harness produces (tens of batches).
pub const DEFAULT_RESAMPLES: u32 = 2_000;

/// Default two-sided confidence level for intervals and verdicts.
pub const DEFAULT_CONFIDENCE: f64 = 0.99;

/// Default seed for the bootstrap resampling stream. Any fixed value
/// works; sharing one workspace-wide makes artifacts byte-comparable.
pub const DEFAULT_SEED: u64 = 0x51D3_49E3_7B9B_E25D;

/// Fewest per-side samples a comparison will accept before declaring
/// itself [`Verdict::Inconclusive`]: below this the bootstrap quantiles
/// are dominated by discreteness, not evidence.
pub const MIN_SAMPLES: usize = 8;

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// The plug-in estimate on the original samples.
    pub point: f64,
    /// Lower interval endpoint.
    pub lo: f64,
    /// Upper interval endpoint.
    pub hi: f64,
}

impl Ci {
    /// True when the whole interval lies strictly above `threshold`.
    pub fn excludes_below(&self, threshold: f64) -> bool {
        self.lo > threshold
    }

    /// True when the whole interval lies strictly below `threshold`.
    pub fn excludes_above(&self, threshold: f64) -> bool {
        self.hi < threshold
    }
}

/// Interpolated percentile of an **ascending-sorted** slice, `q` in
/// `[0, 1]` (0 = min, 0.5 = median, 1 = max).
///
/// Uses the `rank = q·(n−1)` convention with linear interpolation
/// between adjacent order statistics.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "percentile q out of [0, 1]");
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Interpolated median of an unsorted slice (the slice is copied, not
/// mutated).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty slice");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, 0.5)
}

/// Draw one bootstrap resample of `samples` into `scratch` and return
/// its median. `scratch` is caller-owned so the resampling loop does not
/// allocate.
fn resampled_median(samples: &[f64], rng: &mut Rng, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    let n = samples.len() as u64;
    for _ in 0..samples.len() {
        scratch.push(samples[rng.below(n) as usize]);
    }
    scratch.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(scratch, 0.5)
}

/// The `[α/2, 1−α/2]` quantile interval of a set of bootstrap statistic
/// replicates.
fn bootstrap_interval(replicates: &mut [f64], confidence: f64, point: f64) -> Ci {
    replicates.sort_by(|a, b| a.total_cmp(b));
    let alpha = (1.0 - confidence).clamp(0.0, 1.0);
    Ci {
        point,
        lo: percentile_sorted(replicates, alpha / 2.0),
        hi: percentile_sorted(replicates, 1.0 - alpha / 2.0),
    }
}

/// Percentile-bootstrap confidence interval for the **median** of one
/// sample set.
pub fn bootstrap_median_ci(samples: &[f64], confidence: f64, resamples: u32, seed: u64) -> Ci {
    assert!(!samples.is_empty(), "bootstrap of an empty slice");
    let mut rng = Rng::new(seed);
    let mut scratch = Vec::with_capacity(samples.len());
    let mut replicates = Vec::with_capacity(resamples as usize);
    for _ in 0..resamples {
        replicates.push(resampled_median(samples, &mut rng, &mut scratch));
    }
    bootstrap_interval(&mut replicates, confidence, median(samples))
}

/// Percentile-bootstrap confidence interval for the **relative median
/// difference** `(median(candidate) − median(baseline)) /
/// median(baseline)`.
///
/// Positive values mean the candidate is slower. Both sides are
/// resampled independently per replicate, so the interval reflects the
/// uncertainty of both measurements.
pub fn bootstrap_rel_diff_ci(
    baseline: &[f64],
    candidate: &[f64],
    confidence: f64,
    resamples: u32,
    seed: u64,
) -> Ci {
    assert!(
        !baseline.is_empty() && !candidate.is_empty(),
        "bootstrap of an empty slice"
    );
    let point = rel_diff(median(baseline), median(candidate));
    let mut rng = Rng::new(seed);
    let mut scratch = Vec::with_capacity(baseline.len().max(candidate.len()));
    let mut replicates = Vec::with_capacity(resamples as usize);
    for _ in 0..resamples {
        let b = resampled_median(baseline, &mut rng, &mut scratch);
        let c = resampled_median(candidate, &mut rng, &mut scratch);
        replicates.push(rel_diff(b, c));
    }
    bootstrap_interval(&mut replicates, confidence, point)
}

/// `(candidate − baseline) / baseline`, guarded against a degenerate
/// zero baseline (timings are strictly positive in practice).
fn rel_diff(baseline: f64, candidate: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (candidate - baseline) / baseline
    }
}

/// Cliff's delta: `P(candidate > baseline) − P(candidate < baseline)`
/// over all sample pairs, in `[−1, 1]`. Positive = candidate tends
/// larger (slower). Scale-free and rank-based, so one wild outlier
/// cannot saturate it the way it can a mean difference.
pub fn cliffs_delta(baseline: &[f64], candidate: &[f64]) -> f64 {
    assert!(
        !baseline.is_empty() && !candidate.is_empty(),
        "cliffs_delta of an empty slice"
    );
    let mut gt = 0i64;
    let mut lt = 0i64;
    for &c in candidate {
        for &b in baseline {
            if c > b {
                gt += 1;
            } else if c < b {
                lt += 1;
            }
        }
    }
    (gt - lt) as f64 / (baseline.len() * candidate.len()) as f64
}

/// Knobs for [`compare`]. `min_effect` is a relative guard band on the
/// point estimate: a regression needs the interval to exclude zero *and*
/// a median shift of at least this much (0.0 = significance alone
/// decides). ci.sh widens it for cross-run comparisons against a
/// captured baseline, where run-to-run drift is real even on one
/// machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Two-sided confidence level in `(0, 1)`.
    pub confidence: f64,
    /// Bootstrap resample count.
    pub resamples: u32,
    /// Seed for the resampling stream.
    pub seed: u64,
    /// Relative guard band for the verdict (0.05 = ±5 %).
    pub min_effect: f64,
    /// Fewest per-side samples before the verdict is
    /// [`Verdict::Inconclusive`].
    pub min_samples: usize,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            confidence: DEFAULT_CONFIDENCE,
            resamples: DEFAULT_RESAMPLES,
            seed: DEFAULT_SEED,
            min_effect: 0.0,
            min_samples: MIN_SAMPLES,
        }
    }
}

/// The gate's four-way outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The difference interval excludes zero and the median shift clears
    /// `min_effect`: the candidate is measurably slower.
    Regression,
    /// The mirrored case: measurably faster by more than `min_effect`.
    Improvement,
    /// The interval straddles zero, or the shift is within the guard
    /// band — no actionable difference.
    NoDifference,
    /// Too few samples to say anything; never silently passes as "no
    /// difference".
    Inconclusive,
}

impl Verdict {
    /// Stable lowercase label for artifacts and trajectory lines.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "regression",
            Verdict::Improvement => "improvement",
            Verdict::NoDifference => "no-difference",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

/// One baseline-vs-candidate comparison: the interval, the effect size,
/// and the verdict derived from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Relative median difference interval (positive = slower).
    pub diff: Ci,
    /// Cliff's delta effect size.
    pub delta: f64,
    /// Gate outcome under the config's guard band.
    pub verdict: Verdict,
    /// Baseline sample count.
    pub baseline_n: usize,
    /// Candidate sample count.
    pub candidate_n: usize,
}

/// Compare candidate timings against baseline timings (both ns/iter,
/// lower is better).
pub fn compare(baseline: &[f64], candidate: &[f64], cfg: &CompareConfig) -> Comparison {
    if baseline.len() < cfg.min_samples || candidate.len() < cfg.min_samples {
        return Comparison {
            diff: Ci {
                point: 0.0,
                lo: 0.0,
                hi: 0.0,
            },
            delta: 0.0,
            verdict: Verdict::Inconclusive,
            baseline_n: baseline.len(),
            candidate_n: candidate.len(),
        };
    }
    let diff = bootstrap_rel_diff_ci(baseline, candidate, cfg.confidence, cfg.resamples, cfg.seed);
    let delta = cliffs_delta(baseline, candidate);
    let verdict = if diff.excludes_below(0.0) && diff.point >= cfg.min_effect {
        Verdict::Regression
    } else if diff.excludes_above(0.0) && diff.point <= -cfg.min_effect {
        Verdict::Improvement
    } else {
        Verdict::NoDifference
    };
    Comparison {
        diff,
        delta,
        verdict,
        baseline_n: baseline.len(),
        candidate_n: candidate.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic samples: `n` draws from the given
    /// inverse-CDF under a seeded uniform stream.
    fn draws(seed: u64, n: usize, inv_cdf: impl Fn(f64) -> f64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| inv_cdf(rng.f64())).collect()
    }

    #[test]
    fn percentile_known_quantiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 3.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 5.0);
        // Interpolation between order statistics.
        assert_eq!(percentile_sorted(&sorted, 0.625), 3.5);
        assert_eq!(percentile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn bootstrap_ci_brackets_true_median_uniform() {
        // Uniform[0, 1): true median 0.5. Across many seeded sample sets
        // the 95 % interval must cover ≈95 % of the time; assert a loose
        // lower bound so the test is immune to bootstrap small-sample
        // bias while still catching broken intervals. Fully
        // deterministic: fixed seeds, fixed resampling stream.
        let mut covered = 0;
        const REPS: u64 = 40;
        for rep in 0..REPS {
            let samples = draws(1000 + rep, 100, |u| u);
            let ci = bootstrap_median_ci(&samples, 0.95, 600, 7 + rep);
            assert!(ci.lo <= ci.hi, "interval inverted: {ci:?}");
            if ci.lo <= 0.5 && 0.5 <= ci.hi {
                covered += 1;
            }
        }
        assert!(
            covered >= REPS * 8 / 10,
            "95% CI covered true median only {covered}/{REPS} times"
        );
    }

    #[test]
    fn bootstrap_ci_brackets_true_median_exponential() {
        // Exponential(1): true median ln 2 ≈ 0.6931, a skewed
        // distribution like real timing tails.
        let true_median = std::f64::consts::LN_2;
        let mut covered = 0;
        const REPS: u64 = 40;
        for rep in 0..REPS {
            let samples = draws(5000 + rep, 100, |u| -(1.0 - u).ln());
            let ci = bootstrap_median_ci(&samples, 0.95, 600, 11 + rep);
            if ci.lo <= true_median && true_median <= ci.hi {
                covered += 1;
            }
        }
        assert!(
            covered >= REPS * 8 / 10,
            "95% CI covered exponential median only {covered}/{REPS} times"
        );
    }

    #[test]
    fn bootstrap_interval_narrows_with_sample_count() {
        let small = draws(42, 20, |u| u);
        let large = draws(42, 400, |u| u);
        let ci_small = bootstrap_median_ci(&small, 0.95, 1000, 3);
        let ci_large = bootstrap_median_ci(&large, 0.95, 1000, 3);
        assert!(
            (ci_large.hi - ci_large.lo) < (ci_small.hi - ci_small.lo),
            "more samples must narrow the interval: {ci_small:?} vs {ci_large:?}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = draws(1, 50, |u| 100.0 + u);
        let b = draws(2, 50, |u| 100.0 + u);
        let cfg = CompareConfig::default();
        let first = compare(&a, &b, &cfg);
        let second = compare(&a, &b, &cfg);
        // Bit-identical, not approximately equal: the whole pipeline is
        // seeded, so CI's verdict is reproducible anywhere.
        assert_eq!(first, second);
        let ci1 = bootstrap_median_ci(&a, 0.99, 500, 9);
        let ci2 = bootstrap_median_ci(&a, 0.99, 500, 9);
        assert_eq!(ci1, ci2);
    }

    #[test]
    fn aa_null_comparison_reports_no_difference() {
        // Two independent sample sets from the same distribution: the
        // verdict must be NoDifference, never a phantom regression.
        // Deterministic seeds make this stable forever.
        for (sa, sb) in [(10u64, 20u64), (30, 40), (50, 60), (70, 80)] {
            let a = draws(sa, 60, |u| 1000.0 * (1.0 + 0.05 * u));
            let b = draws(sb, 60, |u| 1000.0 * (1.0 + 0.05 * u));
            let got = compare(&a, &b, &CompareConfig::default());
            assert_eq!(
                got.verdict,
                Verdict::NoDifference,
                "A/A at seeds ({sa},{sb}) mis-verdicted: {got:?}"
            );
        }
    }

    #[test]
    fn ten_percent_shift_is_a_regression() {
        let base = draws(7, 60, |u| 1000.0 * (1.0 + 0.05 * u));
        let slow: Vec<f64> = base.iter().map(|x| x * 1.10).collect();
        let got = compare(&base, &slow, &CompareConfig::default());
        assert_eq!(got.verdict, Verdict::Regression, "{got:?}");
        assert!(got.diff.point > 0.05, "{got:?}");
        assert!(got.delta > 0.5, "{got:?}");
        // And the mirrored comparison is an improvement.
        let rev = compare(&slow, &base, &CompareConfig::default());
        assert_eq!(rev.verdict, Verdict::Improvement, "{rev:?}");
    }

    #[test]
    fn guard_band_absorbs_small_shifts() {
        let base = draws(7, 60, |u| 1000.0 * (1.0 + 0.01 * u));
        let slow: Vec<f64> = base.iter().map(|x| x * 1.03).collect();
        let tight = compare(&base, &slow, &CompareConfig::default());
        assert_eq!(tight.verdict, Verdict::Regression, "{tight:?}");
        let guarded = compare(
            &base,
            &slow,
            &CompareConfig {
                min_effect: 0.05,
                ..CompareConfig::default()
            },
        );
        assert_eq!(guarded.verdict, Verdict::NoDifference, "{guarded:?}");
    }

    #[test]
    fn too_few_samples_is_inconclusive() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0];
        let got = compare(&a, &b, &CompareConfig::default());
        assert_eq!(got.verdict, Verdict::Inconclusive);
    }

    #[test]
    fn cliffs_delta_extremes_and_null() {
        assert_eq!(cliffs_delta(&[1.0, 2.0], &[3.0, 4.0]), 1.0);
        assert_eq!(cliffs_delta(&[3.0, 4.0], &[1.0, 2.0]), -1.0);
        assert_eq!(cliffs_delta(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }
}
