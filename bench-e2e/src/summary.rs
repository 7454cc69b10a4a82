//! Order statistics for the benchmark's samples.
//!
//! Two conventions, each where it is the reference:
//! * [`percentile`] interpolates between order statistics at rank
//!   `q·(n−1)`, the convention `bench::stats` uses for within-run samples.
//! * [`quartiles`] follows Python's `statistics.quantiles(xs, n=4)`
//!   (the "exclusive" method), so the spread `compare` prints is the same
//!   number a Python check of the same values computes.

/// Percentile levels the tail rule chooses from, highest first.
const TAIL_LEVELS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Fewest samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// `xs` sorted ascending (NaN last), as a new vector.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The interpolated `q`-quantile (`q` in `[0, 1]`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (a, b) = (sorted.get(lo)?, sorted.get(hi)?);
    Some(a + (b - a) * (rank - lo as f64))
}

/// Median of unsorted `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(&sorted(xs), 0.5)
}

/// `(q1, median, q3)` of `xs` by Python's exclusive quantile method.
/// One sample gives that sample three times.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(xs);
    let n = data.len();
    let last = n.checked_sub(1)?;
    if last == 0 {
        let x = *data.first()?;
        return Some((x, x, x));
    }
    let cut = |i: usize| -> Option<f64> {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, last);
        let delta = (i * m) as f64 - (j * 4) as f64;
        Some((data.get(j - 1)? * (4.0 - delta) + data.get(j)? * delta) / 4.0)
    };
    Some((cut(1)?, cut(2)?, cut(3)?))
}

/// The highest percentile level (of 99.9, 99, 95, 90, 75) that has at
/// least [`TAIL_MIN_BEYOND`] of `n` samples beyond it; `None` when even
/// p75 does not (fewer than 40 samples).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&level| n as f64 * (1.0 - level / 100.0) >= TAIL_MIN_BEYOND - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_level(39), None);
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(99), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(199), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(1_000), Some(99.0));
        assert_eq!(tail_level(10_000), Some(99.9));
    }

    #[test]
    fn median_of_passes_is_order_free_and_interpolated() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // One slow pass moves the mean, not the median.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 400.0]), Some(10.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(&[10.0, 0.0, 20.0, 30.0, 40.0]);
        assert_eq!(percentile(&s, 0.0), Some(0.0));
        assert_eq!(percentile(&s, 0.9), Some(36.0));
        assert_eq!(percentile(&s, 1.0), Some(40.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }
}
