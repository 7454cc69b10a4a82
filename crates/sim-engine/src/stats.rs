//! Measurement utilities shared by all experiments.
//!
//! Two estimators cover everything the paper reports:
//!
//! * [`Summary`] — streaming count/mean/variance/min/max (Welford), used for
//!   e.g. Table 1's switch-latency mean ± stddev.
//! * [`Samples`] — a retained sample set with percentiles and CDF
//!   evaluation, used for every CDF figure (Figs. 5, 6, 10–14).

use crate::time::Duration;

/// Streaming summary statistics (Welford's online algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Incorporate one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Summary::record: non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 when n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN-free; +∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another summary into this one (parallel sweeps).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A retained sample set for percentile / CDF extraction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Samples::record: non-finite observation {x}");
        self.values.push(x);
        self.sorted = false;
    }

    /// Record a [`Duration`] observation in seconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp is a total order, so even a stray NaN cannot make
            // the sort nondeterministic (it lands at the high end).
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-quantile for `p ∈ [0, 1]` using linear interpolation between
    /// order statistics. Returns 0 for an empty set.
    pub fn quantile(&mut self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "Samples::quantile: p out of range: {p}"
        );
        self.ensure_sorted();
        match self.values.len() {
            0 => 0.0,
            1 => self.values[0],
            n => {
                let pos = p * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                self.values[lo] * (1.0 - frac) + self.values[hi] * frac
            }
        }
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Fraction of observations ≤ `x` — the empirical CDF at a point.
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        self.ensure_sorted();
        if self.values.is_empty() {
            return 0.0;
        }
        let idx = self.values.partition_point(|&v| v <= x);
        idx as f64 / self.values.len() as f64
    }

    /// Merge another sample set into this one.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Read-only access to the raw values (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.quantile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let mut s = Samples::new();
        assert_eq!(s.median(), 0.0);
    }

    #[test]
    fn cdf_at_counts_inclusive() {
        let mut s = Samples::new();
        for x in [1.0, 2.0, 2.0, 3.0] {
            s.record(x);
        }
        assert_eq!(s.cdf_at(0.5), 0.0);
        assert_eq!(s.cdf_at(2.0), 0.75);
        assert_eq!(s.cdf_at(10.0), 1.0);
    }
}
