//! Approximation-error statistics as reported in Fig. 4 of the paper.
//!
//! For every fitted cell polynomial the paper evaluates a 64 × 64 lattice of
//! equidistant operating points against the linearly interpolated SPICE
//! reference and reports distributions of the **mean**, **standard
//! deviation** and **maximum** of the absolute relative error.

/// Summary statistics of a set of error magnitudes.
///
/// # Example
///
/// ```
/// use avfs_regression::ErrorStats;
///
/// let stats = ErrorStats::from_errors([0.01f64, -0.03, 0.02].iter().copied());
/// assert!((stats.mean - 0.02).abs() < 1e-12);
/// assert!((stats.max - 0.03).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    /// Mean absolute error.
    pub mean: f64,
    /// Standard deviation of the absolute errors (population form).
    pub stddev: f64,
    /// Maximum absolute error.
    pub max: f64,
    /// Number of aggregated samples.
    pub count: usize,
}

impl ErrorStats {
    /// Aggregates statistics over (signed) errors; magnitudes are taken
    /// internally.
    ///
    /// Returns the all-zero default for an empty iterator.
    pub fn from_errors(errors: impl IntoIterator<Item = f64>) -> Self {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max = 0.0f64;
        for e in errors {
            let a = e.abs();
            count += 1;
            sum += a;
            sum_sq += a * a;
            max = max.max(a);
        }
        if count == 0 {
            return ErrorStats::default();
        }
        let mean = sum / count as f64;
        let var = (sum_sq / count as f64 - mean * mean).max(0.0);
        ErrorStats {
            mean,
            stddev: var.sqrt(),
            max,
            count,
        }
    }
}

/// A distribution summary over many per-cell [`ErrorStats`], mirroring the
/// box-plot style aggregation of Fig. 4 (distribution of per-cell means,
/// stddevs and maxima across the library subset).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsDistribution {
    per_cell: Vec<ErrorStats>,
}

impl StatsDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        StatsDistribution::default()
    }

    /// Adds one cell's error statistics.
    pub fn push(&mut self, stats: ErrorStats) {
        self.per_cell.push(stats);
    }

    /// Average of the per-cell mean errors.
    pub fn avg_mean(&self) -> f64 {
        average(self.per_cell.iter().map(|s| s.mean))
    }

    /// Average of the per-cell standard deviations (the paper's "average
    /// standard deviation falls below 1 %" criterion for N ≥ 3).
    pub fn avg_stddev(&self) -> f64 {
        average(self.per_cell.iter().map(|s| s.stddev))
    }

    /// Average of the per-cell maximum errors (the paper's "average maximum
    /// error decreases below 2.7 %" criterion).
    pub fn avg_max(&self) -> f64 {
        average(self.per_cell.iter().map(|s| s.max))
    }

    /// Largest per-cell maximum error (the paper's "highest sample was
    /// 5.35 %").
    pub fn worst_max(&self) -> f64 {
        self.per_cell.iter().fold(0.0, |m, s| m.max(s.max))
    }

    /// Quantile of the per-cell mean errors, `q ∈ [0, 1]` (nearest-rank).
    pub fn mean_quantile(&self, q: f64) -> f64 {
        quantile(self.per_cell.iter().map(|s| s.mean).collect(), q)
    }
}

fn average(values: impl Iterator<Item = f64>) -> f64 {
    let mut count = 0usize;
    let mut sum = 0.0;
    for v in values {
        count += 1;
        sum += v;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let idx = ((values.len() as f64 - 1.0) * q).round() as usize;
    values[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_errors_give_zero_stats() {
        let s = ErrorStats::from_errors(std::iter::empty());
        assert_eq!(s, ErrorStats::default());
        assert_eq!(s.count, 0);
    }

    #[test]
    fn stats_hand_computed() {
        let s = ErrorStats::from_errors([1.0, -2.0, 3.0].iter().copied());
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
        // population stddev of {1,2,3} = sqrt(2/3)
        assert!((s.stddev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn distribution_averages() {
        let mut d = StatsDistribution::new();
        d.push(ErrorStats {
            mean: 0.01,
            stddev: 0.005,
            max: 0.02,
            count: 10,
        });
        d.push(ErrorStats {
            mean: 0.03,
            stddev: 0.015,
            max: 0.06,
            count: 10,
        });
        assert!((d.avg_mean() - 0.02).abs() < 1e-12);
        assert!((d.avg_stddev() - 0.01).abs() < 1e-12);
        assert!((d.avg_max() - 0.04).abs() < 1e-12);
        assert!((d.worst_max() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut d = StatsDistribution::new();
        for k in [4, 1, 5, 3, 2] {
            d.push(ErrorStats {
                mean: k as f64,
                stddev: 0.0,
                max: 10.0 * k as f64,
                count: 1,
            });
        }
        assert_eq!(d.mean_quantile(0.0), 1.0);
        assert_eq!(d.mean_quantile(0.5), 3.0);
        assert_eq!(d.mean_quantile(1.0), 5.0);
    }

    #[test]
    fn empty_distribution_is_zero() {
        let d = StatsDistribution::new();
        assert_eq!(d.avg_mean(), 0.0);
        assert_eq!(d.worst_max(), 0.0);
        assert_eq!(d.mean_quantile(0.5), 0.0);
    }

    proptest! {
        #[test]
        fn mean_le_max(errors in prop::collection::vec(-1.0f64..1.0, 1..100)) {
            let s = ErrorStats::from_errors(errors.iter().copied());
            prop_assert!(s.mean <= s.max + 1e-15);
            prop_assert!(s.stddev >= 0.0);
            // Population stddev of values in [0, max] is at most max/2… but
            // the loose invariant stddev <= max always holds.
            prop_assert!(s.stddev <= s.max + 1e-15);
        }

        #[test]
        fn stats_scale_linearly(
            errors in prop::collection::vec(-1.0f64..1.0, 1..50),
            k in 0.1f64..10.0,
        ) {
            let s1 = ErrorStats::from_errors(errors.iter().copied());
            let s2 = ErrorStats::from_errors(errors.iter().map(|e| e * k));
            prop_assert!((s2.mean - k * s1.mean).abs() < 1e-9 * (1.0 + s2.mean.abs()));
            prop_assert!((s2.max - k * s1.max).abs() < 1e-9 * (1.0 + s2.max.abs()));
            prop_assert!((s2.stddev - k * s1.stddev).abs() < 1e-7 * (1.0 + s2.stddev.abs()));
        }
    }
}
