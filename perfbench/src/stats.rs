//! Order statistics the benchmark reports: medians, quartiles, the tail
//! percentile rule and the drift between rounds.

/// Sorted copy of `values` (total order, so a stray NaN cannot panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile at rank `p·(n+1)` (1-based), clamped to
/// the sample range — the "exclusive" method of Python's
/// `statistics.quantiles`, which the acceptance driver uses for its
/// quartiles, so spreads computed here can be compared with its verdict.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "quantile of no samples");
    let n = v.len();
    let rank = p * (n as f64 + 1.0);
    let lo = (rank.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (rank - lo as f64).clamp(0.0, 1.0);
    v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, q3)` as `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance driver holds against each metric's bound. Zero for fewer
/// than two values (no spread can be observed).
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest of the customary tail percentiles that still has at
/// least ten samples beyond it; below 20 samples none above the median
/// qualifies and the median itself is the answer.
pub fn tail_percentile(samples: usize) -> f64 {
    const LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];
    for p in LADDER_PERMILLE {
        if samples * (1000 - p) / 1000 >= 10 {
            return p as f64 / 10.0;
        }
    }
    50.0
}

/// `(percentile, value)` of the tail rule applied to `samples`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let p = tail_percentile(samples.len());
    (p, quantile(samples, p / 100.0))
}

/// Largest per-round median over the smallest: how far the host drifted
/// between rounds (1.0 = not at all).
pub fn round_spread(rounds: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    let max = medians.iter().copied().fold(f64::MIN, f64::max);
    let min = medians.iter().copied().fold(f64::MAX, f64::min);
    if medians.is_empty() || min <= 0.0 {
        1.0
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // The issue's two anchor points: p75 at 42 samples, median only at 21.
        assert_eq!(tail_percentile(42), 75.0);
        assert_eq!(tail_percentile(21), 50.0);
        assert_eq!(tail_percentile(7), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        let samples: Vec<f64> = (1..=42).map(f64::from).collect();
        let (p, value) = tail(&samples);
        assert_eq!(p, 75.0);
        assert_eq!(value, 32.25);
    }

    #[test]
    fn round_spread_is_largest_over_smallest_round_median() {
        let rounds = vec![vec![1.0, 1.0, 1.0, 1.0, 1.0], vec![9.0], vec![2.0]];
        assert_eq!(round_spread(&rounds), 9.0);
        assert_eq!(round_spread(&[vec![2.0, 2.0], vec![]]), 1.0);
    }

    #[test]
    fn iqr_frac_is_the_drivers_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
        assert_eq!(iqr_frac(&[4.0, 4.0, 4.0]), 0.0);
    }
}
