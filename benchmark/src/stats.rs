//! Order statistics for small timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), so a spread computed here equals the one the driver
//! computes over the same values.

/// Summary of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Inter-quartile range as a percentage of the median: the noise floor.
    pub fn iqr_pct(&self) -> f64 {
        100.0 * self.iqr() / self.median
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile, exclusive method: the k-th cut sits at
/// position `k·(n+1)/4` (1-based) of the sorted sample, interpolated
/// linearly between its two neighbours (extrapolated from the outermost
/// pair when the cut falls outside the sample, as Python does). A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Median, extremes and quartiles of a sample.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles(&v);
    Summary {
        n: v.len(),
        median: median(&v),
        min: v[0],
        max: v[v.len() - 1],
        q1,
        q3,
    }
}

/// Nearest-rank percentile: the value at 1-based rank `ceil(p/100 · n)`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[rank(v.len(), p) - 1]
}

fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The highest whole percentile that still has at least ten samples beyond
/// its nearest-rank position, or `None` when no percentile does (fewer
/// than eleven samples). A tail percentile with fewer samples behind it is
/// one or two outliers, not a statistic.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| n >= rank(n.max(1), p) + 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_of_seven_are_the_second_and_sixth() {
        // n = 7: cuts at positions 2 and 6 exactly.
        let v = [1.60, 1.71, 1.80, 1.85, 1.92, 2.05, 2.17];
        assert_eq!(quartiles(&v), (1.71, 2.05));
        let s = summarize(&v);
        assert_eq!((s.n, s.median, s.min, s.max), (7, 1.85, 1.60, 2.17));
        assert!((s.iqr() - 0.34).abs() < 1e-12);
        assert!((s.iqr_pct() - 100.0 * 0.34 / 1.85).abs() < 1e-9);
    }

    #[test]
    fn quartiles_interpolate_like_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=111).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 56.0); // ceil(55.5) = 56
        assert_eq!(percentile(&v, 90), 100.0); // ceil(99.9) = 100
        assert_eq!(percentile(&[5.0], 90), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(7), None);
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(11), Some(9)); // rank 1, 10 beyond
        assert_eq!(highest_supported_percentile(20), Some(50)); // rank 10
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(111), Some(90)); // rank 100, 11 beyond
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }
}
