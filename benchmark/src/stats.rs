//! Order statistics for timing samples.
//!
//! Every timing the benchmark prints is a median plus a tail, and the
//! tail is never a percentile the sample count cannot support: it is the
//! highest percentile that still has at least [`TAIL_SAMPLES_BEYOND`]
//! samples beyond it, capped at p99. 24 samples give p58, 1000 give p99.

/// Samples that must lie strictly beyond the tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail percentile is never reported above this, however many
/// samples there are: p99.9 of 50 000 requests has the samples but moves
/// with every scheduler hiccup.
pub const TAIL_CAP: f64 = 0.99;

/// Median and tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (the mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// Which percentile `tail` is, as a fraction (0.58 for p58).
    pub tail_q: f64,
    /// The sample at percentile `tail_q`.
    pub tail: f64,
}

/// Median of `sorted` (ascending). Panics on an empty slice: a workload
/// that measured nothing has no result to report.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Index into an ascending slice of `n` samples of the tail percentile,
/// and the percentile it is. With fewer than `2 * TAIL_SAMPLES_BEYOND + 1`
/// samples no percentile above the median qualifies and the median's own
/// position is returned (`q = 0.5`).
pub fn tail_index(n: usize) -> (usize, f64) {
    assert!(n > 0, "tail of no samples");
    let mid = n / 2;
    if n <= TAIL_SAMPLES_BEYOND || n - 1 - TAIL_SAMPLES_BEYOND <= mid {
        return (mid, 0.5);
    }
    let by_rule = n - 1 - TAIL_SAMPLES_BEYOND;
    // Nearest-rank p99: the smallest index with at least 99 % of the
    // samples at or below it.
    let by_cap = ((TAIL_CAP * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = by_rule.min(by_cap);
    (idx, (idx + 1) as f64 / n as f64)
}

/// Median and tail of `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (idx, tail_q) = tail_index(v.len());
    Summary {
        n: v.len(),
        p50: median_sorted(&v),
        tail_q,
        tail: v[idx],
    }
}

/// First and third quartile and median, by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)` — the rule the PR driver
/// applies to ten runs of a metric.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Position k(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // The issue's example: 24 iterations give p58, not p99.
        let (idx, q) = tail_index(24);
        assert_eq!(idx, 13);
        assert_eq!(24 - 1 - idx, 10);
        assert!((q - 14.0 / 24.0).abs() < 1e-12);
        // 100 samples: index 89 has exactly ten beyond it → p90.
        assert_eq!(tail_index(100), (89, 0.9));
        // Enough samples: capped at nearest-rank p99.
        let (idx, q) = tail_index(50_000);
        assert_eq!(idx, 49_499);
        assert!((q - 0.99).abs() < 1e-12);
        // At exactly 1000 the rule (989) is stricter than the cap (989).
        assert_eq!(tail_index(1000).0, 989);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        for n in [1usize, 5, 10, 11, 20, 21] {
            let (idx, q) = tail_index(n);
            assert_eq!((idx, q), (n / 2, 0.5), "n = {n}");
        }
        // 23 is the first count whose rule index passes the middle.
        assert_eq!(tail_index(23).0, 12);
    }

    #[test]
    fn summarize_sorts_and_reports_both() {
        let samples: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 49.5);
        assert_eq!(s.tail, 89.0);
        assert_eq!(s.tail_q, 0.9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
