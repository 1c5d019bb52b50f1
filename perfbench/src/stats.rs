//! Summary statistics shared by every workload.
//!
//! Timings are reported under one percentile rule: the median, plus the
//! highest requested percentile that still has at least [`MIN_BEYOND`]
//! samples beyond it, together with the sample count. With 1000 samples a
//! requested p99 is a real p99; with 200 it falls back to p95.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A latency summary under the percentile rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The percentile actually reported, as a fraction (0.99 for p99).
    pub q: f64,
    /// The value at `q` (nearest rank).
    pub tail: f64,
}

/// Nearest rank (1-based) of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    // The epsilon keeps exact products (0.99 × 1000) from rounding up.
    (((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

/// The rank reported for a requested quantile `want` over `n` samples:
/// the nearest rank of `want`, lowered until [`MIN_BEYOND`] samples lie
/// beyond it. With too few samples for any tail, the median's rank.
fn tail_rank(n: usize, want: f64) -> usize {
    let median = nearest_rank(n, 0.5);
    if n <= MIN_BEYOND {
        return median;
    }
    nearest_rank(n, want).min(n - MIN_BEYOND).max(median)
}

/// Summarizes `samples` (any order), reporting the tail nearest to
/// `want` that the percentile rule allows. `None` when empty.
pub fn summarize(samples: &[f64], want: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n, want);
    Some(Summary {
        n,
        p50: sorted[nearest_rank(n, 0.5) - 1],
        q: rank as f64 / n as f64,
        tail: sorted[rank - 1],
    })
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so summarize has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_exact_with_a_thousand_samples() {
        let s = summarize(&ramp(1000), 0.99).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.q, 0.99);
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(
            ramp(1000).iter().filter(|&&v| v > s.tail).count(),
            MIN_BEYOND
        );
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        let s = summarize(&ramp(200), 0.99).unwrap();
        assert_eq!(s.q, 0.95);
        assert_eq!(s.tail, 190.0);
        let s = summarize(&ramp(25), 0.9).unwrap();
        assert_eq!(s.q, 0.6);
        assert_eq!(s.tail, 15.0);
    }

    #[test]
    fn requested_percentile_is_kept_when_samples_allow() {
        let s = summarize(&ramp(100), 0.9).unwrap();
        assert_eq!((s.q, s.tail), (0.9, 90.0));
        let s = summarize(&ramp(5000), 0.99).unwrap();
        assert_eq!((s.q, s.tail), (0.99, 4950.0));
    }

    #[test]
    fn tiny_samples_report_the_median() {
        let s = summarize(&ramp(7), 0.99).unwrap();
        assert_eq!((s.q, s.tail, s.p50), (4.0 / 7.0, 4.0, 4.0));
        let s = summarize(&ramp(11), 0.99).unwrap();
        assert_eq!(s.tail, 6.0, "rank lowered to the median, never below");
        assert!(summarize(&[], 0.5).is_none());
    }

    #[test]
    fn median_mean_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
