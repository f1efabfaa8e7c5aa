//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the p-th percentile of `n` sorted
//! samples is the sample at rank `ceil(p * n / 100)`. A percentile is
//! only *supported* when at least [`MIN_BEYOND`] samples lie above its
//! rank; a timing is reported as its median plus the highest supported
//! percentile from [`LADDER`], with the sample count.

/// Samples that must lie beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in exact per-mille arithmetic so that, say, p99.9 of 10,000 samples
/// is rank 9,990 rather than a rounding error above it.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] above percentile
/// `p`.
pub fn supports(p: f64, n: usize) -> bool {
    n > 0 && n - rank(p, n) >= MIN_BEYOND
}

/// The highest percentile in [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| supports(p, n))
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// Nearest-rank p90, whether or not it is supported.
    pub p90: f64,
    /// The highest supported tail percentile and its value.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `samples` (any order). `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        p50: percentile(&s, 50.0),
        p90: percentile(&s, 90.0),
        tail: highest_supported(s.len()).map(|p| (p, percentile(&s, p))),
    })
}

/// Median of `samples` (nearest-rank), 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
        assert!(supports(90.0, 100));
        assert!(!supports(90.0, 99));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn summary_sorts_and_reports_the_supported_tail() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        v.push(1000.0);
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 201);
        assert_eq!(s.p50, 101.0);
        assert_eq!(s.p90, 181.0);
        assert_eq!(s.tail, Some((90.0, 181.0)));
        assert_eq!(summarize(&[]), None);
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).unwrap().tail, None);
    }
}
