//! Percentile and median-of-rounds arithmetic.
//!
//! Every timing the benchmark reports is either a median over
//! day-rounds or a percentile over samples pooled from all rounds.
//! Both are nearest-rank on the sorted samples, so a reported value
//! is always one that was measured (medians of an even count average
//! the two middle samples).

/// Median of `values`; the mean of the two middle samples when the
/// count is even. `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// small slack keeps `99.9% of 10 000` at rank 9990 although the
/// product is not exact in binary.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` (in `0..=100`) of `sorted`, which must
/// be ascending. `None` on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Nearest-rank percentile of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// Samples strictly beyond the nearest-rank position of percentile
/// `p` among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The highest of the candidate percentiles (50, 90, 99, 99.9) that
/// still has at least `min_beyond` samples beyond it among `n`
/// samples — the tail a sample of that size can support.
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= min_beyond)
}

/// Mean of `values`, or 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 — for ratios of
/// counters that a workload may never bump.
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

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_of_rounds_ignores_spikes() {
        // Nine steady rounds and one spill-day spike: the median is a
        // steady round, the p90 is still steady, the max is the spike.
        let mut rounds = vec![10.0; 9];
        rounds.push(500.0);
        assert_eq!(median(&rounds), Some(10.0));
        assert_eq!(percentile(&rounds, 90.0), Some(10.0));
        assert_eq!(percentile(&rounds, 100.0), Some(500.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 90.0), Some(90.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
        // 1000 samples support p99 exactly; one fewer does not.
        assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(999, 10), Some(90.0));
        // 10 000 support p99.9.
        assert_eq!(highest_supported_percentile(10_000, 10), Some(99.9));
        // 20 samples support only the median; 19 not even that.
        assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn ratio_and_mean_tolerate_empty_inputs() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
