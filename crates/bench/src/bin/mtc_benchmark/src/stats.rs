//! Quantiles, and the comparison of two measurements against a bound.

/// The `p`-th percentile (0..=100) of `sorted`, linearly interpolated
/// between the two nearest ranks. 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Median of durations given in nanoseconds, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let mut us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1000.0).collect();
    median(&mut us)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n`; below 20 samples only the median.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, samples per thousand that lie beyond it)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map_or(50.0, |(p, _)| p)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// By what share of `base` the value `new` is worse (positive) or better
/// (negative), given which direction is better.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// True when `new` is not worse than `base` by more than `bound` (a share
/// of `base`).
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_us(&[3000, 1000]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 100 -> 109 is 9 % worse, 100 -> 90 is better.
        assert!(within_bound(100.0, 109.0, Better::Lower, 0.10));
        assert!(!within_bound(100.0, 111.0, Better::Lower, 0.10));
        assert!(within_bound(100.0, 90.0, Better::Lower, 0.0));
        // Higher is better: 100 -> 91 is 9 % worse.
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 120.0, Better::Higher, 0.0));
        // An exact-count metric (bound 0) must not move the wrong way.
        assert!(within_bound(0.25, 0.25, Better::Lower, 0.0));
        assert!(!within_bound(0.25, 0.26, Better::Lower, 0.0));
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert!(!within_bound(0.0, 1.0, Better::Lower, 0.25));
    }
}
