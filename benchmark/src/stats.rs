//! The percentile rule: a timing is reported as its median plus the
//! highest percentile that still has at least ten samples beyond it, and
//! always with its sample count.

/// Percentiles a tail may be reported at, highest first, each with the
/// smallest sample count that leaves ten samples beyond it.
const TAILS: [(f64, usize); 4] = [(99.9, 10_000), (99.0, 1_000), (95.0, 200), (90.0, 100)];

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: a workload that reports a metric must have
/// measured it at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest reportable percentile for `n` samples, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&(_, least)| n >= least)
        .map(|(p, _)| p)
}

/// `(tail percentile, its value)` of `samples` under the rule above.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    tail_percentile(samples.len()).map(|p| (p, percentile(samples, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..50]), None);
    }
}
