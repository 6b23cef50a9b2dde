//! Metric math shared by every workload: medians, the percentile ladder
//! used for tails, geometric means of class medians, and `tail_ratio`.

/// Percentiles a tail may be reported at, lowest first. The reported
/// tail is the highest rung with at least [`MIN_BEYOND`] samples above it.
pub const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile that leaves at least [`MIN_BEYOND`]
/// of `n` samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(n.max(1), p)) >= MIN_BEYOND)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median latency of class `c`, `None` when it has no samples.
fn class_median(samples: &[(usize, f64)], c: usize) -> Option<f64> {
    let v: Vec<f64> = samples.iter().filter(|s| s.0 == c).map(|s| s.1).collect();
    (!v.is_empty()).then(|| median(&v))
}

/// Median latency of each class, in class-index order; classes with no
/// samples are skipped.
pub fn class_medians(samples: &[(usize, f64)], classes: usize) -> Vec<f64> {
    (0..classes)
        .filter_map(|c| class_median(samples, c))
        .collect()
}

/// `class_p50`: geometric mean over classes of each class's median.
pub fn class_p50(samples: &[(usize, f64)], classes: usize) -> f64 {
    geomean(&class_medians(samples, classes))
}

/// A tail statistic together with the percentile and sample count it
/// was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// `tail_ratio`: each sample's latency divided by its own class's
/// median, then the highest ladder percentile of those ratios that
/// keeps [`MIN_BEYOND`] samples beyond it.
pub fn tail_ratio(samples: &[(usize, f64)], classes: usize) -> Tail {
    let medians: Vec<Option<f64>> = (0..classes).map(|c| class_median(samples, c)).collect();
    let ratios: Vec<f64> = samples
        .iter()
        .filter_map(|&(c, x)| medians[c].filter(|m| *m > 0.0).map(|m| x / m))
        .collect();
    let p = tail_percentile(ratios.len()).unwrap_or(50.0);
    Tail {
        value: percentile(&ratios, p),
        percentile: p,
        samples: ratios.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_percentile_with_ten_beyond() {
        // Too few samples for any rung.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: p50 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
        // The chosen rung really leaves ten beyond.
        for n in [20, 57, 100, 333, 1000, 4321] {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&v, p);
            assert!(
                v.iter().filter(|x| **x > cut).count() >= MIN_BEYOND,
                "n={n}"
            );
        }
    }

    #[test]
    fn geometric_mean_of_class_medians() {
        // Class 0 median 2, class 1 median 8: geomean 4.
        let s = vec![(0, 1.0), (0, 2.0), (0, 3.0), (1, 8.0), (1, 7.0), (1, 9.0)];
        assert_eq!(class_medians(&s, 2), vec![2.0, 8.0]);
        assert!((class_p50(&s, 2) - 4.0).abs() < 1e-12);
        // A class with no samples is skipped, not counted as zero.
        assert!((class_p50(&s, 3) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_ratio_normalises_by_own_class() {
        // Two classes 100x apart, each with 60 samples at its median and
        // a slow tail: the ratio ignores the gap between classes.
        let mut s = Vec::new();
        for i in 0..60 {
            s.push((0, if i < 50 { 1.0 } else { 3.0 }));
            s.push((1, if i < 50 { 100.0 } else { 300.0 }));
        }
        let t = tail_ratio(&s, 2);
        assert_eq!(t.samples, 120);
        assert_eq!(t.percentile, 90.0);
        // 20 of 120 ratios are 3.0; p90 falls among them.
        assert_eq!(t.value, 3.0);
        // Uniform latencies give a ratio of exactly one.
        let flat: Vec<(usize, f64)> = (0..50).map(|i| (i % 2, 5.0)).collect();
        assert_eq!(tail_ratio(&flat, 2).value, 1.0);
    }
}
