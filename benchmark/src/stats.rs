//! Order statistics used by every workload: nearest-rank percentiles,
//! medians, geometric means, and the "median of window percentiles" rule
//! that keeps a tail percentile steady on a shared box.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` of the samples at or below it. `p` in `(0, 1]`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their nearest-rank percentile.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    percentile(values, p)
}

/// Nearest-rank median (sorts `values`).
pub fn median(values: &mut [f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Cuts `samples` (in arrival order) into equal runs of at least
/// `min_per_window` samples — as many as fit, up to `max_windows` — takes
/// percentile `p` of each, and returns the median of those. On a shared
/// box a neighbour's burst then moves some windows, not the reported
/// figure. With too few samples for two windows it is the plain percentile.
pub fn windowed_percentile(
    samples: &[f64],
    p: f64,
    max_windows: usize,
    min_per_window: usize,
) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let windows = (samples.len() / min_per_window.max(1)).min(max_windows);
    if windows < 2 {
        return percentile_of(&mut samples.to_vec(), p);
    }
    let per = samples.len() / windows;
    let mut each: Vec<f64> = samples
        .chunks(per)
        .take(windows)
        .map(|w| percentile_of(&mut w.to_vec(), p))
        .collect();
    median(&mut each)
}

/// Mean of a slice (zero for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        // Five samples: p50 is the third, p99 the fifth.
        let w = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&w, 0.5), 30);
        assert_eq!(percentile(&w, 0.99), 50);
        assert_eq!(percentile(&w, 0.2), 10);
        assert_eq!(percentile(&w, 0.21), 20);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        // Five windows of 100; one window carries a burst of outliers.
        let mut samples = vec![1.0; 500];
        for s in samples.iter_mut().skip(200).take(50) {
            *s = 1000.0;
        }
        assert_eq!(windowed_percentile(&samples, 0.99, 5, 20), 1.0);
        // The plain percentile sees the burst.
        assert_eq!(percentile_of(&mut samples.clone(), 0.99), 1000.0);
        // 500 samples at 200 a window make two windows, not five; the
        // nearest-rank median of two is the calmer one.
        assert_eq!(windowed_percentile(&samples, 0.99, 5, 200), 1.0);
        assert_eq!(windowed_percentile(&samples, 0.99, 5, 300), 1000.0);
        // Too few samples for two windows: plain percentile.
        assert_eq!(windowed_percentile(&[1.0, 9.0], 0.99, 5, 20), 9.0);
    }
}
