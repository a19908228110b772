//! Small statistics helpers shared by the fitters and the experiment
//! harness (means, deviations, medians, relative errors).

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0.0 for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Median (average of the two middle values for even lengths); 0.0 for an
/// empty slice. NaNs are sorted to the end and effectively ignored for
/// typical inputs.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `p`-th percentile (0 ≤ p ≤ 100) with linear interpolation; 0.0 for an
/// empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending slice:
/// the `⌈q·n⌉`-th smallest value (the smallest at `q = 0`); 0.0 for an
/// empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The JCT-style `(p50, p95, p99)` digest of a sample set, each exact
/// (linear interpolation, not bucketed); `(0, 0, 0)` for an empty slice.
pub fn p50_p95_p99(xs: &[f64]) -> (f64, f64, f64) {
    (
        percentile(xs, 50.0),
        percentile(xs, 95.0),
        percentile(xs, 99.0),
    )
}

/// Relative error `|estimate − truth| / |truth|`; `|estimate|` when the
/// truth is zero.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        estimate.abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Signed relative error `(estimate − truth) / |truth|` (the paper's Fig 6
/// prediction-error metric is signed).
pub fn signed_relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        estimate
    } else {
        (estimate - truth) / truth.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let s = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let cases = [
            (0.0, 1.0),
            (0.25, 1.0),
            (0.26, 2.0),
            (0.5, 2.0),
            (0.95, 4.0),
            (1.0, 4.0),
        ];
        for (q, want) in cases {
            assert_eq!(nearest_rank(&xs, q), want, "q = {q}");
        }
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!((percentile(&xs, 25.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_digest_matches_percentile() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let (p50, p95, p99) = p50_p95_p99(&xs);
        assert_eq!(p50, percentile(&xs, 50.0));
        assert_eq!(p95, percentile(&xs, 95.0));
        assert_eq!(p99, percentile(&xs, 99.0));
        assert!(p50 < p95 && p95 < p99);
        assert_eq!(p50_p95_p99(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn relative_errors() {
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((signed_relative_error(9.0, 10.0) + 0.1).abs() < 1e-12);
        assert_eq!(relative_error(3.0, 0.0), 3.0);
    }
}
