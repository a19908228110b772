//! Order statistics over benchmark samples.

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here are
/// the ones a reader recomputes from the raw values. One value is its
/// own quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The median (the middle cut of [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest rank (1-based) of percentile `p` among `n` samples. The
/// small tolerance keeps `0.999 × 10000` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// Percentiles a tail is reported at, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// The highest of [`TAILS`] that leaves at least ten samples beyond it
/// among `n` samples (nearest rank), or the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(quartiles(&[]).1.is_nan());
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[2.0], 99.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        // 999 samples: p99 is rank 990, leaving only 9 beyond it.
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        for n in [100usize, 200, 1_000, 1_234, 50_000] {
            let p = tail_percentile(n);
            let beyond = n - rank(p, n);
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }
}
