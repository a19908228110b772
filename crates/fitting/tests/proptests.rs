//! Property-based tests for the numerical substrate.

use optimus_fitting::preprocess::{preprocess_losses, PreprocessOptions};
use optimus_fitting::{nnls, LossCurveFitter, Matrix, NonNegLinearFit};
use proptest::prelude::*;

proptest! {
    /// NNLS solutions are always feasible (x ≥ 0) and never beat the
    /// residual of the zero vector by being infeasible.
    #[test]
    fn nnls_solution_is_feasible_and_no_worse_than_zero(
        rows in 2usize..8,
        cols in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64 for deterministic pseudo-random doubles in [-5, 5].
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 10_000) as f64 / 1000.0) - 5.0
        };
        let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        let b: Vec<f64> = (0..rows).map(|_| next()).collect();
        let a = Matrix::from_vec(rows, cols, data).unwrap();
        let sol = nnls(&a, &b).unwrap();
        prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
        let zero_rss: f64 = b.iter().map(|v| v * v).sum();
        prop_assert!(sol.residual_ss <= zero_rss + 1e-9);
    }

    /// NNLS on a consistent non-negative system recovers a solution with
    /// near-zero residual.
    #[test]
    fn nnls_recovers_consistent_system(
        x0 in 0.0f64..10.0,
        x1 in 0.0f64..10.0,
        n in 4usize..30,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 + 1.0, ((i * 7) % 5) as f64])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let b: Vec<f64> = rows.iter().map(|r| r[0] * x0 + r[1] * x1).collect();
        let sol = nnls(&a, &b).unwrap();
        prop_assert!(sol.residual_ss < 1e-6, "rss = {}", sol.residual_ss);
    }

    /// Preprocessing preserves length, step order, and the [0,1] range when
    /// normalizing positive inputs.
    #[test]
    fn preprocess_preserves_shape(vals in prop::collection::vec(0.01f64..100.0, 1..80)) {
        let raw: Vec<(u64, f64)> = vals.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        let out = preprocess_losses(&raw, PreprocessOptions::default());
        prop_assert_eq!(out.samples.len(), raw.len());
        for (i, &(k, l)) in out.samples.iter().enumerate() {
            prop_assert_eq!(k, i as u64);
            prop_assert!(l.is_finite());
            prop_assert!(l <= 1.0 + 1e-9, "normalized loss {} > 1", l);
        }
    }

    /// The loss-curve fitter recovers planted curves to within a few
    /// percent across the coefficient ranges the model zoo uses.
    #[test]
    fn loss_fit_recovers_planted_curves(
        beta0 in 0.005f64..0.5,
        beta1 in 0.5f64..3.0,
        beta2 in 0.0f64..0.3,
    ) {
        let pts: Vec<(u64, f64)> = (0..300)
            .map(|k| (k, 1.0 / (beta0 * k as f64 + beta1) + beta2))
            .collect();
        let m = LossCurveFitter::new().without_normalization().fit(&pts).unwrap();
        // Check predictions rather than coefficients (the model is only
        // weakly identified when beta0*k >> beta1 quickly).
        for &(k, l) in pts.iter().step_by(29) {
            prop_assert!((m.loss_at(k) - l).abs() < 0.02,
                "at k={} predicted {} truth {}", k, m.loss_at(k), l);
        }
    }

    /// Fitted loss models are monotonically non-increasing in k.
    #[test]
    fn fitted_models_monotone(
        beta0 in 0.01f64..0.3,
        beta2 in 0.0f64..0.2,
    ) {
        let pts: Vec<(u64, f64)> = (0..100)
            .map(|k| (k, 1.0 / (beta0 * k as f64 + 1.0) + beta2))
            .collect();
        let m = LossCurveFitter::new().without_normalization().fit(&pts).unwrap();
        let mut prev = f64::INFINITY;
        for k in (0..2000).step_by(50) {
            let l = m.loss_at(k);
            prop_assert!(l <= prev + 1e-12);
            prev = l;
        }
    }

    /// Linear-fit predictions are exact on the training rows for consistent
    /// systems with non-negative ground truth.
    #[test]
    fn linfit_exact_on_consistent_data(
        t0 in 0.0f64..5.0,
        t1 in 0.0f64..5.0,
        t2 in 0.0f64..5.0,
    ) {
        let rows: Vec<Vec<f64>> = (1..=6)
            .flat_map(|p| (1..=6).map(move |w| vec![1.0, p as f64, w as f64]))
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| t0 + t1 * r[1] + t2 * r[2]).collect();
        let m = NonNegLinearFit.fit_rows(&rows, &targets).unwrap();
        for (r, y) in rows.iter().zip(targets.iter()) {
            let pred = m.predict(r).unwrap();
            prop_assert!((pred - y).abs() < 1e-6);
        }
    }
}
