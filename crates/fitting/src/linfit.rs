//! Non-negative linear model fitting over arbitrary feature maps.
//!
//! The speed functions of §3.2 (Eqns 3/4) become *linear* in their
//! coefficients once the speed is inverted:
//!
//! * async: `w / f(p,w) = θ₀ + θ₁·(w/p) + θ₂·w + θ₃·p`
//! * sync:  `1 / f(p,w) = θ₀·(M/w) + θ₁ + θ₂·(w/p) + θ₃·w + θ₄·p`
//!
//! with all θ ≥ 0. This module fits such models with NNLS given a feature
//! map from samples to rows. `optimus-core`'s speed models refit through
//! the allocation-free [`crate::nnls::nnls_rows`] instead, and
//! [`NonNegLinearFit::fit_rows`] is the oracle its equivalence suite
//! checks that refit against, bit for bit.

use crate::error::FitError;
use crate::linalg::Matrix;
use crate::nnls::{nnls, NnlsSolution};

/// A fitted non-negative linear model `y ≈ θ · features(x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Coefficients θ (all ≥ 0).
    pub theta: Vec<f64>,
    /// Residual sum of squares at the solution.
    pub residual_ss: f64,
}

impl LinearModel {
    /// Evaluates the model on a feature row.
    ///
    /// Returns [`FitError::DimensionMismatch`] if the row length differs
    /// from the coefficient count.
    #[inline]
    pub fn predict(&self, features: &[f64]) -> Result<f64, FitError> {
        if features.len() != self.theta.len() {
            return Err(FitError::DimensionMismatch {
                context: "predict: feature length != theta length",
            });
        }
        Ok(self
            .theta
            .iter()
            .zip(features.iter())
            .map(|(t, f)| t * f)
            .sum())
    }
}

/// Fits non-negative linear models: `min ‖F·θ − y‖ s.t. θ ≥ 0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonNegLinearFit;

impl NonNegLinearFit {
    /// Fits the model given pre-computed feature rows and targets.
    ///
    /// Requires at least as many samples as features.
    pub fn fit_rows(&self, rows: &[Vec<f64>], targets: &[f64]) -> Result<LinearModel, FitError> {
        if rows.len() != targets.len() {
            return Err(FitError::DimensionMismatch {
                context: "fit_rows: rows/targets length mismatch",
            });
        }
        if rows.is_empty() {
            return Err(FitError::NotEnoughSamples { got: 0, need: 1 });
        }
        let width = rows[0].len();
        if rows.len() < width {
            return Err(FitError::NotEnoughSamples {
                got: rows.len(),
                need: width,
            });
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs)?;
        let NnlsSolution { x, residual_ss, .. } = nnls(&a, targets)?;
        Ok(LinearModel {
            theta: x,
            residual_ss,
        })
    }

    /// Fits a *weighted* model: `min Σ wᵢ·(θ·Fᵢ − yᵢ)² s.t. θ ≥ 0`.
    ///
    /// Each row and target is scaled by `√wᵢ` before the NNLS solve —
    /// the standard reduction of weighted least squares to ordinary
    /// least squares. Non-positive weights drop their samples.
    pub fn fit_rows_weighted(
        &self,
        rows: &[Vec<f64>],
        targets: &[f64],
        weights: &[f64],
    ) -> Result<LinearModel, FitError> {
        if rows.len() != weights.len() {
            return Err(FitError::DimensionMismatch {
                context: "fit_rows_weighted: rows/weights length mismatch",
            });
        }
        if rows.len() != targets.len() {
            return Err(FitError::DimensionMismatch {
                context: "fit_rows_weighted: rows/targets length mismatch",
            });
        }
        let mut wrows = Vec::with_capacity(rows.len());
        let mut wtargets = Vec::with_capacity(targets.len());
        for ((row, &y), &w) in rows.iter().zip(targets.iter()).zip(weights.iter()) {
            if !(w.is_finite() && w > 0.0) {
                continue;
            }
            let sw = w.sqrt();
            wrows.push(row.iter().map(|v| v * sw).collect::<Vec<f64>>());
            wtargets.push(y * sw);
        }
        self.fit_rows(&wrows, &wtargets)
    }

    /// Fits the model via a feature map applied to raw samples.
    pub fn fit<S>(
        &self,
        samples: &[S],
        targets: &[f64],
        features: impl Fn(&S) -> Vec<f64>,
    ) -> Result<LinearModel, FitError> {
        let rows: Vec<Vec<f64>> = samples.iter().map(features).collect();
        self.fit_rows(&rows, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planted_nonneg_coefficients() {
        let theta = [1.02, 2.78, 4.92, 0.0, 0.02];
        let samples: Vec<(f64, f64)> = (1..=12)
            .flat_map(|p| (1..=12).map(move |w| (p as f64, w as f64)))
            .collect();
        let feat = |s: &(f64, f64)| {
            let (p, w) = *s;
            vec![32.0 / w, 1.0, w / p, w, p]
        };
        let targets: Vec<f64> = samples
            .iter()
            .map(|s| {
                feat(s)
                    .iter()
                    .zip(theta.iter())
                    .map(|(f, t)| f * t)
                    .sum::<f64>()
            })
            .collect();
        let m = NonNegLinearFit.fit(&samples, &targets, feat).unwrap();
        for (got, want) in m.theta.iter().zip(theta.iter()) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!(m.residual_ss < 1e-10);
    }

    #[test]
    fn prediction_roundtrip() {
        let m = LinearModel {
            theta: vec![2.0, 3.0],
            residual_ss: 0.0,
        };
        assert_eq!(m.predict(&[1.0, 1.0]).unwrap(), 5.0);
        assert!(m.predict(&[1.0]).is_err());
    }

    #[test]
    fn underdetermined_rejected() {
        let rows = vec![vec![1.0, 2.0, 3.0]];
        assert!(matches!(
            NonNegLinearFit.fit_rows(&rows, &[1.0]),
            Err(FitError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rows = vec![vec![1.0], vec![2.0]];
        assert!(NonNegLinearFit.fit_rows(&rows, &[1.0]).is_err());
    }

    #[test]
    fn weighted_fit_prioritizes_heavy_samples() {
        // Two inconsistent clusters of samples; the heavily weighted one
        // must dominate the fitted slope.
        let rows: Vec<Vec<f64>> = (1..=6).map(|i| vec![i as f64]).collect();
        // First three targets follow slope 2, last three slope 5.
        let targets = [2.0, 4.0, 6.0, 20.0, 25.0, 30.0];
        let heavy_first = NonNegLinearFit
            .fit_rows_weighted(&rows, &targets, &[100.0, 100.0, 100.0, 0.01, 0.01, 0.01])
            .unwrap();
        assert!(
            (heavy_first.theta[0] - 2.0).abs() < 0.2,
            "{:?}",
            heavy_first
        );
        let heavy_last = NonNegLinearFit
            .fit_rows_weighted(&rows, &targets, &[0.01, 0.01, 0.01, 100.0, 100.0, 100.0])
            .unwrap();
        assert!((heavy_last.theta[0] - 5.0).abs() < 0.2, "{:?}", heavy_last);
    }

    #[test]
    fn weighted_fit_drops_nonpositive_weights() {
        let rows: Vec<Vec<f64>> = (1..=4).map(|i| vec![i as f64]).collect();
        // The outlier's weight is zero, so the fit is exact.
        let targets = [3.0, 6.0, 9.0, 999.0];
        let m = NonNegLinearFit
            .fit_rows_weighted(&rows, &targets, &[1.0, 1.0, 1.0, 0.0])
            .unwrap();
        assert!((m.theta[0] - 3.0).abs() < 1e-9);
        assert!(m.residual_ss < 1e-12);
    }

    #[test]
    fn weighted_fit_validates_lengths() {
        let rows = vec![vec![1.0], vec![2.0]];
        assert!(NonNegLinearFit
            .fit_rows_weighted(&rows, &[1.0, 2.0], &[1.0])
            .is_err());
        assert!(NonNegLinearFit
            .fit_rows_weighted(&rows, &[1.0], &[1.0, 1.0])
            .is_err());
    }

    #[test]
    fn negative_tendency_clamped() {
        // Targets decrease with the feature, so unconstrained LS would be
        // negative; NNLS clamps to zero.
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let m = NonNegLinearFit.fit_rows(&rows, &[3.0, 2.0, 1.0]).unwrap();
        assert!(m.theta[0] >= 0.0);
    }
}
