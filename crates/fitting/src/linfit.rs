//! Non-negative linear model fitting over feature rows.
//!
//! The speed functions of §3.2 (Eqns 3/4) become *linear* in their
//! coefficients once the speed is inverted:
//!
//! * async: `w / f(p,w) = θ₀ + θ₁·(w/p) + θ₂·w + θ₃·p`
//! * sync:  `1 / f(p,w) = θ₀·(M/w) + θ₁ + θ₂·(w/p) + θ₃·w + θ₄·p`
//!
//! with all θ ≥ 0. This module fits such models with NNLS given their
//! feature rows. `optimus-core`'s speed models refit through
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planted_nonneg_coefficients() {
        let theta = [1.02, 2.78, 4.92, 0.0, 0.02];
        let rows: Vec<Vec<f64>> = (1..=12)
            .flat_map(|p| (1..=12).map(move |w| (p as f64, w as f64)))
            .map(|(p, w)| vec![32.0 / w, 1.0, w / p, w, p])
            .collect();
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(theta.iter()).map(|(f, t)| f * t).sum())
            .collect();
        let m = NonNegLinearFit.fit_rows(&rows, &targets).unwrap();
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
    fn negative_tendency_clamped() {
        // Targets decrease with the feature, so unconstrained LS would be
        // negative; NNLS clamps to zero.
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let m = NonNegLinearFit.fit_rows(&rows, &[3.0, 2.0, 1.0]).unwrap();
        assert!(m.theta[0] >= 0.0);
    }
}
