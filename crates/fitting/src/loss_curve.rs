//! Online convergence-curve fitting (§3.1, Eqn 1).
//!
//! Optimus models the training loss of an SGD job as
//! `l(k) = 1/(β₀·k + β₁) + β₂` with non-negative coefficients, reflecting
//! SGD's `O(1/k)` convergence rate. The model is nonlinear in `β₂` but,
//! for a *fixed* `β₂`, `1/(l − β₂) = β₀·k + β₁` is linear and non-negative
//! — exactly an NNLS problem. The fitter therefore scans `β₂` over a grid
//! with golden-section refinement and solves an NNLS per candidate,
//! keeping the candidate with the smallest loss-space residual.

use crate::error::FitError;
use crate::linalg::Matrix;
use crate::nnls::{nnls, nnls_traced};
use crate::preprocess::{preprocess_losses, LossSample, PreprocessOptions, PreprocessScratch};
use optimus_telemetry::Telemetry;

/// Points of the β₂ grid scan, both ends of `[0, hi]` included.
pub(crate) const GRID_POINTS: usize = 32;

/// Golden-section refinement iterations around the best grid cell.
pub(crate) const REFINE_ITERS: usize = 40;

/// `1/φ`, the golden-section step.
pub(crate) const INV_PHI: f64 = 0.618_033_988_749_895;

/// A fitted convergence curve `l(k) = 1/(β₀·k + β₁) + β₂`.
///
/// Coefficients are in *normalized* loss units (the preprocessing divides
/// by the running maximum loss); [`LossModel::scale`] converts back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Slope coefficient β₀ (≥ 0); larger means faster convergence.
    pub beta0: f64,
    /// Offset coefficient β₁ (≥ 0); `1/β₁ + β₂` is the loss at step 0.
    pub beta1: f64,
    /// Asymptotic floor β₂ (≥ 0): the loss the model converges to.
    pub beta2: f64,
    /// Normalization divisor applied to raw losses before fitting.
    pub scale: f64,
    /// Residual sum of squares in normalized loss space.
    pub residual_ss: f64,
}

impl LossModel {
    /// Predicted normalized loss after `k` steps.
    pub fn loss_at(&self, k: u64) -> f64 {
        let denom = self.beta0 * k as f64 + self.beta1;
        if denom <= 0.0 {
            // Degenerate fit: report the floor.
            return self.beta2;
        }
        1.0 / denom + self.beta2
    }

    /// Predicted raw (unnormalized) loss after `k` steps.
    pub fn raw_loss_at(&self, k: u64) -> f64 {
        self.loss_at(k) * self.scale
    }

    /// Per-epoch loss decrease at epoch `epoch`, where one epoch is
    /// `steps_per_epoch` steps: `l(e·E) − l((e+1)·E)`.
    pub fn epoch_decrease(&self, epoch: u64, steps_per_epoch: u64) -> f64 {
        let k0 = epoch.saturating_mul(steps_per_epoch);
        let k1 = (epoch + 1).saturating_mul(steps_per_epoch);
        self.loss_at(k0) - self.loss_at(k1)
    }

    /// The first epoch index at which the per-epoch loss decrease falls
    /// below `threshold · Δ(0)` — the paper's convergence point (before
    /// the "for several epochs" patience, which is additive).
    ///
    /// The owner-specified threshold (1 %–5 % in the paper) is relative
    /// to the curve's own initial per-epoch decrease `Δ(0)`; see the
    /// ground-truth counterpart in `optimus-workload` and DESIGN.md for
    /// why the relative reading is the consistent one for this curve
    /// family.
    ///
    /// Returns `None` when `threshold ≤ 0`, `steps_per_epoch == 0`, or the
    /// curve never drops below the threshold within `2⁴⁰` epochs (a
    /// pathological fit).
    pub fn convergence_epoch(&self, threshold: f64, steps_per_epoch: u64) -> Option<u64> {
        if threshold <= 0.0 || steps_per_epoch == 0 {
            return None;
        }
        if self.beta0 <= 0.0 {
            // Flat curve: decrease is 0 everywhere, converged immediately.
            return Some(0);
        }
        let bar = threshold * self.epoch_decrease(0, steps_per_epoch);
        if bar <= 0.0 {
            return Some(0);
        }
        // The decrease is monotonically decreasing in the epoch index, so
        // binary-search the first epoch below the bar.
        const CAP: u64 = 1 << 40;
        if self.epoch_decrease(0, steps_per_epoch) < bar {
            return Some(0);
        }
        if self.epoch_decrease(CAP, steps_per_epoch) >= bar {
            return None;
        }
        let (mut lo, mut hi) = (0u64, CAP);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.epoch_decrease(mid, steps_per_epoch) < bar {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// Total steps needed to converge: the convergence epoch plus a
    /// patience of `patience_epochs` ("consistently fallen below ... for
    /// several epochs"), in steps.
    pub fn convergence_step(
        &self,
        threshold: f64,
        steps_per_epoch: u64,
        patience_epochs: u64,
    ) -> Option<u64> {
        self.convergence_epoch(threshold, steps_per_epoch)
            .map(|e| (e + patience_epochs).saturating_mul(steps_per_epoch))
    }

    /// Steps remaining from `current_step` until convergence (0 if already
    /// converged according to the model).
    pub fn remaining_steps(
        &self,
        current_step: u64,
        threshold: f64,
        steps_per_epoch: u64,
        patience_epochs: u64,
    ) -> Option<u64> {
        self.convergence_step(threshold, steps_per_epoch, patience_epochs)
            .map(|total| total.saturating_sub(current_step))
    }
}

/// Online fitter for the §3.1 convergence curve.
///
/// # Examples
///
/// ```
/// use optimus_fitting::LossCurveFitter;
///
/// // Ground truth: l(k) = 1/(0.2·k + 1.0) + 0.05.
/// let pts: Vec<(u64, f64)> = (0..200)
///     .map(|k| (k, 1.0 / (0.2 * k as f64 + 1.0) + 0.05))
///     .collect();
/// let model = LossCurveFitter::new().fit(&pts).unwrap();
/// assert!((model.beta0 - 0.2).abs() < 0.02);
/// assert!((model.beta2 - 0.05).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct LossCurveFitter {
    pub(crate) preprocess: PreprocessOptions,
    /// Telemetry sink for the per-candidate NNLS solves (disabled by
    /// default).
    pub(crate) tel: Telemetry,
}

impl Default for LossCurveFitter {
    fn default() -> Self {
        Self::new()
    }
}

impl LossCurveFitter {
    /// Creates a fitter with the paper's defaults (window 5, normalization
    /// on, 32-point β₂ grid).
    pub fn new() -> Self {
        LossCurveFitter {
            preprocess: PreprocessOptions::default(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every NNLS sub-solve of the β₂ scan
    /// then feeds `nnls.solves` / `nnls.iterations` / `nnls.fit_failures`,
    /// and each [`LossCurveFitter::fit`] call bumps `loss_curve.fits`.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Disables loss normalization (useful when the caller already
    /// normalized).
    pub fn without_normalization(mut self) -> Self {
        self.preprocess.normalize = false;
        self
    }

    /// Overrides the outlier-test window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.preprocess.window = window;
        self
    }

    /// Fits the model to raw `(step, loss)` samples.
    ///
    /// Returns [`FitError::NotEnoughSamples`] for fewer than 3 distinct
    /// steps and [`FitError::NoViableModel`] if every β₂ candidate fails.
    pub fn fit(&self, raw: &[LossSample]) -> Result<LossModel, FitError> {
        self.tel.incr("loss_curve.fits");
        let pre = preprocess_losses(raw, self.preprocess);
        let samples = &pre.samples;
        let distinct = count_distinct_steps(samples);
        if distinct < 3 {
            return Err(FitError::NotEnoughSamples {
                got: distinct,
                need: 3,
            });
        }

        let min_loss = samples
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        if !min_loss.is_finite() {
            return Err(FitError::NonFiniteInput {
                context: "loss samples after preprocessing",
            });
        }

        // β₂ lives in [0, min_loss): the floor cannot exceed any observed
        // loss (modulo noise; the small margin below handles that).
        let hi = (min_loss - 1e-9).max(0.0);
        let mut best: Option<(f64, LossModel)> = None;
        for i in 0..GRID_POINTS {
            let beta2 = hi * i as f64 / (GRID_POINTS - 1) as f64;
            if let Ok(m) = fit_for_beta2(samples, beta2, pre.scale, &self.tel) {
                if best.as_ref().is_none_or(|(r, _)| m.residual_ss < *r) {
                    best = Some((m.residual_ss, m));
                }
            }
        }
        let Some((_, grid_best)) = best else {
            return Err(FitError::NoViableModel);
        };

        // Golden-section refinement of β₂ around the best grid cell.
        let cell = hi / (GRID_POINTS - 1) as f64;
        let mut a = (grid_best.beta2 - cell).max(0.0);
        let mut b = (grid_best.beta2 + cell).min(hi);
        let mut best_model = grid_best;
        if b > a {
            let mut c = b - (b - a) * INV_PHI;
            let mut d = a + (b - a) * INV_PHI;
            let mut fc = residual_for_beta2(samples, c, pre.scale, &self.tel);
            let mut fd = residual_for_beta2(samples, d, pre.scale, &self.tel);
            for _ in 0..REFINE_ITERS {
                if fc < fd {
                    b = d;
                    d = c;
                    fd = fc;
                    c = b - (b - a) * INV_PHI;
                    fc = residual_for_beta2(samples, c, pre.scale, &self.tel);
                } else {
                    a = c;
                    c = d;
                    fc = fd;
                    d = a + (b - a) * INV_PHI;
                    fd = residual_for_beta2(samples, d, pre.scale, &self.tel);
                }
            }
            let beta2 = (a + b) / 2.0;
            if let Ok(m) = fit_for_beta2(samples, beta2, pre.scale, &self.tel) {
                if m.residual_ss < best_model.residual_ss {
                    best_model = m;
                }
            }
        }
        Ok(best_model)
    }
}

/// Reusable per-job state for [`crate::fit_batch`].
///
/// Holds the incremental preprocessing state, the per-call
/// exact-evaluation memo, and the warm-start grid index carried between
/// fits. One session belongs to one logical loss history; feeding
/// histories from different jobs through the same session is safe (the
/// incremental preprocessing falls back to a full pass when prefixes
/// don't match, and the memo is cleared per call) but forfeits the
/// speedup.
#[derive(Debug, Clone, Default)]
pub struct FitSession {
    /// Incremental preprocessing state + scratch.
    pub(crate) pre: PreprocessScratch,
    /// Per-call memo: β₂ bit pattern → exact fit outcome (`None` = the
    /// candidate failed). Only *exact* (never abandoned) evaluations
    /// are stored. Cleared at the start of every fit: the residual is
    /// a function of the data, which may have changed.
    pub(crate) memo: Vec<(u64, Option<LossModel>)>,
    /// Grid index of the previous fit's best grid candidate — the warm
    /// start for the next fit's scan.
    pub(crate) warm_grid_index: Option<usize>,
}

impl FitSession {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Number of distinct step indices (the model needs ≥ 3 to be identified).
fn count_distinct_steps(samples: &[LossSample]) -> usize {
    let mut steps: Vec<u64> = samples.iter().map(|&(k, _)| k).collect();
    steps.sort_unstable();
    steps.dedup();
    steps.len()
}

/// Residual (loss space) of the best (β₀, β₁) for a fixed β₂, or +∞.
fn residual_for_beta2(samples: &[LossSample], beta2: f64, scale: f64, tel: &Telemetry) -> f64 {
    fit_for_beta2(samples, beta2, scale, tel)
        .map(|m| m.residual_ss)
        .unwrap_or(f64::INFINITY)
}

/// NNLS sub-fit of (β₀, β₁) for fixed β₂.
///
/// The linearized system `1/(l−β₂) = β₀·k + β₁` is weighted per-row by
/// `(l−β₂)²`: to first order, a transformed-space residual Δd maps to a
/// loss-space error of `gap²·Δd`, so this weighting makes the linear fit
/// minimize (approximately) the loss-space residual instead of letting
/// near-converged tail points with exploding `1/gap` dominate. The final
/// residual is evaluated exactly in loss space.
fn fit_for_beta2(
    samples: &[LossSample],
    beta2: f64,
    scale: f64,
    tel: &Telemetry,
) -> Result<LossModel, FitError> {
    let mut rows: Vec<[f64; 2]> = Vec::with_capacity(samples.len());
    let mut ys: Vec<f64> = Vec::with_capacity(samples.len());
    for &(k, l) in samples {
        let gap = l - beta2;
        if gap <= 1e-9 {
            // Point at/below the floor candidate: uninformative for the
            // transformed regression; skip it (residual still counts it).
            continue;
        }
        let weight = gap * gap;
        rows.push([weight * k as f64, weight]);
        ys.push(gap); // = weight · (1/gap)
    }
    if rows.len() < 2 {
        return Err(FitError::NotEnoughSamples {
            got: rows.len(),
            need: 2,
        });
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let a = Matrix::from_rows(&refs)?;
    let sol = if tel.is_enabled() {
        nnls_traced(&a, &ys, tel)?
    } else {
        nnls(&a, &ys)?
    };
    let (beta0, beta1) = (sol.x[0], sol.x[1]);
    let model = LossModel {
        beta0,
        beta1,
        beta2,
        scale,
        residual_ss: 0.0,
    };
    let rss: f64 = samples
        .iter()
        .map(|&(k, l)| {
            let e = model.loss_at(k) - l;
            e * e
        })
        .sum();
    Ok(LossModel {
        residual_ss: rss,
        ..model
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(beta0: f64, beta1: f64, beta2: f64, n: u64) -> Vec<LossSample> {
        (0..n)
            .map(|k| (k, 1.0 / (beta0 * k as f64 + beta1) + beta2))
            .collect()
    }

    #[test]
    fn exact_recovery_without_noise() {
        let pts = synth(0.21, 1.07, 0.07, 120);
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        assert!((m.beta0 - 0.21).abs() < 0.01, "beta0={}", m.beta0);
        assert!((m.beta1 - 1.07).abs() < 0.05, "beta1={}", m.beta1);
        assert!((m.beta2 - 0.07).abs() < 0.005, "beta2={}", m.beta2);
        assert!(m.residual_ss < 1e-6);
    }

    #[test]
    fn seq2seq_paper_coefficients_shape() {
        // Fig 7 reports β₀=0.21, β₁=1.07, β₂=0.07 for Seq2Seq; check the
        // fitter reproduces a curve predicting the same losses.
        let pts = synth(0.21, 1.07, 0.07, 200);
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        for &(k, l) in pts.iter().step_by(17) {
            assert!((m.loss_at(k) - l).abs() < 1e-3);
        }
    }

    #[test]
    fn too_few_points_rejected() {
        let pts = synth(0.2, 1.0, 0.0, 2);
        assert!(matches!(
            LossCurveFitter::new().fit(&pts),
            Err(FitError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn normalization_scale_reported() {
        let pts: Vec<LossSample> = synth(0.1, 0.2, 0.0, 50); // first loss = 5.0
        let m = LossCurveFitter::new().fit(&pts).unwrap();
        assert!((m.scale - 5.0).abs() < 1e-9);
        // raw_loss_at(0) should be ≈ 5.0.
        assert!((m.raw_loss_at(0) - 5.0).abs() < 0.2);
    }

    #[test]
    fn convergence_epoch_monotone_in_threshold() {
        let pts = synth(0.05, 1.0, 0.05, 400);
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        let e_tight = m.convergence_epoch(0.001, 10).unwrap();
        let e_loose = m.convergence_epoch(0.01, 10).unwrap();
        assert!(e_tight >= e_loose, "{e_tight} vs {e_loose}");
    }

    #[test]
    fn convergence_step_includes_patience() {
        let pts = synth(0.05, 1.0, 0.05, 400);
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        let no_patience = m.convergence_step(0.01, 10, 0).unwrap();
        let with_patience = m.convergence_step(0.01, 10, 3).unwrap();
        assert_eq!(with_patience, no_patience + 30);
    }

    #[test]
    fn remaining_steps_saturates_at_zero() {
        let pts = synth(0.5, 1.0, 0.0, 200);
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        let total = m.convergence_step(0.05, 5, 1).unwrap();
        assert_eq!(m.remaining_steps(total + 100, 0.05, 5, 1), Some(0));
    }

    #[test]
    fn invalid_threshold_is_none() {
        let pts = synth(0.5, 1.0, 0.0, 50);
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        assert_eq!(m.convergence_epoch(0.0, 10), None);
        assert_eq!(m.convergence_epoch(-1.0, 10), None);
        assert_eq!(m.convergence_epoch(0.01, 0), None);
    }

    #[test]
    fn flat_curve_converges_immediately() {
        let m = LossModel {
            beta0: 0.0,
            beta1: 1.0,
            beta2: 0.3,
            scale: 1.0,
            residual_ss: 0.0,
        };
        assert_eq!(m.convergence_epoch(0.01, 10), Some(0));
    }

    #[test]
    fn fit_tolerates_outlier_spikes() {
        let mut pts = synth(0.21, 1.07, 0.07, 150);
        pts[40].1 = 50.0;
        pts[90].1 = 0.0;
        let m = LossCurveFitter::new()
            .without_normalization()
            .fit(&pts)
            .unwrap();
        assert!((m.beta0 - 0.21).abs() < 0.05, "beta0={}", m.beta0);
    }

    #[test]
    fn prediction_improves_with_more_data() {
        // Fitting on a short prefix vs a long prefix of the same noisy
        // curve: the long fit must predict the far future better (Fig 6).
        let true_b = (0.02, 1.0, 0.1);
        let noisy: Vec<LossSample> = (0..1000)
            .map(|k| {
                let base = 1.0 / (true_b.0 * k as f64 + true_b.1) + true_b.2;
                // Deterministic pseudo-noise.
                let jitter = ((k * 2654435761 % 1000) as f64 / 1000.0 - 0.5) * 0.01;
                (k, base + jitter)
            })
            .collect();
        let fitter = LossCurveFitter::new().without_normalization();
        let early = fitter.fit(&noisy[..30]).unwrap();
        let late = fitter.fit(&noisy[..600]).unwrap();
        let truth_at = |k: u64| 1.0 / (true_b.0 * k as f64 + true_b.1) + true_b.2;
        let err_early = (early.loss_at(900) - truth_at(900)).abs();
        let err_late = (late.loss_at(900) - truth_at(900)).abs();
        assert!(
            err_late <= err_early + 1e-6,
            "late {err_late} vs early {err_early}"
        );
    }
}
