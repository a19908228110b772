//! Resource→speed models (§3.2, Eqns 3 and 4).
//!
//! The training speed of a job as a function of its parameter-server and
//! worker counts is learned, not measured term by term: before a job
//! starts, the scheduler profiles it for a few steps under a handful of
//! `(p, w)` combinations; during execution every observed
//! `(p, w, speed)` sample keeps calibrating the model.
//!
//! Both speed functions are linear in their coefficients after
//! inversion, so fitting is a single NNLS solve:
//!
//! * **asynchronous** (Eqn 3): `f(p,w) = w·(θ₀ + θ₁·w/p + θ₂·w + θ₃·p)⁻¹`
//!   → regress `w/f` on `[1, w/p, w, p]`;
//! * **synchronous** (Eqn 4): `f(p,w) = (θ₀·M/w + θ₁ + θ₂·w/p + θ₃·w +
//!   θ₄·p)⁻¹` → regress `1/f` on `[M/w, 1, w/p, w, p]`.

use optimus_fitting::nnls::{nnls_rows, MAX_WIDTH};
use optimus_fitting::{FitError, LinearModel};
use optimus_telemetry::Telemetry;
use optimus_workload::TrainingMode;
use serde::{Deserialize, Serialize};

/// One profiled or observed sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedSample {
    /// Parameter servers.
    pub p: u32,
    /// Workers.
    pub w: u32,
    /// Measured speed, steps/s (aggregate steps for async).
    pub speed: f64,
}

/// A learned training-speed function `f(p, w)` for one job.
#[derive(Debug, Clone)]
pub struct SpeedModel {
    mode: TrainingMode,
    /// Global batch size `M` (used by the synchronous feature map).
    batch: f64,
    samples: Vec<SpeedSample>,
    model: Option<LinearModel>,
    /// Multiplier applied to every prediction (1.0 = unbiased). Used by
    /// the sensitivity experiments (Fig 15) to inject controlled
    /// speed-estimation error.
    prediction_scale: f64,
    /// Mutation generation: bumped by every [`Self::record`] and every
    /// successful [`Self::refit`]. Two models with equal generations
    /// (obtained via `clone` or [`Self::predictor`]) are bitwise-identical
    /// predictors, which is what the delta-round engine's job
    /// fingerprints compare instead of hashing coefficients. The prediction scale is fingerprinted
    /// separately (by value), so [`Self::set_prediction_scale`] does not
    /// bump it.
    gen: u64,
    /// Telemetry sink for the refit NNLS solves (disabled by default).
    tel: Telemetry,
}

impl SpeedModel {
    /// Creates an empty model for a job.
    pub fn new(mode: TrainingMode, batch: f64) -> Self {
        SpeedModel {
            mode,
            batch,
            samples: Vec::new(),
            model: None,
            prediction_scale: 1.0,
            gen: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: each [`SpeedModel::refit`] then
    /// counts as one `speed.refits` and routes its NNLS solve through the
    /// handle's `nnls.*` metrics.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// A copy that predicts exactly as this model does (the same mode,
    /// batch size, θ, prediction scale and generation) without the
    /// sample history, and with telemetry disabled. This is what a
    /// scheduler's [`crate::JobView`] needs: [`Self::predict`] reads
    /// nothing else, so copying a job's model each round stays O(θ)
    /// instead of O(history). A refit of the copy fails for want of
    /// samples.
    pub fn predictor(&self) -> SpeedModel {
        SpeedModel {
            mode: self.mode,
            batch: self.batch,
            samples: Vec::new(),
            model: self.model.clone(),
            prediction_scale: self.prediction_scale,
            gen: self.gen,
            tel: Telemetry::disabled(),
        }
    }

    /// Sets the prediction multiplier (Fig 15 error injection; 1.0 =
    /// unbiased).
    pub fn set_prediction_scale(&mut self, scale: f64) {
        self.prediction_scale = scale;
    }

    /// The current prediction multiplier.
    pub fn prediction_scale(&self) -> f64 {
        self.prediction_scale
    }

    /// The training mode this model describes.
    pub fn mode(&self) -> TrainingMode {
        self.mode
    }

    /// Records an observed `(p, w, speed)` sample. Non-finite or
    /// non-positive speeds and degenerate configurations are ignored
    /// (they carry no information about the feasible region).
    pub fn record(&mut self, p: u32, w: u32, speed: f64) {
        if p == 0 || w == 0 || !speed.is_finite() || speed <= 0.0 {
            return;
        }
        self.samples.push(SpeedSample { p, w, speed });
        self.gen += 1;
    }

    /// Mutation generation of this model: equal generations on clones of
    /// one model guarantee bit-identical predictions (at equal
    /// prediction scales). Monotone per model; not comparable across
    /// jobs.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Number of recorded samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// The recorded samples, oldest first (profiling runs, then the
    /// online observations).
    pub fn samples(&self) -> &[SpeedSample] {
        &self.samples
    }

    /// Refits the model by NNLS over all samples.
    ///
    /// Returns [`FitError::NotEnoughSamples`] until the sample count
    /// reaches the coefficient count; the previous model (if any)
    /// survives a failed refit.
    ///
    /// The result is `NonNegLinearFit::fit_rows` over the samples'
    /// feature rows and targets, bit for bit, with the same errors and
    /// `nnls.*` counters, but nothing is materialized:
    /// [`nnls_rows`] rebuilds each row from its sample on every pass,
    /// and the coefficients overwrite the previous fit's in place, so a
    /// refit of a fitted model allocates nothing.
    pub fn refit(&mut self) -> Result<(), FitError> {
        self.tel.incr("speed.refits");
        let (n, width) = (self.samples.len(), self.width());
        // `fit_rows`'s shape checks, in its order.
        if n == 0 {
            return Err(FitError::NotEnoughSamples { got: 0, need: 1 });
        }
        if n < width {
            return Err(FitError::NotEnoughSamples {
                got: n,
                need: width,
            });
        }
        self.tel.incr("nnls.solves");
        let solved = nnls_rows(n, width, |r| {
            let s = self.samples[r];
            let target = match self.mode {
                TrainingMode::Asynchronous => s.w as f64 / s.speed,
                TrainingMode::Synchronous => 1.0 / s.speed,
            };
            (self.feature_row(s.p, s.w).0, target)
        });
        let sol = match solved {
            Ok(sol) => sol,
            Err(e) => {
                self.tel.incr("nnls.fit_failures");
                return Err(e);
            }
        };
        self.tel.observe("nnls.iterations", sol.iterations as f64);
        let theta = &sol.x[..width];
        match &mut self.model {
            Some(model) => {
                model.theta.clear();
                model.theta.extend_from_slice(theta);
                model.residual_ss = sol.residual_ss;
            }
            None => {
                self.model = Some(LinearModel {
                    theta: theta.to_vec(),
                    residual_ss: sol.residual_ss,
                })
            }
        }
        self.gen += 1;
        Ok(())
    }

    /// True once a model has been fit.
    pub fn is_fit(&self) -> bool {
        self.model.is_some()
    }

    /// The fitted coefficients θ (empty before the first successful fit).
    pub fn coefficients(&self) -> &[f64] {
        self.model
            .as_ref()
            .map(|m| m.theta.as_slice())
            .unwrap_or(&[])
    }

    /// Residual sum of squares of the last fit (in inverted-speed space),
    /// as reported in Table 2.
    pub fn residual_ss(&self) -> Option<f64> {
        self.model.as_ref().map(|m| m.residual_ss)
    }

    /// Predicted speed at `(p, w)`, steps/s. Returns 0.0 for infeasible
    /// configurations (`p == 0 || w == 0`), unfit models, or degenerate
    /// fits predicting a non-positive step time.
    pub fn predict(&self, p: u32, w: u32) -> f64 {
        if p == 0 || w == 0 {
            return 0.0;
        }
        let Some(model) = self.model.as_ref() else {
            return 0.0;
        };
        let (feat, n) = self.feature_row(p, w);
        let inv = match model.predict(&feat[..n]) {
            Ok(v) => v,
            Err(_) => return 0.0,
        };
        if inv <= 0.0 || !inv.is_finite() {
            return 0.0;
        }
        let raw = match self.mode {
            TrainingMode::Asynchronous => w as f64 / inv,
            TrainingMode::Synchronous => 1.0 / inv,
        };
        (raw * self.prediction_scale).max(0.0)
    }

    /// Coefficients the feature map produces.
    fn width(&self) -> usize {
        match self.mode {
            TrainingMode::Asynchronous => 4,
            TrainingMode::Synchronous => 5,
        }
    }

    /// The feature row for a configuration and its width, on the
    /// stack: `predict` sits on the allocator's per-candidate hot path
    /// and `refit` rebuilds every row on each NNLS pass.
    #[inline]
    fn feature_row(&self, p: u32, w: u32) -> ([f64; MAX_WIDTH], usize) {
        let pf = p as f64;
        let wf = w as f64;
        match self.mode {
            TrainingMode::Asynchronous => ([1.0, wf / pf, wf, pf, 0.0], 4),
            TrainingMode::Synchronous => ([self.batch / wf, 1.0, wf / pf, wf, pf], 5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_ps::PsJobModel;
    use optimus_workload::ModelKind;

    /// Profiles a ground-truth model at the given configurations, fits,
    /// and returns (model, ground truth).
    fn fit_from_truth(
        mode: TrainingMode,
        configs: &[(u32, u32)],
    ) -> (SpeedModel, PsJobModel<'static>) {
        let profile = ModelKind::ResNet50.profile();
        let truth = PsJobModel::new(profile, mode);
        let mut model = SpeedModel::new(mode, profile.batch_size as f64);
        for &(p, w) in configs {
            model.record(p, w, truth.speed(p, w));
        }
        model.refit().unwrap();
        (model, truth)
    }

    /// The paper's initialization: a handful of (p, w) combinations.
    const PROFILE_CONFIGS: [(u32, u32); 8] = [
        (1, 1),
        (2, 2),
        (4, 4),
        (8, 8),
        (4, 8),
        (8, 4),
        (12, 6),
        (6, 12),
    ];

    /// A predictor copy predicts the same bits as its model (fitted or
    /// not, either mode, any prediction scale) and keeps the
    /// generation, but carries no samples.
    #[test]
    fn predictor_predicts_the_same_bits_without_history() {
        let unfit = SpeedModel::new(TrainingMode::Synchronous, 32.0);
        let (sync, _) = fit_from_truth(TrainingMode::Synchronous, &PROFILE_CONFIGS);
        let (mut asynchronous, _) = fit_from_truth(TrainingMode::Asynchronous, &PROFILE_CONFIGS);
        asynchronous.set_prediction_scale(0.7);
        for model in [unfit, sync, asynchronous] {
            let copy = model.predictor();
            assert_eq!(copy.sample_count(), 0);
            assert_eq!(copy.generation(), model.generation());
            assert_eq!(copy.mode(), model.mode());
            assert_eq!(
                copy.prediction_scale().to_bits(),
                model.prediction_scale().to_bits()
            );
            for p in 0..=12 {
                for w in 0..=12 {
                    assert_eq!(copy.predict(p, w).to_bits(), model.predict(p, w).to_bits());
                }
            }
        }
    }

    #[test]
    fn sync_fit_predicts_unseen_configs() {
        let (model, truth) = fit_from_truth(TrainingMode::Synchronous, &PROFILE_CONFIGS);
        for &(p, w) in &[(3u32, 5u32), (10, 10), (16, 8), (5, 15), (20, 20)] {
            let est = model.predict(p, w);
            let real = truth.speed(p, w);
            let err = (est - real).abs() / real;
            assert!(err < 0.12, "({p},{w}): est {est} real {real} err {err}");
        }
    }

    #[test]
    fn async_fit_predicts_unseen_configs() {
        let (model, truth) = fit_from_truth(TrainingMode::Asynchronous, &PROFILE_CONFIGS);
        for &(p, w) in &[(3u32, 5u32), (10, 10), (16, 8), (5, 15)] {
            let est = model.predict(p, w);
            let real = truth.speed(p, w);
            let err = (est - real).abs() / real;
            assert!(err < 0.12, "({p},{w}): est {est} real {real} err {err}");
        }
    }

    #[test]
    fn more_samples_reduce_error_fig8() {
        // Fig 8: estimation error shrinks with the number of samples,
        // with diminishing returns. Evaluate mean relative error over a
        // grid after fitting on prefixes of a sample list.
        let profile = ModelKind::ResNet50.profile();
        let truth = PsJobModel::new(profile, TrainingMode::Synchronous);
        let all: Vec<(u32, u32)> = (1..=12)
            .flat_map(|p| (1..=12).map(move |w| (p, w)))
            .filter(|(p, w)| (p * 7 + w * 13) % 11 < 4) // pseudo-random subset
            .collect();
        let eval = |m: &SpeedModel| -> f64 {
            let mut errs = Vec::new();
            for p in (2..=20).step_by(3) {
                for w in (2..=20).step_by(3) {
                    let real = truth.speed(p, w);
                    errs.push((m.predict(p, w) - real).abs() / real);
                }
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let fit_prefix = |n: usize| -> SpeedModel {
            let mut m = SpeedModel::new(TrainingMode::Synchronous, profile.batch_size as f64);
            for &(p, w) in &all[..n] {
                m.record(p, w, truth.speed(p, w));
            }
            m.refit().unwrap();
            m
        };
        let err_small = eval(&fit_prefix(6));
        let err_large = eval(&fit_prefix(all.len()));
        assert!(err_large <= err_small + 1e-9);
        // Paper: < 10 % error with ~10 samples.
        assert!(eval(&fit_prefix(10)) < 0.10);
    }

    #[test]
    fn rejects_insufficient_samples() {
        let mut m = SpeedModel::new(TrainingMode::Synchronous, 256.0);
        m.record(1, 1, 0.1);
        m.record(2, 2, 0.2);
        assert!(matches!(m.refit(), Err(FitError::NotEnoughSamples { .. })));
        assert!(!m.is_fit());
        assert_eq!(m.predict(4, 4), 0.0);
    }

    #[test]
    fn ignores_degenerate_samples() {
        let mut m = SpeedModel::new(TrainingMode::Asynchronous, 256.0);
        m.record(0, 4, 1.0);
        m.record(4, 0, 1.0);
        m.record(4, 4, f64::NAN);
        m.record(4, 4, -1.0);
        assert_eq!(m.sample_count(), 0);
    }

    #[test]
    fn infeasible_configs_predict_zero() {
        let (model, _) = fit_from_truth(TrainingMode::Synchronous, &PROFILE_CONFIGS);
        assert_eq!(model.predict(0, 4), 0.0);
        assert_eq!(model.predict(4, 0), 0.0);
    }

    #[test]
    fn coefficients_shape_matches_table2() {
        // Table 2: both modes have non-negative coefficients; the
        // compute (θ₀ sync) and transfer (w/p) terms dominate.
        let (sync, _) = fit_from_truth(TrainingMode::Synchronous, &PROFILE_CONFIGS);
        assert_eq!(sync.coefficients().len(), 5);
        assert!(sync.coefficients().iter().all(|&c| c >= 0.0));
        assert!(sync.residual_ss().unwrap() < 1.0);
        let (asy, _) = fit_from_truth(TrainingMode::Asynchronous, &PROFILE_CONFIGS);
        assert_eq!(asy.coefficients().len(), 4);
        assert!(asy.coefficients().iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn online_calibration_improves_local_accuracy() {
        // After fitting on profiling samples, feeding many observations
        // around the operating point keeps the model accurate there.
        let profile = ModelKind::Seq2Seq.profile();
        let truth = PsJobModel::new(profile, TrainingMode::Synchronous);
        let mut m = SpeedModel::new(TrainingMode::Synchronous, profile.batch_size as f64);
        for &(p, w) in &PROFILE_CONFIGS {
            m.record(p, w, truth.speed(p, w));
        }
        m.refit().unwrap();
        for _ in 0..20 {
            m.record(10, 10, truth.speed(10, 10));
        }
        m.refit().unwrap();
        let err = (m.predict(10, 10) - truth.speed(10, 10)).abs() / truth.speed(10, 10);
        assert!(err < 0.05, "operating-point error {err}");
    }
}
