//! Online convergence estimation (§3.1).
//!
//! Each running job feeds its per-step training losses into a
//! [`ConvergenceEstimator`]; the estimator preprocesses them (outlier
//! removal + normalization, via `optimus-fitting`), fits the
//! `l = 1/(β₀k + β₁) + β₂` curve with NNLS, and answers the scheduler's
//! question: *how many more steps until this job converges?*
//!
//! When a job produces hundreds of thousands of steps, the estimator
//! aggregates losses into per-bucket averages before fitting, exactly
//! the mitigation the paper describes ("average the values of several
//! data points (e.g., all losses in an epoch) as a single data point").

use optimus_fitting::{BatchScratch, FitError, FitSession, LossCurveFitter, LossModel};
use optimus_telemetry::Telemetry;
use serde::{Deserialize, Serialize};

/// Rolling state of one job's convergence estimate.
#[derive(Debug, Clone)]
pub struct ConvergenceEstimator {
    /// Raw samples, `(step, loss)`, in arrival order.
    samples: Vec<(u64, f64)>,
    /// Convergence threshold δ (relative to the fitted curve's initial
    /// per-epoch decrease; see `optimus-fitting`).
    threshold: f64,
    /// Steps per epoch for this job's mode and dataset.
    steps_per_epoch: u64,
    /// Patience in epochs.
    patience: u64,
    /// Cap on points fed to the solver; beyond it, samples are averaged
    /// into buckets.
    max_fit_points: usize,
    fitter: LossCurveFitter,
    model: Option<LossModel>,
    /// §7 learning-rate-drop handling: when enabled, a sustained run of
    /// losses far below the fitted curve's prediction restarts the
    /// estimator ("treat the model training after learning rate
    /// adjustment as a new training job and restart online fitting").
    restart_detection: bool,
    restart_streak: usize,
    restarts: usize,
    /// Step the current fitting segment starts at: samples are rebased
    /// to this origin before fitting, because the Eqn-1 family with
    /// non-negative coefficients cannot represent a right-shifted
    /// hyperbola directly.
    origin: u64,
    /// Whether any sample arrived since the last fit.
    dirty: bool,
    /// Outcome of the last fit, replayed while `dirty` is false.
    last_fit: Option<Result<LossModel, FitError>>,
    /// Warm-start + scratch state for the batched fitter.
    session: FitSession,
    /// Incremental solver-point state (see [`FitPointsCache`]).
    points_cache: FitPointsCache,
    /// Bumped every time a restart drains `samples`, so the points cache
    /// can prove the sample history has been append-only since it was
    /// built (the rebased `origin` alone could coincidentally match).
    generation: u64,
    /// Estimator-level telemetry (`fit.dirty_skipped`).
    tel: Telemetry,
}

/// Incrementally maintained solver points for
/// [`ConvergenceEstimator::refit`], plus the fingerprint of
/// the state they were derived from. Complete buckets (or, below the
/// cap, individual rebased samples) are pure functions of an append-only
/// sample prefix, so they are reused verbatim as long as the bucket
/// width, rebasing origin and drain generation are unchanged.
#[derive(Debug, Clone, Default)]
struct FitPointsCache {
    /// The solver points fed to the last incremental fit.
    points: Vec<(u64, f64)>,
    /// Whether `points` reflects any previous call at all.
    valid: bool,
    /// Sample count the points were built from.
    n: usize,
    /// Bucket width used (0 = below the cap, points are 1:1 samples).
    per_bucket: usize,
    /// Rebasing origin used.
    origin: u64,
    /// Drain generation used.
    generation: u64,
}

/// Losses below `RESTART_RATIO ×` the model's prediction count toward a
/// restart streak.
const RESTART_RATIO: f64 = 0.7;
/// Consecutive far-below-prediction samples that trigger a restart
/// (tolerant of individual outlier dips).
const RESTART_STREAK: usize = 8;

/// Summary of an estimator's current prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePrediction {
    /// Estimated total steps from step 0 to convergence.
    pub total_steps: u64,
    /// Estimated steps remaining from the latest observed step.
    pub remaining_steps: u64,
}

impl ConvergenceEstimator {
    /// Creates an estimator for a job with the given convergence
    /// threshold, epoch length (in steps) and patience (in epochs).
    pub fn new(threshold: f64, steps_per_epoch: u64, patience: u64) -> Self {
        ConvergenceEstimator {
            samples: Vec::new(),
            threshold,
            steps_per_epoch: steps_per_epoch.max(1),
            patience,
            max_fit_points: 2_000,
            fitter: LossCurveFitter::new(),
            model: None,
            restart_detection: false,
            restart_streak: 0,
            restarts: 0,
            origin: 0,
            dirty: true,
            last_fit: None,
            session: FitSession::new(),
            points_cache: FitPointsCache::default(),
            generation: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Enables §7 learning-rate-drop detection.
    pub fn with_restart_detection(mut self, enabled: bool) -> Self {
        self.restart_detection = enabled;
        self
    }

    /// Attaches a telemetry handle: the fitter's per-candidate NNLS
    /// solves then feed the handle's `nnls.*` metrics, and each
    /// [`ConvergenceEstimator::refit`] bumps `loss_curve.fits`.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.fitter = self.fitter.clone().with_telemetry(tel.clone());
        self.tel = tel;
        self
    }

    /// Number of times the estimator restarted after detecting a
    /// learning-rate drop.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Overrides the solver point cap.
    pub fn with_max_fit_points(mut self, cap: usize) -> Self {
        self.max_fit_points = cap.max(8);
        self
    }

    /// Records one observed `(step, loss)` sample, restarting the
    /// estimator when a learning-rate drop is detected (§7).
    pub fn record(&mut self, step: u64, loss: f64) {
        self.samples.push((step, loss));
        self.dirty = true;
        if !self.restart_detection {
            return;
        }
        let Some(model) = self.model.as_ref() else {
            return;
        };
        // Suppress detection until the current segment has enough data
        // for a stable fit — a fresh post-restart model extrapolates
        // poorly and would re-trigger immediately.
        if self.samples.len() < 4 * RESTART_STREAK {
            return;
        }
        // Compare in raw loss units (the model normalizes internally).
        let predicted = model.raw_loss_at(step.saturating_sub(self.origin));
        if loss.is_finite() && predicted.is_finite() && loss < RESTART_RATIO * predicted {
            self.restart_streak += 1;
            if self.restart_streak >= RESTART_STREAK {
                // The regime changed: keep only the post-drop samples and
                // fit the new segment as a fresh job.
                let keep_from = self.samples.len() - RESTART_STREAK;
                self.samples.drain(..keep_from);
                self.origin = self.samples.first().map(|&(k, _)| k).unwrap_or(0);
                self.model = None;
                self.restart_streak = 0;
                self.restarts += 1;
                self.generation += 1;
            }
        } else {
            self.restart_streak = 0;
        }
    }

    /// Number of recorded samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// The latest observed step (0 when empty).
    pub fn latest_step(&self) -> u64 {
        self.samples.last().map(|&(k, _)| k).unwrap_or(0)
    }

    /// Refits the loss model from all samples collected so far.
    ///
    /// Returns [`FitError::NotEnoughSamples`] until at least three
    /// distinct steps have been recorded; earlier fits are kept on
    /// failure so the scheduler can always use the last good model.
    ///
    /// This is [`refit_convergence_batch`] on a one-estimator batch: a
    /// refit with no new samples replays the cached outcome
    /// (`fit.dirty_skipped`), and otherwise only the unsettled tail
    /// of the solver points is rebuilt before the warm-started batched
    /// fitter runs. The outcome is bit-identical to
    /// `LossCurveFitter::fit` on the bucketed solver points.
    pub fn refit(&mut self) -> Result<&LossModel, FitError> {
        let res = refit_convergence_batch(&mut [&mut *self], &mut [BatchScratch::new()])
            .pop()
            .expect("one outcome per estimator");
        res?;
        Ok(self.model.as_ref().expect("set by the successful fit"))
    }

    /// Rebuilds [`FitPointsCache::points`] incrementally and returns how
    /// many leading points are guaranteed identical to the previous
    /// refit's solver input (the fitter's `stable_prefix` contract).
    ///
    /// Equivalence to `ConvergenceEstimator::fit_points` (the test
    /// oracle): every point is produced by the same rebase/bucket-mean
    /// arithmetic; the cache only decides *which* points can be carried
    /// over, namely those from complete buckets of an append-only sample
    /// prefix under an unchanged bucket width, origin and drain
    /// generation.
    fn update_fit_points(&mut self) -> usize {
        let n = self.samples.len();
        let per_bucket = if n <= self.max_fit_points {
            0 // below the cap: points are rebased samples, 1:1
        } else {
            n.div_ceil(self.max_fit_points)
        };
        let cache = &mut self.points_cache;
        let compatible = cache.valid
            && cache.per_bucket == per_bucket
            && cache.origin == self.origin
            && cache.generation == self.generation
            && cache.n <= n;
        let (settled_points, from_sample) = if !compatible {
            (0, 0)
        } else {
            // Only buckets that were complete last time are settled: the
            // trailing partial bucket's mean changes as samples arrive.
            // (`None` = the 1:1 sentinel: every cached point is settled.)
            match cache.n.checked_div(per_bucket) {
                None => (cache.n, cache.n),
                Some(complete) => (complete, complete * per_bucket),
            }
        };
        cache.points.truncate(settled_points);
        if per_bucket == 0 {
            for &(k, l) in &self.samples[from_sample..] {
                cache.points.push((k.saturating_sub(self.origin), l));
            }
        } else {
            for chunk in self.samples[from_sample..].chunks(per_bucket) {
                let cn = chunk.len() as f64;
                let step = chunk
                    .iter()
                    .map(|&(k, _)| k.saturating_sub(self.origin) as f64)
                    .sum::<f64>()
                    / cn;
                let loss = chunk.iter().map(|&(_, l)| l).sum::<f64>() / cn;
                cache.points.push((step.round() as u64, loss));
            }
        }
        cache.valid = true;
        cache.n = n;
        cache.per_bucket = per_bucket;
        cache.origin = self.origin;
        cache.generation = self.generation;
        settled_points
    }

    /// The last successfully fitted model, if any.
    pub fn model(&self) -> Option<&LossModel> {
        self.model.as_ref()
    }

    /// Predicted total/remaining steps to convergence from the current
    /// model. `None` until a model has been fit (or if the fit predicts
    /// no convergence).
    pub fn predict(&self) -> Option<ConvergencePrediction> {
        let model = self.model.as_ref()?;
        let segment =
            model.convergence_step(self.threshold, self.steps_per_epoch, self.patience)?;
        let total = self.origin.saturating_add(segment);
        Some(ConvergencePrediction {
            total_steps: total,
            remaining_steps: total.saturating_sub(self.latest_step()),
        })
    }

    /// Steps per epoch the estimator was configured with.
    pub fn steps_per_epoch(&self) -> u64 {
        self.steps_per_epoch
    }

    /// Predicted remaining *epochs* to convergence — the unit the
    /// estimator-accuracy audit compares against ground truth. `None`
    /// until a model has been fit.
    pub fn predicted_remaining_epochs(&self) -> Option<f64> {
        self.predict()
            .map(|p| p.remaining_steps as f64 / self.steps_per_epoch as f64)
    }

    /// The fitted model's *raw* loss prediction at an absolute step
    /// (handles the post-restart rebasing and the fitter's internal
    /// normalization). `None` before the first fit.
    pub fn predicted_loss_at(&self, step: u64) -> Option<f64> {
        self.model
            .as_ref()
            .map(|m| m.raw_loss_at(step.saturating_sub(self.origin)))
    }

    /// Convenience: remaining steps with a pessimistic default for jobs
    /// with no model yet (the paper downgrades young jobs instead of
    /// starving them; the simulator uses this before the first fit).
    pub fn remaining_steps_or(&self, default: u64) -> u64 {
        self.predict().map(|p| p.remaining_steps).unwrap_or(default)
    }

    /// The points fed to the solver: raw samples, or bucket averages when
    /// over the cap. The from-scratch oracle for `update_fit_points`.
    #[cfg(test)]
    fn fit_points(&self) -> Vec<(u64, f64)> {
        let rebase = |(k, l): &(u64, f64)| (k.saturating_sub(self.origin), *l);
        if self.samples.len() <= self.max_fit_points {
            return self.samples.iter().map(rebase).collect();
        }
        // Aggregate into `max_fit_points` buckets by step order; each
        // bucket contributes its mean step and mean loss.
        let per_bucket = self.samples.len().div_ceil(self.max_fit_points);
        self.samples
            .chunks(per_bucket)
            .map(|chunk| {
                let n = chunk.len() as f64;
                let step = chunk
                    .iter()
                    .map(|&(k, _)| k.saturating_sub(self.origin) as f64)
                    .sum::<f64>()
                    / n;
                let loss = chunk.iter().map(|&(_, l)| l).sum::<f64>() / n;
                (step.round() as u64, loss)
            })
            .collect()
    }
}

/// How one estimator's refit is satisfied in
/// [`refit_convergence_batch`].
enum RefitSlot {
    /// Outcome already known (a clean estimator's replay).
    Ready(Result<LossModel, FitError>),
    /// Queued for the batched SoA fit; payload is the job's stable
    /// solver-point prefix.
    Batched(usize),
}

/// Refits many estimators at once through the batched SoA fitting
/// engine (`optimus_fitting::fit_batch`). Each outcome is bit-identical
/// to `LossCurveFitter::fit` on that estimator's solver points, and
/// outcomes, estimator state and telemetry do not depend on how the
/// estimators are grouped — [`ConvergenceEstimator::refit`] is the
/// one-estimator case.
///
/// Estimators with no new samples since their last fit replay the
/// cached outcome under `fit.dirty_skipped`, without a batch slot; the
/// rest have their solver points updated and are fanned across one
/// worker thread per element of `workers` (each fits its lane groups in
/// its own scratch, which the caller keeps warm across calls) in
/// lane-width groups whose boundaries depend only on the input order —
/// never on the thread count — so results are thread-invariant. A
/// successful fit becomes the estimator's model; a failed one keeps the
/// last good model.
pub fn refit_convergence_batch(
    ests: &mut [&mut ConvergenceEstimator],
    workers: &mut [BatchScratch],
) -> Vec<Result<LossModel, FitError>> {
    use optimus_fitting::{fit_batch, BatchFitJob, LANES};

    let n = ests.len();
    let mut slots: Vec<RefitSlot> = Vec::with_capacity(n);
    for est in ests.iter_mut() {
        if !est.dirty && est.last_fit.is_some() {
            est.tel.incr("fit.dirty_skipped");
            slots.push(RefitSlot::Ready(
                est.last_fit.clone().expect("guarded by is_some"),
            ));
            continue;
        }
        slots.push(RefitSlot::Batched(est.update_fit_points()));
    }

    // Gather the batched lanes: disjoint-field borrows per estimator
    // (solver points read-only, session mutable) feed the fit jobs.
    let mut job_idx: Vec<usize> = Vec::new();
    let mut jobs: Vec<BatchFitJob<'_>> = Vec::new();
    for (i, est) in ests.iter_mut().enumerate() {
        let RefitSlot::Batched(stable) = slots[i] else {
            continue;
        };
        let ConvergenceEstimator {
            fitter,
            session,
            points_cache,
            ..
        } = &mut **est;
        jobs.push(BatchFitJob {
            fitter,
            raw: &points_cache.points,
            stable_prefix: stable,
            session,
        });
        job_idx.push(i);
    }
    let grouped =
        optimus_parallel::run_chunks_mut(&mut jobs, LANES, workers, |_, scratch, group| {
            let mut out = Vec::with_capacity(group.len());
            fit_batch(group, scratch, &mut out);
            out
        });
    drop(jobs);

    // Write back the batched estimators' bookkeeping.
    for (&i, res) in job_idx.iter().zip(grouped.into_iter().flatten()) {
        let est = &mut *ests[i];
        est.dirty = false;
        est.last_fit = Some(res.clone());
        if let Ok(m) = &res {
            est.model = Some(*m);
        }
        slots[i] = RefitSlot::Ready(res);
    }
    slots
        .into_iter()
        .map(|s| match s {
            RefitSlot::Ready(r) => r,
            RefitSlot::Batched(_) => unreachable!("every batched slot was filled"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_workload::GroundTruthCurve;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Feeds `n` sampled losses from a ground-truth curve.
    fn feed(est: &mut ConvergenceEstimator, curve: &GroundTruthCurve, spe: u64, n: u64, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for k in 0..n {
            est.record(k, curve.sample(k as f64, spe, &mut rng));
        }
    }

    #[test]
    fn needs_three_points() {
        let mut est = ConvergenceEstimator::new(0.02, 100, 3);
        est.record(0, 1.0);
        est.record(1, 0.9);
        assert!(matches!(
            est.refit(),
            Err(FitError::NotEnoughSamples { .. })
        ));
        assert!(est.predict().is_none());
        assert_eq!(est.remaining_steps_or(777), 777);
    }

    #[test]
    fn prediction_approaches_ground_truth() {
        let curve = GroundTruthCurve::new(0.2038, 0.20); // ResNet-50 shape
        let spe = 100u64;
        let truth = curve.steps_to_converge(0.02, 3, spe).unwrap();

        let mut est = ConvergenceEstimator::new(0.02, spe, 3);
        feed(&mut est, &curve, spe, truth / 2, 42);
        est.refit().unwrap();
        let mid = est.predict().unwrap();
        let err = (mid.total_steps as f64 - truth as f64).abs() / truth as f64;
        assert!(
            err < 0.25,
            "mid-training error {err} (est {} truth {truth})",
            mid.total_steps
        );

        // With almost the whole curve observed, the estimate tightens.
        let mut est2 = ConvergenceEstimator::new(0.02, spe, 3);
        feed(&mut est2, &curve, spe, truth * 9 / 10, 42);
        est2.refit().unwrap();
        let late = est2.predict().unwrap();
        let err2 = (late.total_steps as f64 - truth as f64).abs() / truth as f64;
        assert!(err2 < 0.15, "late-training error {err2}");
    }

    #[test]
    fn remaining_steps_decrease_with_progress() {
        let curve = GroundTruthCurve::new(0.4731, 0.07); // Seq2Seq shape
        let spe = 50u64;
        let mut est = ConvergenceEstimator::new(0.02, spe, 3);
        feed(&mut est, &curve, spe, 200, 7);
        est.refit().unwrap();
        let early = est.predict().unwrap().remaining_steps;
        feed(&mut est, &curve, spe, 600, 8); // records steps 0..600 again; latest_step = 599
        est.refit().unwrap();
        let later = est.predict().unwrap().remaining_steps;
        assert!(later < early, "later {later} vs early {early}");
    }

    #[test]
    fn bucketing_kicks_in_and_still_fits() {
        let curve = GroundTruthCurve::new(0.3, 0.1).with_noise(0.01, 0.0);
        let mut est = ConvergenceEstimator::new(0.02, 1000, 3).with_max_fit_points(50);
        feed(&mut est, &curve, 1000, 5_000, 3);
        assert_eq!(est.sample_count(), 5_000);
        assert!(est.fit_points().len() <= 50);
        est.refit().unwrap();
        assert!(est.predict().is_some());
    }

    #[test]
    fn keeps_last_model_on_failed_refit() {
        let curve = GroundTruthCurve::new(0.3, 0.1);
        let mut est = ConvergenceEstimator::new(0.02, 100, 3).with_max_fit_points(8);
        feed(&mut est, &curve, 100, 50, 5);
        est.refit().unwrap();
        let before = *est.model().unwrap();
        let predicted = est.predict();
        // A duplicate-step flood buckets the history into two distinct
        // steps, so the next fit fails; the previous model must survive.
        for _ in 0..5_000 {
            est.record(60, curve.loss_at_step(60.0, 100));
        }
        assert_eq!(
            est.refit().copied(),
            Err(FitError::NotEnoughSamples { got: 2, need: 3 })
        );
        let after = *est.model().expect("last good model kept");
        assert_eq!(
            (
                before.beta0.to_bits(),
                before.beta1.to_bits(),
                before.beta2.to_bits(),
                before.scale.to_bits(),
                before.residual_ss.to_bits()
            ),
            (
                after.beta0.to_bits(),
                after.beta1.to_bits(),
                after.beta2.to_bits(),
                after.scale.to_bits(),
                after.residual_ss.to_bits()
            )
        );
        // Same model, same total; only the latest step moved.
        let total = predicted.expect("first fit predicts").total_steps;
        assert_eq!(
            est.predict(),
            Some(ConvergencePrediction {
                total_steps: total,
                remaining_steps: total.saturating_sub(60),
            })
        );
    }

    #[test]
    fn restart_detection_handles_lr_drop() {
        use optimus_workload::curves::LrDrop;
        // A curve with a learning-rate drop at epoch 30: without restart
        // detection the single-hyperbola fit is badly confused by the
        // regime change; with it, the estimator refits the new segment.
        let spe = 50u64;
        let curve = GroundTruthCurve::new(0.3, 0.3)
            .with_noise(0.005, 0.0)
            .with_lr_drop(LrDrop {
                at_epoch: 30.0,
                post_c0: 0.5,
                post_floor: 0.12,
            });
        let feed_until = 60 * spe; // 30 epochs past the drop
        let run = |detect: bool| {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let mut est = ConvergenceEstimator::new(0.02, spe, 3).with_restart_detection(detect);
            for k in 0..feed_until {
                est.record(k, curve.sample(k as f64, spe, &mut rng));
                if k % (5 * spe) == 0 && k > 0 {
                    let _ = est.refit();
                }
            }
            let _ = est.refit();
            est
        };
        let with = run(true);
        assert!(with.restarts() >= 1, "drop must be detected");
        let without = run(false);
        assert_eq!(without.restarts(), 0);

        // Both can predict; the restarted estimator's long-horizon loss
        // prediction must be closer to the post-drop truth.
        let probe = 100 * spe;
        let truth = curve.loss_at_epoch(100.0);
        let err_with = (with.predicted_loss_at(probe).unwrap() - truth).abs();
        let err_without = (without.predicted_loss_at(probe).unwrap() - truth).abs();
        assert!(
            err_with < err_without,
            "restart should help: {err_with} vs {err_without}"
        );
    }

    #[test]
    fn restart_detection_ignores_isolated_dips() {
        let curve = GroundTruthCurve::new(0.3, 0.2).with_noise(0.0, 0.0);
        let mut est = ConvergenceEstimator::new(0.02, 10, 3).with_restart_detection(true);
        for k in 0..200u64 {
            est.record(k, curve.loss_at_step(k as f64, 10));
            if k == 50 {
                let _ = est.refit();
            }
        }
        // A few scattered outlier dips must not trigger a restart.
        for k in [210u64, 230, 250] {
            est.record(k, 0.01);
            est.record(k + 1, curve.loss_at_step(k as f64 + 1.0, 10));
        }
        assert_eq!(est.restarts(), 0);
    }

    #[test]
    fn remaining_epochs_tracks_remaining_steps() {
        let curve = GroundTruthCurve::new(0.3, 0.1);
        let spe = 100u64;
        let mut est = ConvergenceEstimator::new(0.02, spe, 3);
        assert_eq!(est.steps_per_epoch(), spe);
        assert!(est.predicted_remaining_epochs().is_none());
        feed(&mut est, &curve, spe, 500, 11);
        est.refit().unwrap();
        let pred = est.predict().unwrap();
        let epochs = est.predicted_remaining_epochs().unwrap();
        assert!((epochs - pred.remaining_steps as f64 / spe as f64).abs() < 1e-12);
    }

    #[test]
    fn latest_step_tracks_input() {
        let mut est = ConvergenceEstimator::new(0.02, 10, 1);
        assert_eq!(est.latest_step(), 0);
        est.record(41, 0.5);
        assert_eq!(est.latest_step(), 41);
    }

    /// Asserts two refit outcomes are bit-identical (models) or equal
    /// (errors).
    fn assert_same_outcome(
        want: &Result<LossModel, FitError>,
        got: &Result<LossModel, FitError>,
        ctx: &str,
    ) {
        match (want, got) {
            (Ok(a), Ok(b)) => assert_eq!(
                (
                    a.beta0.to_bits(),
                    a.beta1.to_bits(),
                    a.beta2.to_bits(),
                    a.scale.to_bits(),
                    a.residual_ss.to_bits()
                ),
                (
                    b.beta0.to_bits(),
                    b.beta1.to_bits(),
                    b.beta2.to_bits(),
                    b.scale.to_bits(),
                    b.residual_ss.to_bits()
                ),
                "{ctx}"
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}"),
            other => panic!("outcomes diverged {ctx}: {other:?}"),
        }
    }

    /// Refits `est` and checks the outcome against the oracle:
    /// `LossCurveFitter::fit` on the from-scratch solver points
    /// (`fit_points`) taken just before the refit.
    fn refit_against_oracle(
        est: &mut ConvergenceEstimator,
        ctx: &str,
    ) -> Result<LossModel, FitError> {
        let want = est.fitter.fit(&est.fit_points());
        let got = est.refit().copied();
        assert_same_outcome(&want, &got, ctx);
        got
    }

    /// Drives one estimator through a noisy sample stream with
    /// interleaved refits, checking every refit against the oracle and
    /// every immediate re-refit against the replayed outcome.
    fn assert_refits_match_oracle(
        configure: impl FnOnce(ConvergenceEstimator) -> ConvergenceEstimator,
    ) {
        let curve = GroundTruthCurve::new(0.25, 0.12).with_noise(0.02, 0.001);
        let spe = 40u64;
        let mut est = configure(ConvergenceEstimator::new(0.02, spe, 3));
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for k in 0..3_000u64 {
            est.record(k, curve.sample(k as f64, spe, &mut rng));
            if k % 157 == 0 {
                let got = refit_against_oracle(&mut est, &format!("at {k}"));
                // Repeated refit with no new samples replays the outcome.
                let again = est.refit().copied();
                assert_same_outcome(&got, &again, &format!("clean replay at {k}"));
            }
        }
    }

    #[test]
    fn refit_matches_fit_oracle() {
        assert_refits_match_oracle(|e| e);
    }

    #[test]
    fn refit_matches_fit_oracle_with_bucketing() {
        assert_refits_match_oracle(|e| e.with_max_fit_points(64));
    }

    #[test]
    fn refit_matches_fit_oracle_with_restarts() {
        use optimus_workload::curves::LrDrop;
        let spe = 50u64;
        let curve = GroundTruthCurve::new(0.3, 0.3)
            .with_noise(0.005, 0.0)
            .with_lr_drop(LrDrop {
                at_epoch: 30.0,
                post_c0: 0.5,
                post_floor: 0.12,
            });
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut est = ConvergenceEstimator::new(0.02, spe, 3).with_restart_detection(true);
        for k in 0..60 * spe {
            est.record(k, curve.sample(k as f64, spe, &mut rng));
            // The cadence of `restart_detection_handles_lr_drop`, which
            // is known to restart on this stream.
            if k % (5 * spe) == 0 && k > 0 {
                let _ = refit_against_oracle(&mut est, &format!("at {k}"));
            }
        }
        assert!(est.restarts() >= 1, "the drop must restart the fit");
    }

    /// Batch grouping is invisible: one batch of every estimator, at 1
    /// and 4 threads (each with warm per-worker scratch), matches
    /// one-estimator `refit()` calls — same outcomes, same estimator
    /// state afterwards (checked behaviorally across rounds where only
    /// some estimators gain samples), same telemetry.
    #[test]
    fn batched_refit_matches_one_lane_refits() {
        let lone_tel = Telemetry::enabled();
        let batch_tel = Telemetry::enabled();
        let n = 11usize;
        let curve =
            |i: usize| GroundTruthCurve::new(0.15 + 0.03 * i as f64, 0.05 + 0.01 * i as f64);
        let mk = |tel: &Telemetry| -> Vec<ConvergenceEstimator> {
            (0..n)
                .map(|i| {
                    ConvergenceEstimator::new(0.02, 50, 3)
                        .with_max_fit_points(64 + i)
                        .with_telemetry(tel.clone())
                })
                .collect()
        };
        let mut lone = mk(&lone_tel);
        let mut batch = mk(&batch_tel);

        // Worker scratch is kept warm across rounds, as the simulator
        // keeps it.
        let mut one_worker = [BatchScratch::new()];
        let mut four_workers: [BatchScratch; 4] = Default::default();
        let mut step = vec![0u64; n];
        for round in 0..6 {
            for i in 0..n {
                // Jobs grow at different rates; some gain nothing in a
                // given round (clean lanes inside the batch).
                let grow = ((i + round) % 4) * 37;
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + (round * n + i) as u64);
                for _ in 0..grow {
                    let loss = curve(i).sample(step[i] as f64, 50, &mut rng);
                    lone[i].record(step[i], loss);
                    batch[i].record(step[i], loss);
                    step[i] += 1;
                }
            }
            let mut refs: Vec<&mut ConvergenceEstimator> = batch.iter_mut().collect();
            for workers in [&mut one_worker[..], &mut four_workers[..]] {
                let threads = workers.len();
                // Re-running on an unchanged batch replays the clean fits
                // on both sides, so a second one-lane sweep keeps parity.
                let want: Vec<Result<LossModel, FitError>> =
                    lone.iter_mut().map(|e| e.refit().copied()).collect();
                let got = refit_convergence_batch(&mut refs, workers);
                for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
                    assert_same_outcome(w, g, &format!("round {round} job {i} threads {threads}"));
                }
            }
            for (a, b) in lone.iter().zip(batch.iter()) {
                assert_eq!(a.predict(), b.predict(), "predictions at round {round}");
            }
        }
        assert_eq!(
            lone_tel.summary(),
            batch_tel.summary(),
            "telemetry diverged"
        );
    }

    /// A clean estimator replays its cached outcome under
    /// `fit.dirty_skipped`; a new sample makes it fit again.
    #[test]
    fn dirty_skip_replays_cached_outcome() {
        let tel = Telemetry::enabled();
        let curve = GroundTruthCurve::new(0.3, 0.1);
        let mut est = ConvergenceEstimator::new(0.02, 100, 3).with_telemetry(tel.clone());
        feed(&mut est, &curve, 100, 50, 5);
        let fitted = *est.refit().unwrap();
        assert_eq!(tel.counter("fit.dirty_skipped"), 0, "first fit runs");
        let replay = *est.refit().unwrap();
        assert_eq!(
            replay.beta0.to_bits(),
            fitted.beta0.to_bits(),
            "replayed model"
        );
        assert_eq!(tel.counter("fit.dirty_skipped"), 1);
        est.record(51, 0.2);
        est.refit().unwrap();
        assert_eq!(tel.counter("fit.dirty_skipped"), 1, "dirty again");
        assert_eq!(tel.counter("loss_curve.fits"), 2);
    }

    /// Clean estimators ride in a batch beside dirty ones: only the
    /// dirty one reaches the fitter.
    #[test]
    fn skip_unchanged_counts_in_telemetry() {
        let tel = Telemetry::enabled();
        let curve = GroundTruthCurve::new(0.3, 0.1);
        let mut ests: Vec<ConvergenceEstimator> = (0..3)
            .map(|_| ConvergenceEstimator::new(0.02, 100, 3).with_telemetry(tel.clone()))
            .collect();
        for (i, est) in ests.iter_mut().enumerate() {
            feed(est, &curve, 100, 50, 5 + i as u64);
        }
        let mut scratch = [BatchScratch::new()];
        let mut refs: Vec<&mut ConvergenceEstimator> = ests.iter_mut().collect();
        refit_convergence_batch(&mut refs, &mut scratch);
        refs[1].record(50, 0.2);
        let out = refit_convergence_batch(&mut refs, &mut scratch);
        assert_eq!(out.len(), 3, "one outcome per estimator");
        assert_eq!(tel.counter("fit.dirty_skipped"), 2);
        assert_eq!(tel.counter("loss_curve.fits"), 4);
    }
}
