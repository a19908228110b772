//! Estimator-accuracy auditing.
//!
//! Optimus's scheduling decisions stand on two online estimators: the
//! speed model (§3.2, steps/s at a given `(p, w)`) and the convergence
//! estimator (§3.1, remaining epochs to convergence). The simulator
//! knows the ground truth it hides from them, so every scheduling
//! interval it can *audit* the predictions the scheduler actually acted
//! on:
//!
//! * when a job is (re)deployed, the speed the model predicted for the
//!   deployed configuration is held as a pending prediction; at the
//!   next round it is settled against the interval's realized average
//!   speed ([`EstimatorAudit::settle_speed`]);
//! * at every apply step the convergence estimator's remaining-epochs
//!   prediction is compared against the hidden ground-truth remainder
//!   ([`EstimatorAudit::sample_convergence`]).
//!
//! Each settled sample is emitted as a
//! [`TraceEvent::EstimatorSample`] in job order (so the trace stream
//! stays thread-count-independent), recorded into the signed-error
//! histograms `audit.speed_rel_err` / `audit.convergence_rel_err`, and
//! folded into a per-model rolling calibration score
//! (`audit.*_calibration` gauges): an EWMA of `|signed error|` mapped
//! through `1/(1+e)`, so 1.0 is a perfectly calibrated estimator and
//! the score decays toward 0 as errors grow.

use crate::jobstate::SimJob;
use optimus_fitting::stats::signed_relative_error;
use optimus_telemetry::metrics::signed_error_buckets;
use optimus_telemetry::{Telemetry, TraceEvent};
use serde::{Deserialize, Serialize};

/// Histogram of signed speed-model relative errors.
pub const SPEED_ERR_HIST: &str = "audit.speed_rel_err";
/// Histogram of signed convergence-estimator relative errors.
pub const CONVERGENCE_ERR_HIST: &str = "audit.convergence_rel_err";

/// EWMA decay for the rolling calibration score: each new sample keeps
/// 90 % of the history.
const EWMA_DECAY: f64 = 0.9;

/// The audit's settled end-of-run state, embedded in `SimReport`. The
/// audit itself runs unconditionally — the telemetry handle only
/// controls whether samples *also* land in the trace — so this summary
/// is present regardless of handle state.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AuditSummary {
    /// Speed predictions settled against realized interval speeds.
    pub speed_samples: u64,
    /// Convergence estimates checked against ground truth.
    pub convergence_samples: u64,
    /// Final rolling speed calibration in `(0, 1]` (`None` before the
    /// first settled sample): an EWMA of `|signed error|` through
    /// `1/(1+e)`, 1.0 = perfectly calibrated.
    pub speed_calibration: Option<f64>,
    /// Final rolling convergence calibration (same scale).
    pub convergence_calibration: Option<f64>,
}

/// Per-run audit state: the pending speed predictions and the rolling
/// error averages behind the calibration gauges.
#[derive(Debug, Default)]
pub struct EstimatorAudit {
    /// Job → predicted steps/s for the configuration the job was
    /// deployed with at the previous round. A map keeps settlement part
    /// of the per-job dirty sweep — O(1) per touched job instead of a
    /// scan over every pending entry — and is never iterated, so map
    /// order cannot leak into results.
    pending_speed: std::collections::HashMap<u64, f64>,
    speed_ewma: Option<f64>,
    convergence_ewma: Option<f64>,
    speed_samples: u64,
    convergence_samples: u64,
}

impl EstimatorAudit {
    /// Registers the signed-error histograms on an enabled handle, so
    /// both models' errors land in symmetric buckets instead of the
    /// positive-only defaults.
    pub fn register(tel: &Telemetry) {
        let bounds = signed_error_buckets();
        tel.register_histogram(SPEED_ERR_HIST, &bounds);
        tel.register_histogram(CONVERGENCE_ERR_HIST, &bounds);
    }

    /// Holds the speed the model predicted for a job's newly deployed
    /// configuration, to be settled at the next round. Non-positive
    /// predictions (no usable fit yet) are not auditable and are
    /// dropped.
    pub fn record_speed_prediction(&mut self, job: u64, predicted: f64) {
        if predicted <= 0.0 || !predicted.is_finite() {
            self.pending_speed.remove(&job);
            return;
        }
        self.pending_speed.insert(job, predicted);
    }

    /// Settles the pending speed prediction for `job` against the
    /// realized average speed of the interval that just ended. The
    /// pending entry is consumed either way; a sample is emitted only
    /// when the job actually progressed (`realized` present and
    /// positive).
    pub fn settle_speed(&mut self, tel: &Telemetry, round: u64, job: u64, realized: Option<f64>) {
        let Some(predicted) = self.pending_speed.remove(&job) else {
            return;
        };
        let Some(realized) = realized else { return };
        if realized <= 0.0 || realized.is_nan() {
            return;
        }
        let rel_err = signed_relative_error(predicted, realized);
        tel.record(TraceEvent::EstimatorSample {
            round,
            job,
            model: "speed".to_string(),
            predicted,
            realized,
            rel_err,
        });
        tel.observe(SPEED_ERR_HIST, rel_err);
        tel.incr("audit.speed_samples");
        self.speed_samples += 1;
        let ewma = update_ewma(&mut self.speed_ewma, rel_err.abs());
        tel.gauge("audit.speed_calibration", calibration(ewma));
    }

    /// Settles the pending speed predictions of `jobs`, in order,
    /// against each job's realized interval speed.
    pub(crate) fn settle_jobs<'a>(
        &mut self,
        tel: &Telemetry,
        round: u64,
        jobs: impl IntoIterator<Item = &'a SimJob>,
    ) {
        for job in jobs {
            self.settle_speed(tel, round, job.spec.id.0, job.observed_interval_speed());
        }
    }

    /// Audits one convergence prediction: `predicted_epochs` (the
    /// estimator's remaining-epochs output, when it has a model) against
    /// the hidden ground-truth remainder. Jobs at (or past) their true
    /// convergence point are skipped — a relative error against ~0
    /// remaining work is noise, not signal.
    pub fn sample_convergence(
        &mut self,
        tel: &Telemetry,
        round: u64,
        job: u64,
        predicted_epochs: Option<f64>,
        true_epochs: f64,
    ) {
        let Some(predicted) = predicted_epochs else {
            return;
        };
        if true_epochs <= 0.0 || true_epochs.is_nan() || !predicted.is_finite() {
            return;
        }
        let rel_err = signed_relative_error(predicted, true_epochs);
        tel.record(TraceEvent::EstimatorSample {
            round,
            job,
            model: "convergence".to_string(),
            predicted,
            realized: true_epochs,
            rel_err,
        });
        tel.observe(CONVERGENCE_ERR_HIST, rel_err);
        tel.incr("audit.convergence_samples");
        self.convergence_samples += 1;
        let ewma = update_ewma(&mut self.convergence_ewma, rel_err.abs());
        tel.gauge("audit.convergence_calibration", calibration(ewma));
    }

    /// The settled summary: sample counts and final calibration scores.
    pub fn summary(&self) -> AuditSummary {
        AuditSummary {
            speed_samples: self.speed_samples,
            convergence_samples: self.convergence_samples,
            speed_calibration: self.speed_ewma.map(calibration),
            convergence_calibration: self.convergence_ewma.map(calibration),
        }
    }
}

/// Folds one `|error|` into a rolling EWMA and returns the new average.
fn update_ewma(state: &mut Option<f64>, abs_err: f64) -> f64 {
    let next = match *state {
        Some(prev) => EWMA_DECAY * prev + (1.0 - EWMA_DECAY) * abs_err,
        None => abs_err,
    };
    *state = Some(next);
    next
}

/// Maps a rolling `|error|` average to a calibration score in `(0, 1]`:
/// 1.0 at zero error, 0.5 at 100 % average error.
fn calibration(ewma_abs_err: f64) -> f64 {
    1.0 / (1.0 + ewma_abs_err.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_samples(tel: &Telemetry) -> Vec<(u64, f64)> {
        tel.records()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::EstimatorSample {
                    job,
                    rel_err,
                    ref model,
                    ..
                } if model == "speed" => Some((job, rel_err)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn speed_predictions_settle_once() {
        let tel = Telemetry::enabled();
        EstimatorAudit::register(&tel);
        let mut audit = EstimatorAudit::default();
        audit.record_speed_prediction(3, 12.0);
        audit.settle_speed(&tel, 1, 3, Some(10.0));
        // A second settle without a fresh prediction emits nothing.
        audit.settle_speed(&tel, 2, 3, Some(10.0));
        let samples = speed_samples(&tel);
        assert_eq!(samples.len(), 1);
        let (job, rel_err) = samples[0];
        assert_eq!(job, 3);
        assert!((rel_err - 0.2).abs() < 1e-12, "(12-10)/10 = +0.2");
        assert_eq!(tel.counter("audit.speed_samples"), 1);
    }

    #[test]
    fn idle_intervals_consume_the_prediction_silently() {
        let tel = Telemetry::enabled();
        let mut audit = EstimatorAudit::default();
        audit.record_speed_prediction(1, 5.0);
        audit.settle_speed(&tel, 1, 1, None);
        assert!(speed_samples(&tel).is_empty());
        // The stale prediction is gone: a later active interval does not
        // get matched against it.
        audit.settle_speed(&tel, 2, 1, Some(5.0));
        assert!(speed_samples(&tel).is_empty());
    }

    #[test]
    fn repredicting_replaces_the_pending_entry() {
        let tel = Telemetry::enabled();
        let mut audit = EstimatorAudit::default();
        audit.record_speed_prediction(7, 10.0);
        audit.record_speed_prediction(7, 20.0);
        audit.settle_speed(&tel, 1, 7, Some(20.0));
        let samples = speed_samples(&tel);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].1, 0.0, "latest prediction wins");
        // A non-auditable reprediction clears the slot instead.
        audit.record_speed_prediction(7, 10.0);
        audit.record_speed_prediction(7, 0.0);
        audit.settle_speed(&tel, 2, 7, Some(10.0));
        assert_eq!(speed_samples(&tel).len(), 1);
    }

    #[test]
    fn convergence_samples_record_signed_error() {
        let tel = Telemetry::enabled();
        EstimatorAudit::register(&tel);
        let mut audit = EstimatorAudit::default();
        // Underprediction: 8 epochs predicted, 10 truly remaining.
        audit.sample_convergence(&tel, 4, 2, Some(8.0), 10.0);
        // No model yet, and a converged job: both skipped.
        audit.sample_convergence(&tel, 4, 3, None, 10.0);
        audit.sample_convergence(&tel, 4, 4, Some(5.0), 0.0);
        assert_eq!(tel.counter("audit.convergence_samples"), 1);
        let summary = tel.summary();
        let hist = summary
            .histograms
            .iter()
            .find(|h| h.name == CONVERGENCE_ERR_HIST)
            .expect("registered");
        assert_eq!(hist.count, 1);
        assert!(hist.min < 0.0, "signed error preserved: {}", hist.min);
        let gauge = summary
            .gauges
            .iter()
            .find(|(name, _)| name == "audit.convergence_calibration")
            .map(|&(_, v)| v)
            .expect("gauge set");
        assert!(
            (gauge - 1.0 / 1.2).abs() < 1e-12,
            "1/(1+0.2) after one sample"
        );
    }

    #[test]
    fn calibration_score_improves_as_errors_shrink() {
        let tel = Telemetry::enabled();
        let mut audit = EstimatorAudit::default();
        let score = |tel: &Telemetry| {
            tel.summary()
                .gauges
                .iter()
                .find(|(name, _)| name == "audit.speed_calibration")
                .map(|&(_, v)| v)
                .unwrap()
        };
        audit.record_speed_prediction(0, 20.0);
        audit.settle_speed(&tel, 1, 0, Some(10.0)); // 100 % off
        let bad = score(&tel);
        for round in 2..40 {
            audit.record_speed_prediction(0, 10.0);
            audit.settle_speed(&tel, round, 0, Some(10.0)); // perfect
        }
        let good = score(&tel);
        assert!(bad <= 0.5 + 1e-12, "one 100 % miss: {bad}");
        assert!(good > 0.9, "sustained accuracy recovers: {good}");
        assert!(good > bad);
    }
}
