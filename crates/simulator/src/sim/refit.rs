//! The round's online calibration (§3.2).

use super::arrivals::Arrivals;
use super::recorders::Recorders;
use crate::jobstate::SimJob;
use optimus_fitting::{BatchScratch, FitError, LossModel};
use optimus_telemetry::{Telemetry, TraceEvent};

/// The refit buffers, indexed by live-list position and reused across
/// rounds, and the machine's thread count.
#[derive(Debug, Default)]
pub(super) struct Refit {
    /// Each live job's speed refit: `None` without an observation this
    /// interval, else `Ok` or the error message.
    speed_fits: Vec<Option<Result<(), String>>>,
    /// Each live job's convergence fit, replayed or batched.
    conv_fits: Vec<Result<LossModel, FitError>>,
    /// One batched-fit scratch per worker thread.
    workers: Vec<BatchScratch>,
    /// `optimus_parallel::available_threads()`, queried on first need.
    auto_threads: Option<usize>,
}

impl Refit {
    /// Refits from the last interval's observations, under the
    /// `sched.refit` span, on `threads` workers (`SimConfig::refit_threads`).
    ///
    /// Pass A (serial, job order) settles the previous round's speed
    /// predictions against the realized speeds before the refits fold
    /// the same observations in (nothing random, and no refit reads the
    /// audit) and refits the speed models. Pass B refits every live
    /// job's convergence estimator through the batched SoA engine, which
    /// replays the cached fit of each estimator with no new samples
    /// (`fit.dirty_skipped`); each job touches only its own models, so
    /// lane groups fan out across threads. Pass C emits the fit records
    /// in job order, independent of the thread count.
    pub(super) fn run(
        &mut self,
        round: u64,
        jobs: &mut [SimJob],
        arrivals: &Arrivals,
        rec: &mut Recorders,
        threads: Option<usize>,
    ) {
        let tel = &rec.tel;
        let span = tel.span("sched.refit");
        let live = &arrivals.live;
        let threads = self.threads(threads, live.len());
        let settled = arrivals.settle.iter().map(|&i| &jobs[i]);
        rec.audit.settle_jobs(tel, round, settled);
        self.speed_fits.clear();
        // The live jobs ascend, so one forward walk of the job slice
        // refits their speed models and borrows their estimators for
        // pass B.
        let mut ests = Vec::with_capacity(live.len());
        let mut walk = jobs.iter_mut();
        let mut next = 0;
        for &i in live {
            let job = walk.nth(i - next).expect("live indices ascend within jobs");
            next = i + 1;
            self.speed_fits
                .push(job.observed_interval_speed().map(|speed| {
                    job.speed_model.record(job.ps, job.workers, speed);
                    job.speed_model.refit().map_err(|e| e.to_string())
                }));
            ests.push(&mut job.convergence);
        }
        if self.workers.len() < threads {
            self.workers.resize_with(threads, Default::default);
        }
        self.conv_fits =
            optimus_core::refit_convergence_batch(&mut ests, &mut self.workers[..threads]);
        drop(span);
        if tel.is_enabled() {
            self.emit(jobs, live, tel);
        }
    }

    /// The worker count: `configured` as-is (0 counts as 1), else serial
    /// while `live` jobs are too few to amortize thread spawns. The
    /// machine's parallelism costs syscalls to query, so it is asked
    /// once per run, and only when a round could fan out.
    fn threads(&mut self, configured: Option<usize>, live: usize) -> usize {
        match configured {
            Some(n) => n.max(1),
            None if live < 8 => 1,
            None => {
                let auto = *self
                    .auto_threads
                    .get_or_insert_with(optimus_parallel::available_threads);
                if live < 8 * auto {
                    1
                } else {
                    auto
                }
            }
        }
    }

    /// Pass C. Nothing touches a speed model between its refit and
    /// here, so the record reads the fit from the model.
    fn emit(&mut self, jobs: &[SimJob], live: &[usize], tel: &Telemetry) {
        for (k, &i) in live.iter().enumerate() {
            let job = &jobs[i];
            let id = job.spec.id.0;
            match self.speed_fits[k].take() {
                Some(Ok(())) => tel.record(TraceEvent::SpeedFit {
                    job: id,
                    coeffs: job.speed_model.coefficients().to_vec(),
                    residual: job.speed_model.residual_ss().unwrap_or(0.0),
                    samples: job.speed_model.sample_count(),
                }),
                Some(Err(reason)) => tel.record(TraceEvent::FitFailure {
                    job: id,
                    what: "speed".to_string(),
                    reason,
                }),
                None => {}
            }
            match &self.conv_fits[k] {
                Ok(m) => tel.record(TraceEvent::ConvergenceFit {
                    job: id,
                    coeffs: vec![m.beta0, m.beta1, m.beta2],
                    residual: m.residual_ss,
                    samples: job.convergence.sample_count(),
                }),
                Err(e) => tel.record(TraceEvent::FitFailure {
                    job: id,
                    what: "convergence".to_string(),
                    reason: e.to_string(),
                }),
            }
        }
    }
}
