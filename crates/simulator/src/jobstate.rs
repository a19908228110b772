//! Per-job runtime state inside the simulator.

use optimus_cluster::ResourceVec;
use optimus_core::scheduler::JobPlacement;
use optimus_core::{ConvergenceEstimator, SpeedModel};
use optimus_ps::data::ChunkedDataset;
use optimus_ps::{
    EnvFactors, PsAssignment, PsJobModel, StragglerMonitor, StragglerPolicy, TaskCounts,
};
use optimus_workload::JobSpec;
use serde::{Deserialize, Serialize};

/// Lifecycle of a simulated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Submitted but not yet seen by a scheduling interval.
    Pending,
    /// Holding tasks and making progress.
    Running,
    /// Active but without placed tasks this interval (§4.2) or paying
    /// scaling overhead.
    Paused,
    /// Converged.
    Finished,
}

/// Which accounting phase a job's wall clock is currently charged to.
/// Together the phases partition the job's completion time exactly:
/// `queue + run + overhead + stall = finish − submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JctPhase {
    /// Submitted but never yet placed (queueing delay).
    #[default]
    Queued,
    /// Holding tasks and progressing.
    Running,
    /// Paying checkpoint/restart overhead (rescale or failure restart).
    Overhead,
    /// Placed at least once before, currently without tasks and not
    /// paying overhead: a scheduling stall (preempted, starved, or
    /// waiting out a failure until the next round).
    Stalled,
    /// Finished — the clock no longer accrues.
    Done,
}

/// A phase-partitioned wall clock for one job's completion time.
///
/// Time accrues lazily: the clock remembers which phase started when
/// (`since`) and charges the elapsed span to that phase's bucket only
/// at the next transition. All transitions happen at simulation event
/// times (rounds, failures, overhead-drain ticks, the finish instant),
/// which the event engine visits at the same instants as the reference
/// tick loop — so the decomposition is byte-identical between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct JctClock {
    phase: JctPhase,
    since: f64,
    /// Seconds from submission to the first placement.
    pub queue_s: f64,
    /// Seconds spent holding tasks.
    pub run_s: f64,
    /// Seconds paying checkpoint/restart overhead.
    pub overhead_s: f64,
    /// Seconds stalled without tasks after having run.
    pub stall_s: f64,
}

impl JctClock {
    /// A clock starting in [`JctPhase::Queued`] at the submit time.
    pub fn new(submit_time: f64) -> Self {
        JctClock {
            phase: JctPhase::Queued,
            since: submit_time,
            ..JctClock::default()
        }
    }

    /// The phase currently accruing.
    pub fn phase(&self) -> JctPhase {
        self.phase
    }

    /// Moves to `phase` at time `t`, charging the elapsed span to the
    /// previous phase. A same-phase transition is a no-op (the span
    /// keeps accruing). Transitions on a [`JctPhase::Done`] clock are
    /// ignored.
    pub fn transition(&mut self, phase: JctPhase, t: f64) {
        if phase == self.phase || self.phase == JctPhase::Done {
            return;
        }
        self.accrue(t);
        self.phase = phase;
    }

    /// Stops the clock at `t`, charging the final span.
    pub fn settle(&mut self, t: f64) {
        self.transition(JctPhase::Done, t);
    }

    /// Sum of all phase buckets (equals `finish − submit` once
    /// settled).
    pub fn total(&self) -> f64 {
        self.queue_s + self.run_s + self.overhead_s + self.stall_s
    }

    fn accrue(&mut self, t: f64) {
        let dt = (t - self.since).max(0.0);
        match self.phase {
            JctPhase::Queued => self.queue_s += dt,
            JctPhase::Running => self.run_s += dt,
            JctPhase::Overhead => self.overhead_s += dt,
            JctPhase::Stalled => self.stall_s += dt,
            JctPhase::Done => {}
        }
        self.since = t;
    }
}

/// Everything the simulator tracks for one job.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The submitted specification.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Ground-truth steps completed (fractional between ticks).
    pub steps_done: f64,
    /// Ground-truth total steps required (fixed at submission).
    pub true_total_steps: u64,
    /// Current placed parameter servers.
    pub ps: u32,
    /// Current placed workers.
    pub workers: u32,
    /// The concrete per-server placement currently held (empty when
    /// paused). Needed to re-reserve a pinned job's servers when the §7
    /// rescale-frequency threshold is active.
    pub placement: JobPlacement,
    /// Simulation time of the last (p, w) reconfiguration.
    pub last_scale_time: f64,
    /// Environmental factors of the current placement.
    pub env: EnvFactors,
    /// Scheduler-visible convergence estimator (§3.1).
    pub convergence: ConvergenceEstimator,
    /// Scheduler-visible speed model (§3.2).
    pub speed_model: SpeedModel,
    /// Straggler state of the current worker fleet (§5.2).
    pub stragglers: StragglerMonitor,
    /// The job's chunked training data (§5.1).
    pub dataset: ChunkedDataset,
    /// Workers the chunks are dealt over. Every assignment is balanced
    /// (see [`ChunkedDataset::rebalance_moves`]), so the count is all
    /// the chunk bookkeeping a rebalance needs.
    pub chunk_workers: usize,
    /// Total chunks moved by rebalances.
    pub chunks_moved: usize,
    /// Seconds of scaling (checkpoint/restart) overhead still to pay
    /// before progress resumes.
    pub overhead_remaining_s: f64,
    /// Total scaling overhead paid, seconds (§6.2 reports this as a
    /// fraction of makespan).
    pub overhead_total_s: f64,
    /// Number of (p, w) reconfigurations.
    pub scale_events: usize,
    /// Completion time (absolute sim time), once finished.
    pub finish_time: Option<f64>,
    /// First time the job actually held tasks (queueing delay =
    /// `first_run_time − submit_time`).
    pub first_run_time: Option<f64>,
    /// Steps at the start of the current interval (with
    /// [`SimJob::interval_active_s`], the observed-speed sample for
    /// online calibration).
    pub interval_steps_start: f64,
    /// Seconds this job actively progressed since the interval started.
    pub interval_active_s: f64,
    /// Fig-15 error-injection signs drawn for this job.
    pub inject_signs: (bool, bool),
    /// The JCT decomposition clock (queue → run → overhead → stall).
    pub jct: JctClock,
    /// Memoized §5.3 imbalance factors keyed by `(ps, use_paa)`: the
    /// parameter-block split is fixed at submission, so the factor for
    /// a given shard count never changes over the job's lifetime.
    pub imbalance_cache: Vec<(u32, bool, f64)>,
}

impl SimJob {
    /// Creates the runtime state for a submitted job.
    pub fn new(spec: JobSpec, straggler_policy: StragglerPolicy) -> Self {
        let profile = spec.profile();
        let true_total_steps = spec.true_total_steps();
        let steps_per_epoch = spec.steps_per_epoch();
        let dataset = ChunkedDataset::new(
            ((profile.dataset_size as f64 * spec.dataset_scale).max(1.0) * 1024.0) as u64,
        )
        .with_chunk_bytes(128 * 1024); // ~examples×1 KiB, 128 KiB chunks
        let convergence = ConvergenceEstimator::new(
            spec.convergence_threshold,
            steps_per_epoch,
            spec.patience_epochs,
        )
        .with_max_fit_points(400);
        let speed_model = SpeedModel::new(spec.mode, profile.batch_size as f64);
        SimJob {
            status: JobStatus::Pending,
            steps_done: 0.0,
            true_total_steps,
            ps: 0,
            workers: 0,
            placement: JobPlacement::new(),
            last_scale_time: f64::NEG_INFINITY,
            env: EnvFactors::default(),
            convergence,
            speed_model,
            stragglers: StragglerMonitor::new(0, straggler_policy),
            dataset,
            chunk_workers: 1,
            chunks_moved: 0,
            overhead_remaining_s: 0.0,
            overhead_total_s: 0.0,
            scale_events: 0,
            finish_time: None,
            first_run_time: None,
            interval_steps_start: 0.0,
            interval_active_s: 0.0,
            inject_signs: (true, true),
            jct: JctClock::new(spec.submit_time),
            imbalance_cache: Vec::new(),
            spec,
        }
    }

    /// The JCT phase the job's *current* state should be charged to —
    /// called at transition points (apply, failure, overhead drain).
    pub fn current_phase(&self) -> JctPhase {
        if self.status == JobStatus::Finished {
            JctPhase::Done
        } else if self.overhead_remaining_s > 0.0 {
            JctPhase::Overhead
        } else if self.status == JobStatus::Running && self.ps > 0 && self.workers > 0 {
            JctPhase::Running
        } else if self.first_run_time.is_none() {
            JctPhase::Queued
        } else {
            JctPhase::Stalled
        }
    }

    /// The ground-truth performance model for this job.
    pub fn truth(&self) -> PsJobModel<'static> {
        PsJobModel::new(self.spec.profile(), self.spec.mode)
    }

    /// Fraction of the job's ground-truth work completed, in [0, 1].
    pub fn true_progress(&self) -> f64 {
        if self.true_total_steps == 0 {
            return 1.0;
        }
        (self.steps_done / self.true_total_steps as f64).clamp(0.0, 1.0)
    }

    /// Scheduler-visible progress estimate: observed steps over the
    /// estimated total (true progress is not visible to schedulers).
    pub fn estimated_progress(&self) -> f64 {
        match self.convergence.predict() {
            Some(pred) if pred.total_steps > 0 => {
                (self.steps_done / pred.total_steps as f64).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }

    /// True when the job currently holds tasks and is not paying
    /// overhead.
    pub fn is_progressing(&self) -> bool {
        self.status == JobStatus::Running
            && self.ps > 0
            && self.workers > 0
            && self.overhead_remaining_s <= 0.0
    }

    /// True while the per-tick body can still change the job: it runs,
    /// drains restart overhead, or owes the Overhead→next phase
    /// transition.
    pub(crate) fn needs_ticks(&self) -> bool {
        self.status == JobStatus::Running
            || self.overhead_remaining_s > 0.0
            || self.jct.phase() == JctPhase::Overhead
    }

    /// Ground-truth step rate at the current configuration and
    /// environment.
    pub(crate) fn true_speed(&self) -> f64 {
        self.truth().speed_with(self.ps, self.workers, &self.env)
    }

    /// Resources `counts` of this job's tasks take on one server.
    pub(crate) fn demand(&self, counts: &TaskCounts) -> ResourceVec {
        self.spec.worker_profile * counts.workers as f64 + self.spec.ps_profile * counts.ps as f64
    }

    /// Finishes the job inside the tick `[t, t + dt)` in which its
    /// progress crossed the ground-truth total at `speed`: the finish
    /// instant is interpolated within the tick, the tasks are released
    /// and the JCT phase clock closes at that instant, so the four
    /// buckets sum to the reported JCT to the last float. Returns the
    /// finish instant.
    pub(crate) fn finish_within_tick(&mut self, t: f64, dt: f64, speed: f64) -> f64 {
        let excess = self.steps_done - self.true_total_steps as f64;
        let within = dt - excess / speed.max(1e-12);
        let finish = t + within.clamp(0.0, dt);
        self.finish_time = Some(finish);
        self.status = JobStatus::Finished;
        self.ps = 0;
        self.workers = 0;
        self.jct.settle(finish);
        finish
    }

    /// The PS load-imbalance factor for `p` shards under the given
    /// assignment policy.
    pub fn imbalance_for(&self, p: u32, use_paa: bool, seed: u64) -> f64 {
        if p == 0 {
            return 1.0;
        }
        let blocks = self.spec.profile().parameter_blocks();
        let stats = if use_paa {
            PsAssignment::paa(&blocks, p).stats()
        } else {
            PsAssignment::mxnet_default(&blocks, p, seed).stats()
        };
        stats.imbalance_factor
    }

    /// Memoizing wrapper around [`SimJob::imbalance_for`]: the blocks
    /// are fixed at submission, so each `(p, use_paa)` pair is priced
    /// once per job lifetime instead of re-running the shard assignment
    /// on every rescale. `seed` is the sim-wide RNG seed and is assumed
    /// constant across calls within one run.
    pub fn imbalance_cached(&mut self, p: u32, use_paa: bool, seed: u64) -> f64 {
        if let Some(hit) = self
            .imbalance_cache
            .iter()
            .find(|e| e.0 == p && e.1 == use_paa)
        {
            return hit.2;
        }
        let factor = self.imbalance_for(p, use_paa, seed);
        self.imbalance_cache.push((p, use_paa, factor));
        factor
    }

    /// Average observed speed since the last interval boundary, if the
    /// job was active.
    pub fn observed_interval_speed(&self) -> Option<f64> {
        if self.interval_active_s <= 0.0 {
            return None;
        }
        let steps = self.steps_done - self.interval_steps_start;
        if steps <= 0.0 {
            return None;
        }
        Some(steps / self.interval_active_s)
    }

    /// Steps per epoch for this job.
    pub fn steps_per_epoch(&self) -> u64 {
        self.spec.steps_per_epoch()
    }

    /// Worker CPU utilization proxy: the fraction of a step spent in
    /// compute (forward + backward), from the ground-truth step time.
    pub fn worker_utilization(&self) -> f64 {
        if !self.is_progressing() {
            return 0.0;
        }
        let truth = self.truth();
        let t = truth.step_time_with(self.ps, self.workers, &self.env);
        if !t.is_finite() || t <= 0.0 {
            return 0.0;
        }
        let profile = self.spec.profile();
        let compute = truth.minibatch(self.workers) * profile.forward_time_per_example
            + profile.backward_time;
        (compute / t).clamp(0.0, 1.0)
    }

    /// PS CPU utilization proxy: the fraction of a step spent on
    /// transfer + update work at the parameter servers.
    pub fn ps_utilization(&self) -> f64 {
        if !self.is_progressing() {
            return 0.0;
        }
        let truth = self.truth();
        let t = truth.step_time_with(self.ps, self.workers, &self.env);
        if !t.is_finite() || t <= 0.0 {
            return 0.0;
        }
        let compute = truth.minibatch(self.workers) * self.spec.profile().forward_time_per_example
            + self.spec.profile().backward_time;
        let comm = (t - compute).max(0.0);
        (comm / t).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_workload::{JobId, ModelKind, TrainingMode};

    fn job() -> SimJob {
        let spec = JobSpec::new(
            JobId(0),
            ModelKind::Seq2Seq,
            TrainingMode::Synchronous,
            0.02,
        )
        .scaled(0.1);
        SimJob::new(spec, StragglerPolicy::default())
    }

    #[test]
    fn fresh_job_is_pending_with_no_progress() {
        let j = job();
        assert_eq!(j.status, JobStatus::Pending);
        assert_eq!(j.true_progress(), 0.0);
        assert!(!j.is_progressing());
        assert_eq!(j.estimated_progress(), 0.0);
    }

    #[test]
    fn progress_tracks_steps() {
        let mut j = job();
        j.steps_done = j.true_total_steps as f64 / 2.0;
        assert!((j.true_progress() - 0.5).abs() < 1e-9);
        j.steps_done = j.true_total_steps as f64 * 2.0;
        assert_eq!(j.true_progress(), 1.0);
    }

    #[test]
    fn paa_beats_mxnet_imbalance_here_too() {
        let j = job();
        let paa = j.imbalance_for(10, true, 1);
        let mx = j.imbalance_for(10, false, 1);
        assert!(paa <= mx + 1e-12, "paa {paa} vs mxnet {mx}");
        assert_eq!(j.imbalance_for(0, true, 1), 1.0);
    }

    #[test]
    fn utilization_proxies_bounded() {
        let mut j = job();
        j.status = JobStatus::Running;
        j.ps = 4;
        j.workers = 4;
        let wu = j.worker_utilization();
        let pu = j.ps_utilization();
        assert!((0.0..=1.0).contains(&wu));
        assert!((0.0..=1.0).contains(&pu));
        assert!(wu + pu <= 1.0 + 1e-9, "{wu} + {pu}");
        assert!(wu > 0.0);
    }

    #[test]
    fn jct_clock_partitions_elapsed_time() {
        let mut c = JctClock::new(10.0);
        assert_eq!(c.phase(), JctPhase::Queued);
        c.transition(JctPhase::Running, 25.0); // queued 15 s
        c.transition(JctPhase::Running, 40.0); // same-phase: no-op
        c.transition(JctPhase::Overhead, 55.0); // ran 30 s
        c.transition(JctPhase::Stalled, 60.0); // overhead 5 s
        c.transition(JctPhase::Running, 70.0); // stalled 10 s
        c.settle(100.0); // ran 30 s more
        assert_eq!(c.queue_s, 15.0);
        assert_eq!(c.run_s, 60.0);
        assert_eq!(c.overhead_s, 5.0);
        assert_eq!(c.stall_s, 10.0);
        assert_eq!(c.total(), 90.0);
        assert_eq!(c.phase(), JctPhase::Done);
    }

    #[test]
    fn jct_clock_ignores_transitions_after_done() {
        let mut c = JctClock::new(0.0);
        c.transition(JctPhase::Running, 5.0);
        c.settle(8.0);
        c.transition(JctPhase::Stalled, 50.0);
        c.settle(60.0);
        assert_eq!(c.total(), 8.0);
        assert_eq!(c.phase(), JctPhase::Done);
    }

    #[test]
    fn current_phase_tracks_job_state() {
        let mut j = job();
        assert_eq!(j.current_phase(), JctPhase::Queued);
        j.status = JobStatus::Running;
        j.ps = 1;
        j.workers = 1;
        j.first_run_time = Some(0.0);
        assert_eq!(j.current_phase(), JctPhase::Running);
        j.overhead_remaining_s = 5.0;
        assert_eq!(j.current_phase(), JctPhase::Overhead);
        j.overhead_remaining_s = 0.0;
        j.ps = 0;
        j.workers = 0;
        j.status = JobStatus::Paused;
        assert_eq!(j.current_phase(), JctPhase::Stalled);
        j.status = JobStatus::Finished;
        assert_eq!(j.current_phase(), JctPhase::Done);
    }

    #[test]
    fn observed_speed_needs_activity() {
        let mut j = job();
        assert!(j.observed_interval_speed().is_none());
        j.interval_steps_start = 0.0;
        j.steps_done = 30.0;
        j.interval_active_s = 300.0;
        assert!((j.observed_interval_speed().unwrap() - 0.1).abs() < 1e-12);
    }
}
