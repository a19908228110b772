//! The scheduler's side of a round (§4): the views it sees, the
//! capacity it may divide, the delta against the previous round, the
//! decision, and the decision's application to the jobs.

use super::recorders::Recorders;
use super::{AssignmentPolicy, SimConfig};
use crate::audit::EstimatorAudit;
use crate::events::SimEventKind;
use crate::inject::ErrorInjection;
use crate::jobstate::{JobStatus, SimJob};
use optimus_cluster::{Cluster, ResourceVec, ServerId};
use optimus_core::{JobView, RoundDelta, RoundScratch, Schedule, Scheduler};
use optimus_ps::contention::{oversubscription_factors, JobTraffic};
use optimus_ps::transfer::transfer_stretch;
use optimus_ps::TaskCounts;
use optimus_telemetry::Telemetry;
use optimus_workload::TrainingMode;

/// Fixed part of a §5.4 checkpoint/restart, seconds.
const CHECKPOINT_RESTART_S: f64 = 10.0;
/// HDFS checkpoint write/read bandwidth, bytes/s.
const HDFS_BANDWIDTH: f64 = 125e6;
/// The baseline schedulers' fixed per-job request (1:1 task pairs).
const REQUESTED_UNITS: u32 = 8;
/// Per-server NIC capacity of the cross-job contention model, bytes/s.
const NIC_BYTES_PER_S: f64 = 125e6;

/// Exact-value fingerprint of one job's scheduler view: equal
/// fingerprints (at the same job id) mean bit-identical views. The
/// speed model's mutation generation stands in for its coefficients and
/// samples, floats compare by bit pattern, and nothing is hashed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ViewFp {
    speed_gen: u64,
    scale_bits: u64,
    remaining_bits: u64,
    progress_bits: u64,
    worker_profile: ResourceVec,
    ps_profile: ResourceVec,
}

/// The previous round's view fingerprints and scheduler-visible
/// cluster, diffed each round into a [`RoundDelta`] for
/// [`Scheduler::schedule_delta`]. Flight snapshots and progress lines
/// report the churn whether or not the scheduler uses it.
#[derive(Debug, Default)]
pub(super) struct DeltaTrack {
    /// The previous round made a decision to diff against.
    valid: bool,
    /// Fingerprint per `jobs` index (`None` = no view).
    fps: Vec<Option<ViewFp>>,
    /// The `jobs` indices holding `Some` in `fps`, ascending.
    fp_ids: Vec<usize>,
    /// This round's fingerprints, one per view.
    fps_next: Vec<ViewFp>,
    /// Per-server `(capacity, available)` after all reservations.
    cluster: Vec<(ResourceVec, ResourceVec)>,
    /// Reused delta buffer handed to the scheduler.
    delta: RoundDelta,
    /// Churn of the most recent round (dirty views + departures).
    pub(super) last_delta_jobs: u64,
    /// The most recent round was provably unchanged end to end.
    pub(super) last_quiescent: bool,
    /// Whole-round skips taken so far.
    pub(super) skipped: u64,
}

impl DeltaTrack {
    /// Diffs this round's inputs into `delta`; returns the churn (dirty
    /// views plus departures) and whether nothing changed.
    fn diff(&mut self, view_index: &[usize], fresh: &Cluster) -> (u64, bool) {
        self.delta.dirty.clear();
        let mut kept = 0u64;
        for (vi, (&i, &fp)) in view_index.iter().zip(&self.fps_next).enumerate() {
            let prev = self.fps.get(i).copied().flatten();
            kept += u64::from(prev.is_some());
            if prev != Some(fp) {
                self.delta.dirty.push(vi as u32);
            }
        }
        // Every previous view job without a view this round departed.
        let departures = self.fp_ids.len() as u64 - kept;
        let cluster_changed = !self.valid
            || self.cluster.len() != fresh.len()
            || (fresh.servers().zip(&self.cluster))
                .any(|(s, &prev)| prev != (s.capacity(), s.available()));
        self.delta.full = !self.valid;
        self.delta.cluster_changed = cluster_changed;
        let churn = self.delta.dirty.len() as u64 + departures;
        let quiescent =
            self.valid && !cluster_changed && departures == 0 && self.delta.dirty.is_empty();
        (churn, quiescent)
    }

    /// Makes this round's fingerprints and cluster the previous round's.
    fn refresh(&mut self, view_index: &[usize], fresh: &Cluster, n_jobs: usize) {
        if self.fps.len() < n_jobs {
            self.fps.resize(n_jobs, None);
        }
        for &i in &self.fp_ids {
            self.fps[i] = None;
        }
        for (&i, &fp) in view_index.iter().zip(&self.fps_next) {
            self.fps[i] = Some(fp);
        }
        self.fp_ids.clear();
        self.fp_ids.extend_from_slice(view_index);
        self.cluster.clear();
        self.cluster
            .extend(fresh.servers().map(|s| (s.capacity(), s.available())));
        self.valid = true;
    }
}

/// The scheduler and everything a decision carries across rounds.
pub(super) struct SchedulerRound {
    pub(super) scheduler: Box<dyn Scheduler>,
    /// Heap storage, prediction caches and placement index reused
    /// across rounds, so steady-state decisions allocate nothing.
    scratch: RoundScratch,
    /// The decision; the whole-round skip leaves the previous one.
    schedule: Schedule,
    pub(super) track: DeltaTrack,
    /// This round's views, in live-list order.
    views: Vec<JobView>,
    /// The `jobs` index of each view.
    view_index: Vec<usize>,
    /// Jobs pinned to their placement, hidden from the scheduler.
    pinned: Vec<usize>,
}

impl SchedulerRound {
    pub(super) fn new(scheduler: Box<dyn Scheduler>) -> Self {
        SchedulerRound {
            scheduler,
            scratch: RoundScratch::default(),
            schedule: Schedule::default(),
            track: DeltaTrack::default(),
            views: Vec::new(),
            view_index: Vec::new(),
            pinned: Vec::new(),
        }
    }

    /// Builds the views of the live jobs at `t`. Jobs reconfigured less
    /// than `min_rescale_interval_s` ago are pinned instead (§7). Returns
    /// false when no job has a view: there is no decision, and the next
    /// round has nothing to diff against.
    pub(super) fn build_views(
        &mut self,
        t: f64,
        jobs: &[SimJob],
        live: &[usize],
        cfg: &SimConfig,
    ) -> bool {
        self.views.clear();
        self.view_index.clear();
        self.pinned.clear();
        self.track.fps_next.clear();
        for &i in live {
            let job = &jobs[i];
            if cfg.min_rescale_interval_s > 0.0
                && job.status == JobStatus::Running
                && job.ps > 0
                && job.workers > 0
                && t - job.last_scale_time < cfg.min_rescale_interval_s
            {
                self.pinned.push(i);
                continue;
            }
            let spe = job.steps_per_epoch() as f64;
            // Remaining work: estimator output, or a conservative prior
            // of 60 epochs before the first successful fit.
            let default_remaining = (60.0 * spe) as u64;
            let mut remaining = job.convergence.remaining_steps_or(default_remaining) as f64;
            let mut speed = job.speed_model.predictor();
            let mut progress = job.estimated_progress();
            if let Some(inject) = cfg.inject {
                // Fig 15: feed truth × (1 ± e·(1−progress)) instead.
                progress = job.true_progress();
                let true_remaining = (job.true_total_steps as f64 - job.steps_done).max(0.0);
                remaining = true_remaining
                    * ErrorInjection::multiplier(
                        inject.convergence_error,
                        job.inject_signs.0,
                        progress,
                    );
                speed.set_prediction_scale(ErrorInjection::multiplier(
                    inject.speed_error,
                    job.inject_signs.1,
                    progress,
                ));
            }
            let remaining_work = remaining.max(1.0);
            self.track.fps_next.push(ViewFp {
                speed_gen: speed.generation(),
                scale_bits: speed.prediction_scale().to_bits(),
                remaining_bits: remaining_work.to_bits(),
                progress_bits: progress.to_bits(),
                worker_profile: job.spec.worker_profile,
                ps_profile: job.spec.ps_profile,
            });
            self.views.push(JobView {
                id: job.spec.id,
                worker_profile: job.spec.worker_profile,
                ps_profile: job.spec.ps_profile,
                remaining_work,
                speed,
                progress,
                requested_units: REQUESTED_UNITS,
            });
            self.view_index.push(i);
        }
        if self.views.is_empty() {
            self.track.valid = false;
            self.track.last_delta_jobs = 0;
            self.track.last_quiescent = false;
            return false;
        }
        true
    }

    /// The capacity the scheduler may divide at `t` (§5.4: every round
    /// re-divides the cluster): failed servers, the background share and
    /// the pinned jobs' tasks are reserved. Pinned jobs skip
    /// [`Self::apply`], so their interval and speed audit restart here.
    pub(super) fn reserve(
        &self,
        t: f64,
        cluster: &Cluster,
        failed: &[ServerId],
        jobs: &mut [SimJob],
        cfg: &SimConfig,
        audit: &mut EstimatorAudit,
    ) -> Cluster {
        let mut fresh = cluster.clone();
        fresh.clear_allocations();
        for &sid in failed {
            // A dead server is modeled as fully reserved.
            if let Ok(server) = fresh.server_mut(sid) {
                let cap = server.capacity();
                server
                    .allocate(&cap)
                    .expect("empty server fits its capacity");
            }
        }
        if let Some(bg) = cfg.background {
            let frac = bg.fraction_at(t);
            let ids: Vec<_> = fresh.servers().map(|s| s.id()).collect();
            for sid in ids {
                let server = fresh.server_mut(sid).expect("own ids");
                let reserve = server.capacity() * frac;
                // Skip servers that cannot take the reservation (e.g.
                // already fully reserved because they failed).
                if server.can_fit(&reserve) {
                    server.allocate(&reserve).expect("can_fit checked");
                }
            }
        }
        for &i in &self.pinned {
            let job = &mut jobs[i];
            for (sid, counts) in &job.placement {
                // A pinned reservation can only fail if the cluster
                // itself shrank; treat that as a forced unpin.
                if fresh
                    .server_mut(*sid)
                    .and_then(|srv| srv.allocate(&job.demand(counts)))
                    .is_err()
                {
                    job.placement.clear();
                    job.ps = 0;
                    job.workers = 0;
                    job.status = JobStatus::Paused;
                    break;
                }
            }
            job.interval_steps_start = job.steps_done;
            job.interval_active_s = 0.0;
            if job.ps > 0 && job.workers > 0 {
                let predicted = job.speed_model.predict(job.ps, job.workers);
                audit.record_speed_prediction(job.spec.id.0, predicted);
            }
        }
        fresh
    }

    /// Diffs this round's inputs against the previous round's, runs the
    /// scheduler on `fresh`, and keeps the inputs for the next diff.
    pub(super) fn decide(&mut self, fresh: &Cluster, n_jobs: usize, tel: &Telemetry) {
        let (churn, quiescent) = self.track.diff(&self.view_index, fresh);
        let stats = self.scheduler.schedule_delta(
            &self.views,
            fresh,
            &self.track.delta,
            &mut self.scratch,
            &mut self.schedule,
        );
        self.track.last_delta_jobs = churn;
        self.track.last_quiescent = quiescent;
        self.track.refresh(&self.view_index, fresh, n_jobs);
        self.track.skipped += u64::from(stats.skipped_full);
        if tel.is_enabled() {
            tel.add("round.delta_jobs", churn);
            if stats.skipped_full {
                tel.add("round.skipped_full", 1);
            }
        }
    }

    /// Applies the decision to every view job at `t`: rescales pay the
    /// §5.4 checkpoint/restart and rebalance chunks (§5.1), placements
    /// refresh their environment, and each grant or pause is logged and
    /// audited.
    pub(super) fn apply(
        &self,
        t: f64,
        round: u64,
        jobs: &mut [SimJob],
        cfg: &SimConfig,
        rec: &mut Recorders,
    ) {
        let use_paa = cfg.assignment == AssignmentPolicy::Paa;
        for (&i, view) in self.view_index.iter().zip(&self.views) {
            let placement = self.schedule.placement_for(view.id).unwrap_or(&[]);
            let counts: Vec<TaskCounts> = placement.iter().map(|&(_, c)| c).collect();
            let new_ps: u32 = counts.iter().map(|c| c.ps).sum();
            let new_w: u32 = counts.iter().map(|c| c.workers).sum();
            let job = &mut jobs[i];
            let old = (job.ps, job.workers);
            let changed = old != (new_ps, new_w);
            let had_tasks = old.0 > 0 && old.1 > 0;
            let placed = new_ps > 0 && new_w > 0;

            if changed && had_tasks {
                // §5.4 checkpoint + restart.
                let s = job.spec.profile().model_size_bytes();
                let overhead = CHECKPOINT_RESTART_S + 2.0 * s / HDFS_BANDWIDTH;
                job.overhead_remaining_s += overhead;
                job.overhead_total_s += overhead;
                job.scale_events += 1;
            }
            if changed && new_w > 0 {
                let moved = job
                    .dataset
                    .rebalance_moves(job.chunk_workers, new_w as usize);
                job.chunk_workers = new_w as usize;
                job.chunks_moved += moved;
                job.stragglers.resize(new_w as usize);
                if moved > 0 {
                    if rec.tel.is_enabled() {
                        rec.tel.add("paa.rebalance_moves", moved as u64);
                    }
                    let kind = SimEventKind::ChunksRebalanced {
                        job: view.id,
                        moved,
                    };
                    rec.log(t, t, kind);
                }
            }
            if changed {
                job.last_scale_time = t;
            }
            job.ps = new_ps;
            job.workers = new_w;
            if placed && job.first_run_time.is_none() {
                job.first_run_time = Some(t);
            }
            job.placement = placement.to_vec();
            job.status = if placed {
                JobStatus::Running
            } else {
                JobStatus::Paused
            };
            // Both loops run the round on the same tick, so the phase
            // clock sees this decision at the same instant.
            let next_phase = job.current_phase();
            job.jct.transition(next_phase, t);

            // Environmental factors of the new placement.
            if placed {
                let shard = job.spec.profile().model_size_bytes() / new_ps as f64;
                job.env.transfer_stretch = transfer_stretch(
                    &counts,
                    shard,
                    optimus_ps::steptime::DEFAULT_PS_BANDWIDTH,
                    optimus_ps::steptime::DEFAULT_PS_BANDWIDTH,
                );
                job.env.imbalance = job.imbalance_cached(new_ps, use_paa, cfg.seed);
                job.stragglers
                    .slowdown_factors_into(&mut job.env.worker_slowdown);
            }
            job.interval_steps_start = job.steps_done;
            job.interval_active_s = 0.0;
            let kind = if placed {
                SimEventKind::JobScheduled {
                    job: view.id,
                    ps: new_ps,
                    workers: new_w,
                    servers: counts.len(),
                    rescale: changed && had_tasks,
                }
            } else {
                SimEventKind::JobPaused { job: view.id }
            };
            rec.log(t, t, kind);
            // Audit: the convergence estimate is checked against ground
            // truth now; the speed prediction waits for the next
            // interval's realized speed. Both run without telemetry too.
            let spe = job.steps_per_epoch().max(1) as f64;
            let true_epochs = (job.true_total_steps as f64 - job.steps_done).max(0.0) / spe;
            let predicted_epochs = job.convergence.predicted_remaining_epochs();
            rec.audit
                .sample_convergence(&rec.tel, round, view.id.0, predicted_epochs, true_epochs);
            if placed {
                let predicted = job.speed_model.predict(new_ps, new_w);
                rec.audit.record_speed_prediction(view.id.0, predicted);
            }
        }
    }
}

/// Folds cross-job NIC oversubscription from the current placements
/// into every running job's environment: one fixed-point iteration, the
/// demand evaluated at the uncontended speed.
pub(super) fn apply_nic_contention(jobs: &mut [SimJob], live: &[usize]) {
    let mut traffic = Vec::new();
    for &i in live {
        let job = &jobs[i];
        if job.status != JobStatus::Running || job.ps == 0 || job.workers == 0 {
            continue;
        }
        let mut env = job.env.clone();
        env.nic_oversubscription = 1.0;
        let truth = job.truth();
        let steps_per_s = match job.spec.mode {
            // An async worker pushes per its own step: aggregate / w.
            TrainingMode::Synchronous => truth.speed_with(job.ps, job.workers, &env),
            TrainingMode::Asynchronous => {
                truth.speed_with(job.ps, job.workers, &env) / job.workers as f64
            }
        };
        traffic.push(JobTraffic::from_step_model(
            job.spec.id,
            job.placement.clone(),
            job.spec.profile().model_size_bytes(),
            steps_per_s,
        ));
    }
    let factors = oversubscription_factors(&traffic, NIC_BYTES_PER_S);
    for &i in live {
        let job = &mut jobs[i];
        if job.status == JobStatus::Running {
            job.env.nic_oversubscription = factors.get(&job.spec.id).copied().unwrap_or(1.0);
        }
    }
}
