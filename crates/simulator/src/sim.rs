//! The discrete-time simulation engine.
//!
//! [`Simulation`] owns the cluster, the jobs, the config, the seeded RNG
//! and the round number. The rest of the run state belongs to six
//! components, plain structs that each own one concern (DESIGN §3):
//!
//! | component | owns | does |
//! |---|---|---|
//! | `Arrivals` | arrival index, cursor, live and settlement lists | admission, profiling |
//! | `Failures` | failed-server set | pauses the jobs that lose tasks |
//! | `Refit` | refit buffers, worker scratches, thread count | audit settlement, refits, fit records |
//! | `SchedulerRound` | scheduler, round scratch, schedule, delta tracking | views, reservations, delta, decision, apply |
//! | `Progress` | active list, speed cache, wave count | per-tick body, spans, wave re-arming |
//! | `Recorders` | event log, timeline, fidelity, flight, audit, progress line | `log`, samples, round records |
//!
//! The `match` in [`Simulation::run`] is the only dispatcher; a round is
//! a short sequence of component calls shared with the tick-loop oracle
//! [`Simulation::run_reference`].

mod arrivals;
mod failures;
mod progress;
mod recorders;
mod refit;
mod round;

use crate::audit::EstimatorAudit;
use crate::equeue::{EventQueue, SimEventType};
use crate::inject::ErrorInjection;
use crate::jobstate::{JobStatus, SimJob};
use crate::metrics::{JctBreakdown, SimReport};
use arrivals::Arrivals;
use failures::Failures;
use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::Scheduler;
use optimus_ps::StragglerPolicy;
use optimus_telemetry::flight::{ClusterSnapshot, FlightConfig, FlightRecorder};
use optimus_telemetry::Telemetry;
use optimus_workload::JobSpec;
use progress::Progress;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use recorders::Recorders;
use refit::Refit;
use round::SchedulerRound;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which parameter-block assignment the jobs' PS shards use (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignmentPolicy {
    /// The paper's Parameter Assignment Algorithm.
    Paa,
    /// MXNet's default threshold policy.
    MxnetDefault,
}

/// §7 "Various workloads": a time-varying share of every server is
/// reserved for non-DL workloads (data analytics, online services); the
/// DL scheduler divides only what remains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundLoad {
    /// Period of the load wave, seconds (e.g. a day-night cycle).
    pub period_s: f64,
    /// Peak fraction of each server reserved (0–1).
    pub peak_fraction: f64,
}

impl BackgroundLoad {
    /// Reserved fraction at time `t`: a raised sine between 0 and
    /// `peak_fraction`.
    pub fn fraction_at(&self, t: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t / self.period_s.max(1.0);
        (self.peak_fraction.clamp(0.0, 1.0)) * 0.5 * (1.0 - phase.cos())
    }
}

/// Simulation parameters (defaults follow §6.1).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scheduling interval, seconds (paper: 10 minutes).
    pub interval_s: f64,
    /// Timeline sampling period, seconds (Fig 14).
    pub sample_every_s: f64,
    /// How often a running job reports a loss point, seconds.
    pub loss_sample_every_s: f64,
    /// Relative measurement noise on profiled speeds.
    pub profile_noise: f64,
    /// PS parameter-block assignment policy.
    pub assignment: AssignmentPolicy,
    /// Straggler injection/detection policy (§5.2).
    pub straggler: StragglerPolicy,
    /// Optional Fig 15 prediction-error injection.
    pub inject: Option<ErrorInjection>,
    /// RNG seed (everything is deterministic given it).
    pub seed: u64,
    /// Hard simulation-time cap, seconds.
    pub max_time_s: f64,
    /// §7 "Various workloads": reserve a time-varying share of every
    /// server for non-DL workloads. `None` = the whole cluster is DL.
    pub background: Option<BackgroundLoad>,
    /// `(time_s, server)` crashes: the server is gone for good, and its
    /// jobs pause until a round redeploys them (§5.4 restart path).
    pub server_failures: Vec<(f64, optimus_cluster::ServerId)>,
    /// §7 "Scaling overhead": minimum seconds between two rescales of a
    /// job. Within the window a running job is *pinned* to its servers
    /// and the scheduler divides the rest; 0 (the paper) disables it.
    pub min_rescale_interval_s: f64,
    /// Record a structured [`crate::EventLog`] in the report.
    pub record_events: bool,
    /// Telemetry handle shared with the engine and every job's
    /// estimators and straggler monitor; pass the same enabled handle to
    /// the scheduler to collect the whole pipeline in one trace.
    pub telemetry: Telemetry,
    /// Sample, at every round, the gap between the online estimates
    /// (speed, total steps) and the hidden ground truth.
    pub track_fidelity: bool,
    /// Threads for each round's refits (`None` = `OPTIMUS_THREADS` or
    /// the machine's parallelism). Results do not depend on it.
    pub refit_threads: Option<usize>,
    /// Flight recorder: a [`ClusterSnapshot`] per scheduling round into
    /// a bounded ring buffer (`None` = off). It never moves a decision.
    pub flight: Option<FlightConfig>,
    /// Wall-clock seconds between live stderr status lines (round,
    /// sim-time, active jobs, utilization, events/s); `0` = off.
    pub progress_every_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            interval_s: 600.0,
            sample_every_s: 60.0,
            loss_sample_every_s: 5.0,
            profile_noise: 0.02,
            assignment: AssignmentPolicy::Paa,
            straggler: StragglerPolicy::default(),
            inject: None,
            seed: 1,
            max_time_s: 400_000.0,
            background: None,
            server_failures: Vec::new(),
            min_rescale_interval_s: 0.0,
            record_events: false,
            telemetry: Telemetry::disabled(),
            track_fidelity: false,
            refit_threads: None,
            flight: None,
            progress_every_s: 0.0,
        }
    }
}

/// Integration tick, seconds.
const TICK_S: f64 = 1.0;

/// The run's tick grid, in ticks of [`TICK_S`].
#[derive(Debug, Clone, Copy)]
struct Ticks {
    /// Between scheduling rounds.
    interval: u64,
    /// Between timeline samples.
    sample: u64,
    /// Between observed loss points.
    loss: u64,
    /// The time cap: ticks `0..max` run.
    max: u64,
}

impl Ticks {
    fn of(cfg: &SimConfig) -> Self {
        let every = |s: f64| (s / TICK_S).round().max(1.0) as u64;
        Ticks {
            interval: every(cfg.interval_s),
            sample: every(cfg.sample_every_s),
            loss: every(cfg.loss_sample_every_s),
            max: (cfg.max_time_s / TICK_S).round() as u64,
        }
    }
}

/// A configured simulation run.
pub struct Simulation {
    cluster: Cluster,
    jobs: Vec<SimJob>,
    config: SimConfig,
    rng: ChaCha8Rng,
    /// Scheduling rounds run so far (1-based once one starts).
    round: u64,
    arrivals: Arrivals,
    failures: Failures,
    refit: Refit,
    sched: SchedulerRound,
    progress: Progress,
    rec: Recorders,
}

impl Simulation {
    /// Builds a simulation over a cluster, a workload, and a scheduler.
    pub fn new(
        cluster: Cluster,
        specs: Vec<JobSpec>,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        let rec = Recorders::new(&config);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let tel = &rec.tel;
        let jobs = specs
            .into_iter()
            .map(|spec| {
                let mut job = SimJob::new(spec, config.straggler);
                job.inject_signs = (rng.gen::<bool>(), rng.gen::<bool>());
                if tel.is_enabled() {
                    // One handle sees every job's fitting and straggler
                    // counters alongside the engine's own records.
                    job.speed_model = job.speed_model.clone().with_telemetry(tel.clone());
                    job.convergence = job.convergence.clone().with_telemetry(tel.clone());
                    job.stragglers = job.stragglers.clone().with_telemetry(tel.clone());
                }
                job
            })
            .collect::<Vec<_>>();
        if tel.is_enabled() {
            EstimatorAudit::register(tel);
        }
        Simulation {
            arrivals: Arrivals::new(&jobs),
            failures: Failures::default(),
            refit: Refit::default(),
            sched: SchedulerRound::new(scheduler),
            progress: Progress::new(jobs.len()),
            rec,
            cluster,
            jobs,
            config,
            rng,
            round: 0,
        }
    }

    /// The equivalence oracle: a plain fixed-tick loop that visits every
    /// job on every tick, with no skipping and no cached speeds. It is
    /// the executable definition of the simulation's semantics; [`run`]
    /// must reproduce its event log, schedule stream, JCT breakdown,
    /// report and ledger bytes exactly, which the equivalence suite
    /// checks. Only the trace counters differ: this loop adds none of
    /// the event engine's accounting (`sim.events_scheduled`,
    /// `sim.waves`). Its cost is `jobs × ticks`, so use it in tests, not
    /// in experiments.
    ///
    /// [`run`]: Simulation::run
    pub fn run_reference(&mut self) -> SimReport {
        let ticks = Ticks::of(&self.config);
        self.rec.start_progress_line(self.config.progress_every_s);
        for tick in 0..ticks.max {
            let t = tick as f64 * TICK_S;
            let live = &self.arrivals.live;
            self.failures
                .apply(t, &self.config.server_failures, &mut self.jobs, live);
            if tick.is_multiple_of(ticks.interval) {
                self.round_step(t);
            }
            if tick.is_multiple_of(ticks.sample) {
                self.sample_step(t, None);
            }
            let loss_tick = tick.is_multiple_of(ticks.loss);
            for job in &mut self.jobs {
                progress::tick_job(job, None, t, loss_tick, &mut self.rng, &mut self.rec);
            }
            if self.jobs.iter().all(|j| j.status == JobStatus::Finished) {
                break;
            }
        }
        self.finalize_report()
    }

    /// One §4 scheduling round at `t`, shared by both loops: admission,
    /// refits, the decision and its application, then the round's wall
    /// time and flight snapshot. The snapshot only reads state, so
    /// decisions are identical with the recorder on or off.
    fn round_step(&mut self, t: f64) {
        let started = Instant::now();
        self.round += 1;
        let (jobs, rec, cfg) = (&mut self.jobs, &mut self.rec, &self.config);
        self.arrivals
            .admit(t, jobs, &mut self.rng, cfg.profile_noise, rec);
        let threads = cfg.refit_threads;
        self.refit
            .run(self.round, jobs, &self.arrivals, rec, threads);
        let live = &self.arrivals.live;
        if self.sched.build_views(t, jobs, live, cfg) {
            let failed = &self.failures.failed;
            let fresh = self
                .sched
                .reserve(t, &self.cluster, failed, jobs, cfg, &mut rec.audit);
            self.sched.decide(&fresh, jobs.len(), &rec.tel);
            self.sched.apply(t, self.round, jobs, cfg, rec);
            round::apply_nic_contention(jobs, live);
            if cfg.track_fidelity {
                rec.sample_fidelity(t, jobs, live);
            }
        }
        rec.close_round(started, t, self.round, live.len());
        if let Some(mut flight) = self.rec.flight.take() {
            let deltas = flight.counter_deltas(&self.config.telemetry);
            flight.record(self.flight_snapshot(t, deltas));
            self.rec.flight = Some(flight);
        }
    }

    /// One timeline sample (and `--progress` line), shared by both loops.
    fn sample_step(&mut self, t: f64, queue_scheduled: Option<u64>) {
        let (jobs, live) = (&self.jobs, &self.arrivals.live);
        let track = &self.sched.track;
        self.rec
            .sample(t, jobs, live, self.round, track, queue_scheduled);
    }

    /// Report assembly, shared by both loops: the final audit
    /// settlement, the phase clocks closed at the time cap, and the
    /// [`SimReport`].
    fn finalize_report(&mut self) -> SimReport {
        self.rec.end_progress_line();
        let tel = &self.config.telemetry;
        // Predictions armed at the last round have seen a full interval
        // of realized speed by now: settle them into the report.
        self.rec.audit.settle_jobs(tel, self.round + 1, &self.jobs);
        // Closing the clocks of jobs alive at the cap makes unfinished
        // breakdowns partition `cap − submit` exactly.
        let end_t = Ticks::of(&self.config).max as f64 * TICK_S;
        let (mut jct, mut wait, mut breakdown) = (Vec::new(), Vec::new(), Vec::new());
        for j in &mut self.jobs {
            j.jct.settle(end_t);
            let (id, done) = (j.spec.id, j.finish_time.map(|f| f - j.spec.submit_time));
            jct.extend(done.map(|d| (id, d)));
            wait.extend(
                j.first_run_time
                    .map(|f| (id, (f - j.spec.submit_time).max(0.0))),
            );
            breakdown.push(JctBreakdown {
                job: id,
                jct: done,
                queue_s: j.jct.queue_s,
                run_s: j.jct.run_s,
                overhead_s: j.jct.overhead_s,
                stall_s: j.jct.stall_s,
            });
        }
        let jobs = &self.jobs;
        let first_arrival = jobs.iter().map(|j| j.spec.submit_time);
        let first_arrival = first_arrival.fold(f64::INFINITY, f64::min);
        let cap = self.config.max_time_s;
        let last_finish = jobs.iter().map(|j| j.finish_time.unwrap_or(cap));
        let last_finish = last_finish.fold(0.0_f64, f64::max);
        let rec = &mut self.rec;
        SimReport {
            scheduler: self.sched.scheduler.name().to_string(),
            jct,
            wait,
            makespan: (last_finish - first_arrival.min(last_finish)).max(0.0),
            scaling_overhead_s: jobs.iter().map(|j| j.overhead_total_s).sum(),
            scale_events: jobs.iter().map(|j| j.scale_events).sum(),
            straggler_replacements: rec.straggler_replacements,
            chunks_moved: jobs.iter().map(|j| j.chunks_moved).sum(),
            unfinished_jobs: jobs
                .iter()
                .filter(|j| j.status != JobStatus::Finished)
                .count(),
            timeline: std::mem::take(&mut rec.timeline),
            events: std::mem::take(&mut rec.events),
            fidelity: std::mem::take(&mut rec.fidelity),
            telemetry: tel.is_enabled().then(|| tel.summary()),
            breakdown,
            audit: rec.audit.summary(),
            flight: rec.flight.take().map(FlightRecorder::into_log),
        }
    }

    /// Runs to completion (all jobs finished) or the time cap, returning
    /// the report.
    ///
    /// The discrete-event core: a binary-heap calendar ([`EventQueue`])
    /// of typed events — server failures, scheduling rounds (which
    /// admit arrivals and take the flight snapshot), timeline samples,
    /// job-progress waves and job completions — where each component
    /// schedules its own next event. The tick grid between events is
    /// replayed per active job as tight arithmetic spans, so the cost of
    /// a run is proportional to events and running-job work, not to
    /// `jobs × ticks`. Results are byte-identical to
    /// [`Simulation::run_reference`] — the equivalence suite proves it.
    pub fn run(&mut self) -> SimReport {
        let ticks = Ticks::of(&self.config);
        self.rec.start_progress_line(self.config.progress_every_s);
        let mut unfinished = self.jobs.len();

        // Rounds and samples re-arm themselves; one event per crash.
        let mut queue = EventQueue::new();
        if ticks.max > 0 {
            queue.schedule(0, SimEventType::SchedulingRound);
            queue.schedule(0, SimEventType::TimelineSample);
            for &(at, _) in &self.config.server_failures {
                let trig = failures::first_tick_at(at);
                if trig < ticks.max {
                    queue.schedule(trig, SimEventType::ServerFailure);
                }
            }
        }

        // `cursor` is the first tick not advanced yet; the event-free
        // ticks `[cursor, popped.tick)` are replayed as spans.
        let mut cursor: u64 = 0;
        let mut current_tick: u64 = 0;
        while let Some(ev) = queue.pop() {
            if ev.tick >= ticks.max {
                break;
            }
            if unfinished == 0 && ev.tick > current_tick {
                // The tick loop would have stopped before this tick.
                break;
            }
            if matches!(ev.kind, SimEventType::ProgressWave) && ev.tick < cursor {
                // Superseded: another wave already advanced past it.
                continue;
            }
            if ev.tick > cursor {
                let from = cursor;
                cursor = ev.tick;
                if self
                    .progress
                    .advance_range(&mut self.jobs, from, ev.tick, &mut queue)
                {
                    // Interior completions were queued; they sort
                    // before `ev`, so put it back (its seq keeps its
                    // slot) and let them drain first.
                    queue.push(ev);
                    continue;
                }
            }
            current_tick = ev.tick;
            let t = ev.tick as f64 * TICK_S;
            let next = |every: u64| Some(ev.tick + every).filter(|&n| n < ticks.max);
            match ev.kind {
                SimEventType::ServerFailure => {
                    let (live, schedule) = (&self.arrivals.live, &self.config.server_failures);
                    if self.failures.apply(t, schedule, &mut self.jobs, live) {
                        self.progress.reset(&self.jobs, live);
                    }
                }
                SimEventType::SchedulingRound => {
                    self.round_step(t);
                    self.progress.reset(&self.jobs, &self.arrivals.live);
                    self.progress.anchor(&self.jobs, ev.tick, &mut queue);
                    if let Some(next) = next(ticks.interval) {
                        queue.schedule(next, SimEventType::SchedulingRound);
                    }
                }
                SimEventType::TimelineSample => {
                    self.sample_step(t, Some(queue.scheduled()));
                    if let Some(next) = next(ticks.sample) {
                        queue.schedule(next, SimEventType::TimelineSample);
                    }
                }
                SimEventType::ProgressWave => {
                    let (jobs, rng, rec) = (&mut self.jobs, &mut self.rng, &mut self.rec);
                    unfinished -= self.progress.wave(jobs, ev.tick, ticks.loss, rng, rec);
                    cursor = ev.tick + 1;
                    if unfinished == 0 {
                        break;
                    }
                    self.progress.rearm(&self.jobs, ev.tick, ticks, &mut queue);
                }
                SimEventType::JobCompletion { job, finish } => {
                    self.rec.log_finish(t, &self.jobs[job], finish);
                    unfinished -= 1;
                }
            }
        }

        // Jobs still unfinished: replay the event-free ticks up to the
        // cap, exactly as the tick loop would.
        if unfinished > 0
            && cursor < ticks.max
            && self
                .progress
                .advance_range(&mut self.jobs, cursor, ticks.max, &mut queue)
        {
            while let Some(ev) = queue.pop() {
                if ev.tick >= ticks.max {
                    continue;
                }
                if let SimEventType::JobCompletion { job, finish } = ev.kind {
                    let t = ev.tick as f64 * TICK_S;
                    self.rec.log_finish(t, &self.jobs[job], finish);
                }
            }
        }

        let tel = &self.config.telemetry;
        if tel.is_enabled() {
            // Added at the very end, so flight-snapshot counter deltas
            // equal the reference loop's.
            tel.add("sim.events_scheduled", queue.scheduled());
            tel.add("sim.waves", self.progress.waves);
        }

        self.finalize_report()
    }

    /// Access to the job states (post-run inspection in tests/examples).
    pub fn jobs(&self) -> &[SimJob] {
        &self.jobs
    }

    /// Builds one flight-recorder [`ClusterSnapshot`] at the end of a
    /// scheduling round: per-pool resource usage reconstructed from the
    /// current placements (plus background reservations; failed servers
    /// count as fully used), free-CPU fragmentation, job population
    /// counts and the supplied telemetry counter deltas. Read-only —
    /// this never feeds back into scheduling.
    fn flight_snapshot(&self, t: f64, counter_deltas: Vec<(String, u64)>) -> ClusterSnapshot {
        // Per-server usage, indexed by id: the background share (a dead
        // server's whole capacity) plus the running jobs' tasks.
        let failed = &self.failures.failed;
        let mut used: Vec<ResourceVec> = self
            .cluster
            .servers()
            .map(|s| {
                if failed.contains(&s.id()) {
                    s.capacity()
                } else if let Some(bg) = self.config.background {
                    s.capacity() * bg.fraction_at(t)
                } else {
                    ResourceVec::zero()
                }
            })
            .collect();
        let (mut queue_depth, mut active_jobs) = (0usize, 0usize);
        let (mut running_workers, mut running_ps) = (0u32, 0u32);
        for &j in &self.arrivals.live {
            let job = &self.jobs[j];
            match job.status {
                JobStatus::Pending | JobStatus::Finished => {}
                JobStatus::Paused => {
                    active_jobs += 1;
                    queue_depth += 1;
                }
                JobStatus::Running => {
                    active_jobs += 1;
                    running_workers += job.workers;
                    running_ps += job.ps;
                    for (sid, counts) in &job.placement {
                        if let Some(u) = used.get_mut(sid.0) {
                            *u += job.demand(counts);
                        }
                    }
                }
            }
        }
        // Every admitted job is live or finished; the rest are pending.
        let admitted = self.arrivals.admitted;
        let (pools, fragmentation) = recorders::pool_stats(&self.cluster, &used);
        ClusterSnapshot {
            round: self.round,
            t_s: t,
            pools,
            fragmentation,
            queue_depth,
            pending_jobs: self.jobs.len() - admitted,
            active_jobs,
            finished_jobs: admitted - active_jobs,
            running_workers,
            running_ps,
            counter_deltas,
            events_total: self.rec.events_seen,
            delta_jobs: self.sched.track.last_delta_jobs,
            quiescent: self.sched.track.last_quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_core::prelude::*;
    use optimus_telemetry::TraceEvent;
    use optimus_workload::{JobId, ModelKind, TrainingMode};

    fn small_specs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    ModelKind::CnnRand,
                    if i % 2 == 0 {
                        TrainingMode::Synchronous
                    } else {
                        TrainingMode::Asynchronous
                    },
                    0.03,
                )
                .at(i as f64 * 100.0)
                .scaled(0.3)
            })
            .collect()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            interval_s: 120.0,
            max_time_s: 40_000.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn optimus_runs_small_workload_to_completion() {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(3),
            Box::new(OptimusScheduler::build()),
            quick_config(),
        );
        let report = sim.run();
        assert_eq!(report.unfinished_jobs, 0, "{report:?}");
        assert_eq!(report.jct.len(), 3);
        assert!(report.avg_jct() > 0.0);
        assert!(report.makespan >= report.jct.iter().map(|&(_, t)| t).fold(0.0, f64::max));
        assert!(!report.timeline.is_empty());
    }

    #[test]
    fn all_schedulers_complete_and_are_deterministic() {
        for build in [
            OptimusScheduler::build as fn() -> CompositeScheduler,
            DrfScheduler::build,
            TetrisScheduler::build,
        ] {
            let run = || {
                let mut sim = Simulation::new(
                    Cluster::paper_testbed(),
                    small_specs(4),
                    Box::new(build()),
                    quick_config(),
                );
                sim.run()
            };
            let a = run();
            let b = run();
            assert_eq!(a.unfinished_jobs, 0, "{}", a.scheduler);
            assert_eq!(a.jct, b.jct, "{} must be deterministic", a.scheduler);
            assert_eq!(a.makespan, b.makespan);
        }
    }

    #[test]
    fn scaling_overhead_is_accounted() {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(4),
            Box::new(OptimusScheduler::build()),
            quick_config(),
        );
        let report = sim.run();
        // Job arrivals force reconfigurations, which cost overhead.
        assert!(report.scale_events > 0);
        assert!(report.scaling_overhead_s > 0.0);
        // And it stays a small fraction of the makespan (paper: 2.54 %).
        assert!(
            report.scaling_overhead_fraction() < 0.15,
            "{}",
            report.scaling_overhead_fraction()
        );
    }

    #[test]
    fn injected_error_degrades_optimus() {
        let base = {
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(5),
                Box::new(OptimusScheduler::build()),
                quick_config(),
            );
            sim.run()
        };
        let with_error = {
            let mut cfg = quick_config();
            cfg.inject = Some(ErrorInjection {
                convergence_error: 0.45,
                speed_error: 0.45,
            });
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(5),
                Box::new(OptimusScheduler::build()),
                cfg,
            );
            sim.run()
        };
        assert_eq!(with_error.unfinished_jobs, 0);
        // Large injected error should not *improve* JCT by much; typical
        // runs degrade it (Fig 15 shows up to ~40 %).
        assert!(
            with_error.avg_jct() > 0.85 * base.avg_jct(),
            "err {} vs base {}",
            with_error.avg_jct(),
            base.avg_jct()
        );
    }

    #[test]
    fn paused_jobs_make_no_progress() {
        // A one-server cluster that fits a single starter unit: with two
        // jobs, someone waits, and everything still finishes eventually.
        let cluster = Cluster::homogeneous(1, ResourceVecFor::unit());
        let mut sim = Simulation::new(
            cluster,
            small_specs(2),
            Box::new(OptimusScheduler::build()),
            quick_config(),
        );
        let report = sim.run();
        assert_eq!(report.unfinished_jobs, 0);
    }

    /// Helper: a server that fits exactly one ps + one worker.
    struct ResourceVecFor;
    impl ResourceVecFor {
        fn unit() -> optimus_cluster::ResourceVec {
            optimus_cluster::ResourceVec::new(10.0, 0.0, 20.0, 2.0)
        }
    }

    #[test]
    fn server_failures_lose_tasks_but_jobs_recover() {
        use optimus_cluster::ServerId;
        let run = |failures: Vec<(f64, ServerId)>| {
            let mut cfg = quick_config();
            cfg.server_failures = failures;
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(3),
                Box::new(OptimusScheduler::build()),
                cfg,
            );
            sim.run()
        };
        let clean = run(vec![]);
        // Knock out four servers early in the run.
        let faulty = run(vec![
            (500.0, ServerId(0)),
            (500.0, ServerId(1)),
            (900.0, ServerId(7)),
            (900.0, ServerId(8)),
        ]);
        assert_eq!(clean.unfinished_jobs, 0);
        assert_eq!(faulty.unfinished_jobs, 0, "jobs must recover from failures");
        assert!(
            faulty.makespan >= clean.makespan,
            "losing capacity cannot speed the run up: {} vs {}",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn failing_every_server_strands_the_workload() {
        use optimus_cluster::ServerId;
        let mut cfg = quick_config();
        cfg.max_time_s = 5_000.0;
        cfg.server_failures = (0..13).map(|i| (300.0, ServerId(i))).collect();
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(2),
            Box::new(OptimusScheduler::build()),
            cfg,
        );
        let report = sim.run();
        // Nothing can run after t = 300 s; the cap expires with
        // unfinished jobs rather than panicking or spinning.
        assert!(report.unfinished_jobs > 0);
    }

    #[test]
    fn wait_times_reported_and_bounded_by_jct() {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(3),
            Box::new(OptimusScheduler::build()),
            quick_config(),
        );
        let report = sim.run();
        assert_eq!(report.wait.len(), 3);
        for &(id, w) in &report.wait {
            let jct = report
                .jct
                .iter()
                .find(|&&(j, _)| j == id)
                .map(|&(_, t)| t)
                .expect("finished");
            assert!(w >= 0.0 && w <= jct, "{id:?}: wait {w} vs jct {jct}");
        }
    }

    #[test]
    fn event_log_records_full_job_lifecycles() {
        use crate::events::SimEventKind;
        let mut cfg = quick_config();
        cfg.record_events = true;
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(3),
            Box::new(OptimusScheduler::build()),
            cfg,
        );
        let report = sim.run();
        assert_eq!(report.unfinished_jobs, 0);
        let log = &report.events;
        assert!(!log.is_empty());
        // Every job is admitted once and finished once, in that order.
        for i in 0..3u64 {
            let id = optimus_workload::JobId(i);
            let events = log.for_job(id);
            assert!(matches!(
                events.first().map(|e| &e.kind),
                Some(SimEventKind::JobAdmitted { .. })
            ));
            assert!(matches!(
                events.last().map(|e| &e.kind),
                Some(SimEventKind::JobFinished { .. })
            ));
            let finishes = events
                .iter()
                .filter(|e| matches!(e.kind, SimEventKind::JobFinished { .. }))
                .count();
            assert_eq!(finishes, 1);
        }
        // Rescale count in the log matches the report's counter.
        assert_eq!(log.rescales(), report.scale_events);
        // Export parses back.
        let lines = log.to_json_lines();
        assert_eq!(lines.lines().count(), log.len());
    }

    #[test]
    fn events_off_by_default() {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(1),
            Box::new(OptimusScheduler::build()),
            quick_config(),
        );
        let report = sim.run();
        assert!(report.events.is_empty());
    }

    #[test]
    fn rescale_threshold_reduces_scale_events() {
        let run = |min_rescale: f64| {
            let mut cfg = quick_config();
            cfg.min_rescale_interval_s = min_rescale;
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(5),
                Box::new(OptimusScheduler::build()),
                cfg,
            );
            sim.run()
        };
        let free = run(0.0);
        let limited = run(1_800.0);
        assert_eq!(free.unfinished_jobs, 0);
        assert_eq!(limited.unfinished_jobs, 0);
        assert!(
            limited.scale_events < free.scale_events,
            "threshold must suppress reconfigurations: {} vs {}",
            limited.scale_events,
            free.scale_events
        );
        assert!(limited.scaling_overhead_s <= free.scaling_overhead_s);
    }

    #[test]
    fn pinned_jobs_keep_progressing() {
        // With an effectively infinite threshold, a job is configured
        // once and never again — it must still finish.
        let mut cfg = quick_config();
        cfg.min_rescale_interval_s = 1e9;
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(2),
            Box::new(OptimusScheduler::build()),
            cfg,
        );
        let report = sim.run();
        assert_eq!(report.unfinished_jobs, 0);
        // Each job is configured at most twice (start + at most one
        // forced change when it first gets capacity).
        assert!(report.scale_events <= 4, "{}", report.scale_events);
    }

    #[test]
    fn telemetry_enabled_run_collects_the_whole_pipeline() {
        let tel = Telemetry::enabled();
        let mut cfg = quick_config();
        cfg.telemetry = tel.clone();
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(3),
            Box::new(OptimusScheduler::build_with_telemetry(tel.clone())),
            cfg,
        );
        let report = sim.run();
        assert_eq!(report.unfinished_jobs, 0);
        let summary = report.telemetry.expect("enabled handle summarizes");
        let counter = |name: &str| {
            summary
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        // Engine, allocator, fitting and PAA counters all landed on the
        // one shared handle.
        assert!(counter("alloc.rounds") > 0);
        assert!(counter("alloc.marginal_gain_evals") > 0);
        assert!(counter("nnls.solves") > 0);
        assert!(counter("speed.refits") > 0);
        assert!(counter("paa.rebalance_moves") > 0);
        // Estimator audit: speed predictions settle against realized
        // interval speeds, and convergence estimates are checked against
        // ground truth, at every round.
        assert!(counter("audit.speed_samples") > 0);
        assert!(counter("audit.convergence_samples") > 0);
        for name in ["audit.speed_rel_err", "audit.convergence_rel_err"] {
            assert!(
                summary
                    .histograms
                    .iter()
                    .any(|h| h.name == name && h.count > 0),
                "{name} must collect samples"
            );
        }
        for name in ["audit.speed_calibration", "audit.convergence_calibration"] {
            let score = summary
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .expect("calibration gauge set");
            assert!((0.0..=1.0).contains(&score), "{name} = {score}");
        }
        let samples = tel
            .records()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::EstimatorSample { .. }))
            .count();
        assert_eq!(
            samples as u64,
            counter("audit.speed_samples") + counter("audit.convergence_samples"),
            "every audited sample lands in the decision trace"
        );
        assert!(summary.records > 0);
        assert!(summary.spans > 0);
        assert!(summary
            .histograms
            .iter()
            .any(|h| h.name == "sim.round_wall_us" && h.count > 0));
        // And the trace exports as non-empty JSONL.
        assert!(tel.to_json_lines().lines().count() > 0);
    }

    #[test]
    fn disabled_telemetry_run_reports_none() {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            small_specs(1),
            Box::new(OptimusScheduler::build()),
            quick_config(),
        );
        let report = sim.run();
        assert!(report.telemetry.is_none());
    }

    #[test]
    fn straggler_injection_slows_jobs_and_replaces() {
        let clean = {
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(2),
                Box::new(OptimusScheduler::build()),
                quick_config(),
            );
            sim.run()
        };
        let stormy = {
            let mut cfg = quick_config();
            cfg.straggler = StragglerPolicy::with_injection(0.002);
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(2),
                Box::new(OptimusScheduler::build()),
                cfg,
            );
            sim.run()
        };
        assert_eq!(stormy.unfinished_jobs, 0);
        assert!(stormy.straggler_replacements > 0);
        assert!(stormy.avg_jct() >= clean.avg_jct() * 0.9);
    }
}
