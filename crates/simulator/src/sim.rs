//! The discrete-time simulation engine.

use crate::audit::EstimatorAudit;
use crate::equeue::{EventQueue, SimEventType};
use crate::events::{EventLog, SimEventKind};
use crate::inject::ErrorInjection;
use crate::jobstate::{JctPhase, JobStatus, SimJob};
use crate::metrics::{FidelityPoint, JctBreakdown, SimReport, TimePoint};
use optimus_cluster::{Cluster, ResourceKind, ResourceVec};
use optimus_core::{JobView, RoundDelta, RoundScratch, Schedule, Scheduler};
use optimus_ps::contention::{oversubscription_factors, JobTraffic};
use optimus_ps::transfer::transfer_stretch;
use optimus_ps::{StragglerPolicy, TaskCounts};
use optimus_telemetry::flight::{ClusterSnapshot, FlightConfig, FlightRecorder, PoolStat};
use optimus_telemetry::{Telemetry, TraceEvent};
use optimus_workload::{JobSpec, TrainingMode};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which core drives the simulation loop.
///
/// Both engines produce byte-identical results — event log, schedule
/// stream, JCT breakdown, report, ledger hashes — for any
/// configuration; the equivalence suite proves it. The event engine is
/// the default because its cost scales with *events* (scheduling
/// rounds, samples, failures, loss reports of running jobs) instead of
/// with `jobs × ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimEngine {
    /// Discrete-event core: a binary-heap calendar keyed by
    /// `(tick, class, seq)` where each component schedules its own next
    /// event; the tick grid between events is replayed per job in tight
    /// arithmetic spans.
    Event,
    /// The legacy fixed-tick loop (compatibility mode): every tick
    /// visits every job. Kept as the reference the event engine is
    /// proven byte-identical against.
    Tick,
}

impl SimEngine {
    /// Engine selection from the `OPTIMUS_EVENT_ENGINE` environment
    /// variable: `0`/`off`/`tick`/`false` selects the legacy tick loop,
    /// anything else (including unset) the event engine.
    pub fn from_env() -> Self {
        match std::env::var("OPTIMUS_EVENT_ENGINE") {
            Ok(v)
                if v == "0"
                    || v.eq_ignore_ascii_case("off")
                    || v.eq_ignore_ascii_case("tick")
                    || v.eq_ignore_ascii_case("false") =>
            {
                SimEngine::Tick
            }
            _ => SimEngine::Event,
        }
    }
}

/// What one job's tick body did — the per-job outcome both engines fold
/// into their bookkeeping ([`Simulation::advance_job_one_tick`]).
#[derive(Debug, Clone, Copy, Default)]
struct TickEffect {
    /// The job did per-tick work (ran, drained overhead, or held a
    /// pending JCT transition) — the tick cannot be idle-skipped.
    active: bool,
    /// The job reused a cached speed on the quiescent fast path.
    batched: bool,
    /// The job crossed its ground-truth convergence point this tick.
    finished: bool,
}

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
    /// Integration tick, seconds.
    pub tick_s: f64,
    /// Timeline sampling period, seconds (Fig 14).
    pub sample_every_s: f64,
    /// How often a running job reports a loss point, seconds.
    pub loss_sample_every_s: f64,
    /// The `(p, w)` combinations used to initialize each job's speed
    /// model (paper: 5 sample runs).
    pub profile_configs: Vec<(u32, u32)>,
    /// Relative measurement noise on profiled speeds.
    pub profile_noise: f64,
    /// Fixed part of a checkpoint/restart scale event, seconds (§5.4).
    pub checkpoint_restart_s: f64,
    /// HDFS write/read bandwidth for checkpoints, bytes/s.
    pub hdfs_bandwidth: f64,
    /// PS parameter-block assignment policy.
    pub assignment: AssignmentPolicy,
    /// Straggler injection/detection policy (§5.2).
    pub straggler: StragglerPolicy,
    /// Optional Fig 15 prediction-error injection.
    pub inject: Option<ErrorInjection>,
    /// Baseline schedulers' fixed per-job request (1:1 task pairs).
    pub requested_units: u32,
    /// RNG seed (everything is deterministic given it).
    pub seed: u64,
    /// Hard simulation-time cap, seconds.
    pub max_time_s: f64,
    /// Parameter-staleness coefficient σ for asynchronous training:
    /// each async worker's update is computed on parameters up to
    /// `w − 1` pushes stale, so effective progress per step is
    /// `1/(1 + σ·(w−1))` (§5.2: "parameter staleness may lead to
    /// unstable training progress and hence additional training steps to
    /// achieve convergence"). 0 disables the effect (the paper's Eqn-3
    /// physics).
    pub async_staleness: f64,
    /// Model cross-job NIC contention: colocated jobs compete for the
    /// shared server NICs (`optimus_ps::contention`). On by default —
    /// set false to recover the paper's isolated Eqn-2 physics.
    pub nic_contention: bool,
    /// Per-server NIC capacity for the contention model, bytes/s.
    pub nic_bytes_per_s: f64,
    /// §7 "Various workloads": reserve a time-varying share of every
    /// server for non-DL workloads. `None` = the whole cluster is DL.
    pub background: Option<BackgroundLoad>,
    /// Fault injection: `(time_s, server)` pairs at which a server
    /// crashes permanently. Tasks on it are lost; affected jobs pause
    /// until the next scheduling interval redeploys them from their
    /// checkpoint (§5.4 restart path).
    pub server_failures: Vec<(f64, optimus_cluster::ServerId)>,
    /// §7 "Scaling overhead": minimum seconds between two checkpoint-
    /// based reconfigurations of the same job. While within the window a
    /// running job is *pinned*: its current tasks keep their servers and
    /// the scheduler divides only the remaining capacity. 0 disables the
    /// threshold (the paper's default behavior).
    pub min_rescale_interval_s: f64,
    /// Record a structured [`EventLog`] of every decision in the report.
    pub record_events: bool,
    /// Telemetry handle shared with the engine and every job's
    /// estimators and straggler monitor. Pass the same enabled handle
    /// to the scheduler (e.g. via
    /// `OptimusScheduler::build_with_telemetry`) to collect the whole
    /// pipeline in one trace; the default disabled handle records
    /// nothing at near-zero cost.
    pub telemetry: Telemetry,
    /// Sample, at every scheduling round, the gap between the
    /// scheduler's online estimates (speed at the current configuration,
    /// total steps to convergence) and the hidden ground truth.
    pub track_fidelity: bool,
    /// Fast-forward the tick loop (default on). Two provably
    /// observation-preserving shortcuts: idle spans (no running job, no
    /// scaling overhead in flight) jump straight to the next event tick
    /// (`sim.ticks_skipped`), and quiescent running jobs (straggler
    /// machinery provably inert) reuse their tick-invariant speed
    /// instead of recomputing it every tick (`sim.ticks_batched`).
    /// Results are byte-identical either way — the switch exists for
    /// the equivalence suite and benchmarking.
    pub fast_forward: bool,
    /// Threads for the per-job refits of each scheduling round
    /// (`None` = `OPTIMUS_THREADS` or the machine's parallelism; `1`
    /// forces the serial path). Fit results are bitwise
    /// thread-count-independent: jobs are independent and trace events
    /// are emitted in job order after the parallel section joins.
    pub refit_threads: Option<usize>,
    /// Flight recorder: sample a typed [`ClusterSnapshot`] into a
    /// bounded ring buffer at the end of every scheduling round
    /// (`None` = off, the default). Recording is read-only — decisions
    /// are byte-identical with it on or off.
    pub flight: Option<FlightConfig>,
    /// Emit a live status line (round, sim-time, active jobs,
    /// utilization, events/s) to stderr at this wall-clock interval,
    /// seconds. `0` (the default) disables it; when disabled the cost
    /// is one float compare per timeline sample.
    pub progress_every_s: f64,
    /// Print each scheduling round's decisions to stderr (debugging).
    pub verbose: bool,
    /// Which simulation core runs the loop (byte-identical results
    /// either way). Defaults from `OPTIMUS_EVENT_ENGINE` via
    /// [`SimEngine::from_env`].
    pub engine: SimEngine,
    /// Run each round's convergence refits through the batched SoA
    /// engine (`optimus_core::refit_convergence_batch`): dirty jobs are
    /// gathered and fitted in lane groups with one vectorized β₂ grid
    /// scan per group, clean jobs replay their cached fit
    /// (`fit.dirty_skipped`). Results are byte-identical to the scalar
    /// per-job path — the switch exists for the equivalence suite and
    /// benchmarking. Defaults from `OPTIMUS_BATCHED_FIT`
    /// (`0`/`off`/`false` selects the scalar path; anything else,
    /// including unset, the batched engine).
    pub batched_refit: bool,
    /// Run scheduling rounds through the delta engine
    /// (`Scheduler::schedule_delta`): the simulator diffs each round's
    /// inputs against the previous round's — job-view fingerprints,
    /// departures, reservation changes — and the scheduler re-derives
    /// only dirty jobs, replaying stored grants and placements for
    /// clean ones (skipping provably unchanged rounds outright).
    /// Results are byte-identical to full rounds — the switch exists
    /// for the equivalence suite and benchmarking. Defaults from
    /// `OPTIMUS_DELTA_ROUNDS` (`0`/`off`/`false` selects full rounds;
    /// anything else, including unset, the delta engine).
    pub delta_rounds: bool,
}

/// `OPTIMUS_BATCHED_FIT` environment default for
/// [`SimConfig::batched_refit`].
fn batched_refit_from_env() -> bool {
    !matches!(
        std::env::var("OPTIMUS_BATCHED_FIT"),
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false")
    )
}

/// `OPTIMUS_DELTA_ROUNDS` environment default for
/// [`SimConfig::delta_rounds`].
fn delta_rounds_from_env() -> bool {
    !matches!(
        std::env::var("OPTIMUS_DELTA_ROUNDS"),
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false")
    )
}

/// A speed-model refit outcome held for trace emission: coefficients,
/// residual and sample count, or the error message (`None` = no
/// observation this interval, or an untraced run).
type SpeedFitEvent = Option<Result<(Vec<f64>, f64, usize), String>>;

/// Per-round buffers of the batched refit, indexed by position in the
/// live list and reused across rounds.
#[derive(Debug, Default)]
struct RefitBuffers {
    speed_events: Vec<SpeedFitEvent>,
    conv_slots: Vec<Option<Result<optimus_fitting::LossModel, optimus_fitting::FitError>>>,
    /// Live-list positions whose convergence estimator must refit.
    dirty: Vec<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            interval_s: 600.0,
            tick_s: 1.0,
            sample_every_s: 60.0,
            loss_sample_every_s: 5.0,
            profile_configs: vec![(1, 1), (2, 2), (4, 4), (8, 8), (4, 8)],
            profile_noise: 0.02,
            checkpoint_restart_s: 10.0,
            hdfs_bandwidth: 125e6,
            assignment: AssignmentPolicy::Paa,
            straggler: StragglerPolicy::default(),
            inject: None,
            requested_units: 8,
            seed: 1,
            max_time_s: 400_000.0,
            async_staleness: 0.0,
            nic_contention: true,
            nic_bytes_per_s: 125e6,
            background: None,
            server_failures: Vec::new(),
            min_rescale_interval_s: 0.0,
            record_events: false,
            telemetry: Telemetry::disabled(),
            track_fidelity: false,
            fast_forward: true,
            refit_threads: None,
            flight: None,
            progress_every_s: 0.0,
            verbose: false,
            engine: SimEngine::from_env(),
            batched_refit: batched_refit_from_env(),
            delta_rounds: delta_rounds_from_env(),
        }
    }
}

/// Exact-value fingerprint of one job's scheduler view. Equal
/// fingerprints (at the same job id) guarantee the two views are
/// bit-identical in every field the scheduler reads: the speed model's
/// mutation generation stands in for its coefficients and samples (it
/// bumps on every `record`/`refit`), the prediction scale is compared
/// by value (error injection rebuilds it each round), floats compare by
/// bit pattern, and the profiles come verbatim from the immutable job
/// spec. Nothing is hashed, so there are no collisions to reason about.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ViewFp {
    speed_gen: u64,
    scale_bits: u64,
    remaining_bits: u64,
    progress_bits: u64,
    requested: u32,
    worker_profile: ResourceVec,
    ps_profile: ResourceVec,
}

/// Cross-round input tracking for delta scheduling: the previous
/// round's per-job view fingerprints and scheduler-visible cluster
/// state, diffed each round into a [`RoundDelta`]. Computed in both
/// modes (so flight snapshots and progress lines report churn either
/// way); only `SimConfig::delta_rounds` decides whether the scheduler
/// gets to exploit it.
#[derive(Debug, Default)]
struct DeltaTrack {
    /// Previous round's fingerprints are trustworthy (false before the
    /// first round and after a views-empty round).
    valid: bool,
    /// Fingerprint per `jobs` index on the previous round (`None` = no
    /// view: finished, pending, or pinned).
    fps: Vec<Option<ViewFp>>,
    /// The `jobs` indices holding `Some` in `fps`, ascending: the
    /// previous round's view jobs, so the refresh clears only them.
    fp_ids: Vec<usize>,
    /// This round's fingerprints under construction, one per view.
    fps_next: Vec<ViewFp>,
    /// Per-server `(capacity, available)` of the previous round's
    /// scheduler-visible cluster, after all reservations.
    cluster: Vec<(ResourceVec, ResourceVec)>,
    /// Reused delta buffer handed to the scheduler.
    delta: RoundDelta,
    /// Churn of the most recent round (dirty views + departures).
    last_delta_jobs: u64,
    /// The most recent round was provably unchanged end to end.
    last_quiescent: bool,
    /// Rounds diffed and whole-round skips taken, cumulative (drives
    /// the `--progress` line).
    rounds: u64,
    skipped: u64,
}

/// A configured simulation run.
pub struct Simulation {
    cluster: Cluster,
    jobs: Vec<SimJob>,
    scheduler: Box<dyn Scheduler>,
    config: SimConfig,
    rng: ChaCha8Rng,
    events: EventLog,
    failed_servers: Vec<optimus_cluster::ServerId>,
    fidelity: Vec<FidelityPoint>,
    /// Estimator-accuracy audit state (pending speed predictions,
    /// rolling calibration). Runs unconditionally — the telemetry
    /// handle only controls whether samples also land in the trace —
    /// and settles into `SimReport::audit`.
    audit: EstimatorAudit,
    /// Flight recorder (when `SimConfig::flight` is set): one cluster
    /// snapshot per scheduling round, ring-buffer bounded.
    flight: Option<FlightRecorder>,
    /// Simulator events emitted, counted whether or not
    /// `record_events` persists them (drives the `--progress`
    /// events/s rate and the flight snapshots' `events_total`).
    events_seen: u64,
    /// Persistent scheduling scratch: heap storage, prediction caches,
    /// placement index and schedule buffers reused across rounds, so
    /// steady-state decisions allocate nothing.
    scratch: RoundScratch,
    schedule_buf: Schedule,
    /// Cross-round input diffing for the delta engine.
    track: DeltaTrack,
    /// Job indices with a non-NaN `submit_time`, ascending by submit
    /// time (ties in index order); admission walks it from
    /// `next_arrival`. Each round's admitted batch is re-sorted by job
    /// index in place: the cursor never revisits it.
    arrivals: Vec<usize>,
    /// First `arrivals` entry not yet admitted.
    next_arrival: usize,
    /// The live list: admitted, not yet finished job indices,
    /// ascending. Every per-round and per-sample pass walks it instead
    /// of `jobs`. Jobs that finish between rounds leave it at the next
    /// round's admission.
    live: Vec<usize>,
    /// The previous round's live list merged with this round's
    /// admissions: every job whose speed prediction may await
    /// settlement.
    settle: Vec<usize>,
    refit: RefitBuffers,
    /// `optimus_parallel::available_threads()`, queried on first need.
    auto_threads: Option<usize>,
}

impl Simulation {
    /// Builds a simulation over a cluster, a workload, and a scheduler.
    pub fn new(
        cluster: Cluster,
        specs: Vec<JobSpec>,
        scheduler: Box<dyn Scheduler>,
        config: SimConfig,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let tel = config.telemetry.clone();
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
            EstimatorAudit::register(&tel);
        }
        let flight = config.flight.as_ref().map(FlightRecorder::from_config);
        let arrivals = arrival_index(&jobs);
        Simulation {
            cluster,
            jobs,
            scheduler,
            config,
            rng,
            events: EventLog::default(),
            failed_servers: Vec::new(),
            fidelity: Vec::new(),
            audit: EstimatorAudit::default(),
            flight,
            events_seen: 0,
            scratch: RoundScratch::default(),
            schedule_buf: Schedule::default(),
            track: DeltaTrack::default(),
            arrivals,
            next_arrival: 0,
            live: Vec::new(),
            settle: Vec::new(),
            refit: RefitBuffers::default(),
            auto_threads: None,
        }
    }

    /// Appends an event if recording is enabled (always counted).
    fn log(&mut self, t: f64, kind: SimEventKind) {
        self.events_seen += 1;
        if self.config.record_events {
            self.events.push(t, kind);
        }
    }

    /// Runs to completion (all jobs finished) or the time cap, returning
    /// the report.
    ///
    /// Dispatches on [`SimConfig::engine`]; both cores produce
    /// byte-identical reports.
    pub fn run(&mut self) -> SimReport {
        match self.config.engine {
            SimEngine::Tick => self.run_tick(),
            SimEngine::Event => self.run_event(),
        }
    }

    /// The legacy fixed-tick loop ([`SimEngine::Tick`]): every tick
    /// visits every job. Reference semantics for the event engine.
    fn run_tick(&mut self) -> SimReport {
        let cfg = self.config.clone();
        let ticks_per_interval = (cfg.interval_s / cfg.tick_s).round().max(1.0) as u64;
        let ticks_per_sample = (cfg.sample_every_s / cfg.tick_s).round().max(1.0) as u64;
        let loss_every = (cfg.loss_sample_every_s / cfg.tick_s).round().max(1.0) as u64;
        let max_ticks = (cfg.max_time_s / cfg.tick_s).round() as u64;

        let mut timeline = Vec::new();
        let mut straggler_replacements_done = 0usize;
        let tel = cfg.telemetry.clone();
        let mut round: u64 = 0;

        // Live progress line (off by default). When disabled the only
        // residual cost is one boolean check per timeline sample.
        let progress_on = cfg.progress_every_s > 0.0;
        let mut last_progress = std::time::Instant::now();
        let mut last_progress_events = 0u64;

        // Fast-forward state: per-job tick-invariant speed (valid only
        // while nothing that feeds the speed computation can change —
        // invalidated at every scheduling round, server failure and
        // non-quiescent straggler tick), plus the skip/batch tallies.
        let mut speed_cache: Vec<Option<f64>> = vec![None; self.jobs.len()];
        let mut ticks_skipped = 0u64;
        let mut ticks_batched = 0u64;

        let mut tick: u64 = 0;
        while tick < max_ticks {
            let t = tick as f64 * cfg.tick_s;

            if self.process_server_failures(t) {
                speed_cache.fill(None);
            }
            if tick.is_multiple_of(ticks_per_interval) {
                let started = std::time::Instant::now();
                self.run_scheduling_round(t, round + 1);
                speed_cache.fill(None);
                round += 1;
                if tel.is_enabled() {
                    let wall_us = started.elapsed().as_micros() as u64;
                    tel.observe("sim.round_wall_us", wall_us as f64);
                    tel.record(TraceEvent::Round {
                        round,
                        t_s: t,
                        active_jobs: self.live.len(),
                        wall_us,
                    });
                }
                // Feed the flight recorder *after* the round applied
                // its decisions: the snapshot reads state, never
                // writes it, so decisions are identical with the
                // recorder on or off.
                if let Some(mut rec) = self.flight.take() {
                    let deltas = rec.counter_deltas(&tel);
                    rec.record(self.sample_flight(round, t, deltas));
                    self.flight = Some(rec);
                }
            }
            if tick.is_multiple_of(ticks_per_sample) {
                let point = self.sample_timeline(t);
                if progress_on {
                    let elapsed = last_progress.elapsed().as_secs_f64();
                    if elapsed >= cfg.progress_every_s {
                        let ev_per_s =
                            (self.events_seen - last_progress_events) as f64 / elapsed.max(1e-9);
                        eprint!(
                            "\r[optimus-sim] round {round} t={t:.0}s active={} util={:.2} dirty={} skips={} prov={} ev/s={ev_per_s:.1}    ",
                            point.active_jobs,
                            point.worker_utilization,
                            self.track.last_delta_jobs,
                            self.track.skipped,
                            tel.why_count()
                        );
                        last_progress = std::time::Instant::now();
                        last_progress_events = self.events_seen;
                    }
                }
                timeline.push(point);
            }

            // Advance running jobs by one tick (shared with the event
            // engine's waves so per-tick semantics cannot drift).
            let mut any_active = false;
            let mut any_batched = false;
            let loss_tick = tick.is_multiple_of(loss_every);
            for i in 0..self.jobs.len() {
                let effect = self.advance_job_one_tick(
                    i,
                    t,
                    loss_tick,
                    cfg.fast_forward,
                    &mut speed_cache,
                    &mut straggler_replacements_done,
                );
                any_active |= effect.active;
                any_batched |= effect.batched;
            }
            if any_batched {
                ticks_batched += 1;
            }

            if self.jobs.iter().all(|j| j.status == JobStatus::Finished) {
                break;
            }

            // Idle fast-forward: with no job running and no scaling
            // overhead draining, every tick until the next event tick
            // (interval boundary, timeline sample, server failure, time
            // cap) is a provable no-op — jump over the whole span.
            if cfg.fast_forward && !any_active {
                let next =
                    self.next_event_tick(tick, max_ticks, ticks_per_interval, ticks_per_sample);
                if next > tick + 1 {
                    ticks_skipped += next - (tick + 1);
                    tick = next;
                    continue;
                }
            }
            tick += 1;
        }

        if progress_on {
            // The status line uses `\r`; leave the cursor on a fresh
            // line so whatever prints next is not glued to it.
            eprintln!();
        }
        if tel.is_enabled() {
            tel.add("sim.ticks_skipped", ticks_skipped);
            tel.add("sim.ticks_batched", ticks_batched);
        }

        self.finalize_report(timeline, straggler_replacements_done, round)
    }

    /// Shared post-loop settlement and report assembly for both
    /// engines: the final estimator-audit settlement, JCT phase-clock
    /// closure at the time cap, the per-job breakdown, and the
    /// [`SimReport`] itself. Byte-identical output requires both
    /// engines to arrive here with identical job state, event log,
    /// audit and flight recorder — which the loop equivalences
    /// guarantee.
    fn finalize_report(
        &mut self,
        timeline: Vec<TimePoint>,
        straggler_replacements_done: usize,
        round: u64,
    ) -> SimReport {
        let cfg = self.config.clone();
        let tel = cfg.telemetry.clone();
        let max_ticks = (cfg.max_time_s / cfg.tick_s).round() as u64;

        // Final estimator-audit settlement: predictions armed at the
        // last scheduling round have seen a full interval of realized
        // speed by now, so settle them into the report instead of
        // dropping them on the floor. Serial, in job order.
        for i in 0..self.jobs.len() {
            let (id, realized) = (
                self.jobs[i].spec.id.0,
                self.jobs[i].observed_interval_speed(),
            );
            self.audit.settle_speed(&tel, round + 1, id, realized);
        }

        // Close the phase clocks of jobs still alive at the cap, so
        // unfinished breakdowns partition `cap − submit` exactly.
        let end_t = max_ticks as f64 * cfg.tick_s;
        for job in self.jobs.iter_mut() {
            job.jct.settle(end_t);
        }
        let breakdown: Vec<JctBreakdown> = self
            .jobs
            .iter()
            .map(|j| JctBreakdown {
                job: j.spec.id,
                jct: j.finish_time.map(|f| f - j.spec.submit_time),
                queue_s: j.jct.queue_s,
                run_s: j.jct.run_s,
                overhead_s: j.jct.overhead_s,
                stall_s: j.jct.stall_s,
            })
            .collect();

        let jct: Vec<_> = self
            .jobs
            .iter()
            .filter_map(|j| j.finish_time.map(|f| (j.spec.id, f - j.spec.submit_time)))
            .collect();
        let first_arrival = self
            .jobs
            .iter()
            .map(|j| j.spec.submit_time)
            .fold(f64::INFINITY, f64::min);
        let last_finish = self
            .jobs
            .iter()
            .map(|j| j.finish_time.unwrap_or(cfg.max_time_s))
            .fold(0.0_f64, f64::max);
        let waits: Vec<_> = self
            .jobs
            .iter()
            .filter_map(|j| {
                j.first_run_time
                    .map(|f| (j.spec.id, (f - j.spec.submit_time).max(0.0)))
            })
            .collect();
        SimReport {
            scheduler: self.scheduler.name().to_string(),
            jct,
            wait: waits,
            makespan: (last_finish - first_arrival.min(last_finish)).max(0.0),
            scaling_overhead_s: self.jobs.iter().map(|j| j.overhead_total_s).sum(),
            scale_events: self.jobs.iter().map(|j| j.scale_events).sum(),
            straggler_replacements: straggler_replacements_done,
            chunks_moved: self.jobs.iter().map(|j| j.chunks_moved).sum(),
            unfinished_jobs: self
                .jobs
                .iter()
                .filter(|j| j.status != JobStatus::Finished)
                .count(),
            timeline,
            events: std::mem::take(&mut self.events),
            fidelity: std::mem::take(&mut self.fidelity),
            telemetry: tel.is_enabled().then(|| tel.summary()),
            breakdown,
            audit: self.audit.summary(),
            flight: self.flight.take().map(FlightRecorder::into_log),
        }
    }

    /// The discrete-event core ([`SimEngine::Event`]): a binary-heap
    /// calendar ([`EventQueue`]) of typed events — job arrivals and
    /// completions, scheduling rounds, flight snapshots, timeline
    /// samples, server failures, and job-progress waves — where each
    /// component schedules its own next event. The tick grid between
    /// events is replayed per active job as tight arithmetic spans
    /// ([`Simulation::advance_job_span`]), so the cost of a run is
    /// proportional to events and running-job work, not to
    /// `jobs × ticks`. Results are byte-identical to
    /// [`Simulation::run_tick`] — the equivalence suite proves it.
    fn run_event(&mut self) -> SimReport {
        let cfg = self.config.clone();
        let ticks_per_interval = (cfg.interval_s / cfg.tick_s).round().max(1.0) as u64;
        let ticks_per_sample = (cfg.sample_every_s / cfg.tick_s).round().max(1.0) as u64;
        let loss_every = (cfg.loss_sample_every_s / cfg.tick_s).round().max(1.0) as u64;
        let max_ticks = (cfg.max_time_s / cfg.tick_s).round() as u64;
        let tel = cfg.telemetry.clone();

        let mut timeline = Vec::new();
        let mut straggler_replacements_done = 0usize;
        let mut round: u64 = 0;

        let progress_on = cfg.progress_every_s > 0.0;
        let mut last_progress = std::time::Instant::now();
        let mut last_progress_events = 0u64;
        let mut last_progress_queue = 0u64;

        let mut speed_cache: Vec<Option<f64>> = vec![None; self.jobs.len()];
        // Jobs whose per-tick body can still have an effect: running,
        // draining overhead, or holding a pending Overhead-phase
        // transition. Ascending by index; rebuilt at rounds/failures.
        let mut active: Vec<usize> = Vec::new();
        let mut unfinished = self.jobs.len();
        let mut waves = 0u64;

        // Seed the calendar. Rounds and samples re-arm themselves; one
        // failure event per configured crash; one arrival event per job
        // at the first round tick that can admit it.
        let mut queue = EventQueue::new();
        if max_ticks > 0 {
            queue.schedule(0, SimEventType::SchedulingRound);
            queue.schedule(0, SimEventType::TimelineSample);
            for &(at, _) in &cfg.server_failures {
                let trig = Self::first_tick_at(at, cfg.tick_s);
                if trig < max_ticks {
                    queue.schedule(trig, SimEventType::ServerFailure);
                }
            }
            for (i, job) in self.jobs.iter().enumerate() {
                let eligible = Self::first_tick_at(job.spec.submit_time, cfg.tick_s);
                if eligible >= max_ticks {
                    continue;
                }
                let round_tick = eligible.div_ceil(ticks_per_interval) * ticks_per_interval;
                if round_tick < max_ticks {
                    queue.schedule(round_tick, SimEventType::JobArrival { job: i });
                }
            }
        }

        // `cursor` is the first tick whose job advancement has not run
        // yet; ticks in `[cursor, popped.tick)` are event-free by
        // construction and replayed as arithmetic spans.
        let mut cursor: u64 = 0;
        let mut current_tick: u64 = 0;
        while let Some(ev) = queue.pop() {
            if ev.tick >= max_ticks {
                break;
            }
            if unfinished == 0 && ev.tick > current_tick {
                // Everything finished during an earlier tick; the tick
                // loop would have broken before this event's tick.
                break;
            }
            if matches!(ev.kind, SimEventType::ProgressWave) && ev.tick < cursor {
                // A superseded wave entry: a round-anchored wave or a
                // shorter-period chain already advanced past its tick.
                continue;
            }
            if ev.tick > cursor {
                let from = cursor;
                cursor = ev.tick;
                if self.advance_range(from, ev.tick, &mut speed_cache, &mut active, &mut queue) {
                    // Interior completions were queued; they sort
                    // before `ev`, so put it back (its seq keeps its
                    // slot) and let them drain first.
                    queue.push(ev);
                    continue;
                }
            }
            current_tick = ev.tick;
            let t = ev.tick as f64 * cfg.tick_s;
            match ev.kind {
                SimEventType::ServerFailure => {
                    if self.process_server_failures(t) {
                        self.clear_speed_cache(&mut speed_cache);
                        self.rebuild_active(&mut active);
                    }
                }
                SimEventType::JobArrival { .. } => {
                    // Calendar marker: the job is eligible from this
                    // round tick on; the round at the same tick (later
                    // class) performs the actual admission.
                }
                SimEventType::SchedulingRound => {
                    let started = std::time::Instant::now();
                    self.run_scheduling_round(t, round + 1);
                    self.clear_speed_cache(&mut speed_cache);
                    round += 1;
                    if tel.is_enabled() {
                        let wall_us = started.elapsed().as_micros() as u64;
                        tel.observe("sim.round_wall_us", wall_us as f64);
                        tel.record(TraceEvent::Round {
                            round,
                            t_s: t,
                            active_jobs: self.live.len(),
                            wall_us,
                        });
                    }
                    if self.flight.is_some() {
                        queue.schedule(ev.tick, SimEventType::FlightSnapshot);
                    }
                    self.rebuild_active(&mut active);
                    // This tick's own job advancement still has to run
                    // (and newly placed jobs may need per-tick
                    // randomness), so anchor the wave chain here.
                    if active
                        .iter()
                        .any(|&i| self.jobs[i].status == JobStatus::Running)
                    {
                        queue.schedule(ev.tick, SimEventType::ProgressWave);
                    }
                    let next = ev.tick + ticks_per_interval;
                    if next < max_ticks {
                        queue.schedule(next, SimEventType::SchedulingRound);
                    }
                }
                SimEventType::FlightSnapshot => {
                    if let Some(mut rec) = self.flight.take() {
                        let deltas = rec.counter_deltas(&tel);
                        rec.record(self.sample_flight(round, t, deltas));
                        self.flight = Some(rec);
                    }
                }
                SimEventType::TimelineSample => {
                    let point = self.sample_timeline(t);
                    if progress_on {
                        let elapsed = last_progress.elapsed().as_secs_f64();
                        if elapsed >= cfg.progress_every_s {
                            let ev_per_s = (self.events_seen - last_progress_events) as f64
                                / elapsed.max(1e-9);
                            let q_per_s = (queue.scheduled() - last_progress_queue) as f64
                                / elapsed.max(1e-9);
                            eprint!(
                                "\r[optimus-sim] round {round} t={t:.0}s active={} util={:.2} dirty={} skips={} prov={} ev/s={ev_per_s:.1} queue-ev/s={q_per_s:.1}    ",
                                point.active_jobs,
                                point.worker_utilization,
                                self.track.last_delta_jobs,
                                self.track.skipped,
                                tel.why_count()
                            );
                            last_progress = std::time::Instant::now();
                            last_progress_events = self.events_seen;
                            last_progress_queue = queue.scheduled();
                        }
                    }
                    timeline.push(point);
                    let next = ev.tick + ticks_per_sample;
                    if next < max_ticks {
                        queue.schedule(next, SimEventType::TimelineSample);
                    }
                }
                SimEventType::ProgressWave => {
                    waves += 1;
                    let loss_tick = ev.tick.is_multiple_of(loss_every);
                    for &i in &active {
                        let effect = self.advance_job_one_tick(
                            i,
                            t,
                            loss_tick,
                            true,
                            &mut speed_cache,
                            &mut straggler_replacements_done,
                        );
                        if effect.finished {
                            unfinished -= 1;
                        }
                    }
                    self.prune_active(&mut active);
                    cursor = ev.tick + 1;
                    if unfinished == 0 {
                        break;
                    }
                    // Re-arm: every tick while any running monitor
                    // draws per-tick randomness, else at the next
                    // loss-sample tick (the spans between are pure
                    // arithmetic).
                    if let Some(next) = self.next_wave_tick(ev.tick, loss_every, &active) {
                        if next < max_ticks {
                            queue.schedule(next, SimEventType::ProgressWave);
                        }
                    }
                }
                SimEventType::JobCompletion { job, finish } => {
                    self.emit_completion(ev.tick, job, finish);
                    unfinished -= 1;
                }
            }
        }

        // Calendar exhausted (or stopped at the cap) with jobs still
        // unfinished: replay the remaining event-free ticks up to the
        // cap, exactly as the tick loop would.
        if unfinished > 0
            && cursor < max_ticks
            && self.advance_range(cursor, max_ticks, &mut speed_cache, &mut active, &mut queue)
        {
            while let Some(ev) = queue.pop() {
                if ev.tick >= max_ticks {
                    continue;
                }
                if let SimEventType::JobCompletion { job, finish } = ev.kind {
                    self.emit_completion(ev.tick, job, finish);
                }
            }
        }

        if progress_on {
            // The status line uses `\r`; leave the cursor on a fresh
            // line so whatever prints next is not glued to it.
            eprintln!();
        }
        if tel.is_enabled() {
            // Event-count accounting — the event engine's analogue of
            // `sim.ticks_skipped`/`sim.ticks_batched`. Added only at
            // the very end of the run so flight-snapshot counter
            // deltas stay byte-identical across engines.
            tel.add("sim.events_scheduled", queue.scheduled());
            tel.add("sim.waves", waves);
        }

        self.finalize_report(timeline, straggler_replacements_done, round)
    }

    /// Advances job `i` through one simulation tick at time `t` —
    /// exactly the per-job body of the legacy tick loop, shared by
    /// both engines so their per-tick semantics cannot drift: overhead
    /// drain, the deferred Overhead→next JCT transition, straggler
    /// dynamics (RNG), speed computation (cached while provably
    /// tick-invariant), progress integration, the observed loss sample
    /// (RNG, on loss ticks), and the ground-truth convergence check
    /// with intra-tick finish interpolation.
    fn advance_job_one_tick(
        &mut self,
        i: usize,
        t: f64,
        loss_tick: bool,
        allow_ff: bool,
        speed_cache: &mut [Option<f64>],
        straggler_replacements_done: &mut usize,
    ) -> TickEffect {
        let dt = self.config.tick_s;
        if self.jobs[i].status == JobStatus::Finished {
            return TickEffect::default();
        }
        if self.jobs[i].overhead_remaining_s > 0.0 {
            self.jobs[i].overhead_remaining_s -= dt;
            return TickEffect {
                active: true,
                ..TickEffect::default()
            };
        }
        if self.jobs[i].jct.phase() == JctPhase::Overhead {
            // The restart overhead just drained: charge the span and
            // move to whatever the job's state now implies. This tick
            // is never skipped — the drain itself kept the job active
            // on the previous tick — so the transition time is
            // engine- and fast-forward-independent.
            let next = self.jobs[i].current_phase();
            self.jobs[i].jct.transition(next, t);
        }
        if self.jobs[i].status != JobStatus::Running {
            return TickEffect::default();
        }
        let mut batched = false;
        let speed = if allow_ff && self.jobs[i].stragglers.is_quiescent() {
            // A quiescent monitor makes `advance` a state/RNG no-op and
            // the slowdown refresh below a rewrite of the identical
            // all-healthy factors (every placement syncs
            // `env.worker_slowdown` and the monitor cannot have changed
            // since): skip both, and reuse the speed — all of its
            // inputs are tick-invariant between invalidation points.
            match speed_cache[i] {
                Some(s) => {
                    batched = true;
                    s
                }
                None => {
                    let truth = self.jobs[i].truth();
                    let s =
                        truth.speed_with(self.jobs[i].ps, self.jobs[i].workers, &self.jobs[i].env);
                    speed_cache[i] = Some(s);
                    s
                }
            }
        } else {
            speed_cache[i] = None;
            // Straggler dynamics.
            let before = self.jobs[i].stragglers.replacements();
            self.jobs[i].stragglers.advance(dt, &mut self.rng);
            let replaced = self.jobs[i].stragglers.replacements() - before;
            *straggler_replacements_done += replaced;
            if replaced > 0 {
                let id = self.jobs[i].spec.id;
                self.log(
                    t,
                    SimEventKind::StragglerReplaced {
                        job: id,
                        replacements: replaced,
                    },
                );
                if self.config.telemetry.is_enabled() {
                    self.config.telemetry.record(TraceEvent::JobEvent {
                        t_s: t,
                        job: id.0,
                        what: format!("straggler_replaced x{replaced}"),
                    });
                }
            }
            {
                let job = &mut self.jobs[i];
                job.stragglers
                    .slowdown_factors_into(&mut job.env.worker_slowdown);
            }

            let truth = self.jobs[i].truth();
            truth.speed_with(self.jobs[i].ps, self.jobs[i].workers, &self.jobs[i].env)
        };
        if speed <= 0.0 {
            return TickEffect {
                active: true,
                batched,
                finished: false,
            };
        }
        // Async staleness discounts the *useful* progress per step; the
        // step rate (and hence communication traffic) is unchanged.
        let efficiency = match self.jobs[i].spec.mode {
            TrainingMode::Asynchronous if self.config.async_staleness > 0.0 => {
                1.0 / (1.0 + self.config.async_staleness * (self.jobs[i].workers.max(1) - 1) as f64)
            }
            _ => 1.0,
        };
        self.jobs[i].steps_done += speed * dt * efficiency;
        self.jobs[i].interval_active_s += dt;

        // Observed loss point (what the scheduler gets to see).
        if loss_tick {
            let spe = self.jobs[i].steps_per_epoch();
            let k = self.jobs[i].steps_done;
            let loss = self.jobs[i]
                .spec
                .profile()
                .curve
                .sample(k, spe, &mut self.rng);
            self.jobs[i].convergence.record(k as u64, loss);
        }

        // Ground-truth convergence check.
        let total = self.jobs[i].true_total_steps as f64;
        let mut finished = false;
        if self.jobs[i].steps_done >= total {
            let excess = self.jobs[i].steps_done - total;
            let within = dt - excess / speed.max(1e-12);
            let finish = t + within.clamp(0.0, dt);
            self.jobs[i].finish_time = Some(finish);
            self.jobs[i].status = JobStatus::Finished;
            self.jobs[i].ps = 0;
            self.jobs[i].workers = 0;
            // Close the JCT phase clock at the exact (possibly
            // intra-tick) finish instant, so the four buckets sum to
            // the reported JCT to the last float.
            self.jobs[i].jct.settle(finish);
            speed_cache[i] = None;
            let id = self.jobs[i].spec.id;
            let jct = finish - self.jobs[i].spec.submit_time;
            self.log(t, SimEventKind::JobFinished { job: id, jct });
            if self.config.telemetry.is_enabled() {
                self.config.telemetry.record(TraceEvent::JobEvent {
                    t_s: finish,
                    job: id.0,
                    what: "finished".to_string(),
                });
            }
            finished = true;
        }
        TickEffect {
            active: true,
            batched,
            finished,
        }
    }

    /// Replays the event-free tick span `[from, to)` for every active
    /// job. Spans contain no loss-sample ticks for running jobs and no
    /// straggler randomness by construction — the wave chain bounds
    /// them — so each job reduces to overhead drain, the deferred
    /// Overhead transition, and constant-rate progress integration
    /// with the tick loop's exact per-tick float operations.
    /// Ground-truth completions discovered inside the span are pushed
    /// into the calendar as [`SimEventType::JobCompletion`] events (in
    /// tick, then job-index order); returns true when any were pushed.
    fn advance_range(
        &mut self,
        from: u64,
        to: u64,
        speed_cache: &mut [Option<f64>],
        active: &mut Vec<usize>,
        queue: &mut EventQueue,
    ) -> bool {
        let mut finished_any = false;
        for &i in active.iter() {
            if let Some((tick, finish)) = self.advance_job_span(i, from, to, speed_cache) {
                queue.schedule(tick, SimEventType::JobCompletion { job: i, finish });
                finished_any = true;
            }
        }
        self.prune_active(active);
        finished_any
    }

    /// One job's event-free span `[from, to)`: the tick-loop body minus
    /// everything a span provably cannot contain (loss samples,
    /// straggler randomness, scheduling decisions). Returns the
    /// `(tick, finish_time)` of a ground-truth completion, if one
    /// happened inside the span.
    fn advance_job_span(
        &mut self,
        i: usize,
        from: u64,
        to: u64,
        speed_cache: &mut [Option<f64>],
    ) -> Option<(u64, f64)> {
        let dt = self.config.tick_s;
        let mut tick = from;
        {
            let job = &mut self.jobs[i];
            if job.status == JobStatus::Finished {
                return None;
            }
            // Overhead drain: one entry-check per tick, like the tick
            // loop (the iterated float subtraction is part of the
            // byte-identical contract).
            while tick < to && job.overhead_remaining_s > 0.0 {
                job.overhead_remaining_s -= dt;
                tick += 1;
            }
            if tick >= to {
                return None;
            }
            if job.jct.phase() == JctPhase::Overhead {
                let t = tick as f64 * dt;
                let next = job.current_phase();
                job.jct.transition(next, t);
            }
            if job.status != JobStatus::Running {
                // Drained but unplaced: every remaining tick of the
                // span is a no-op.
                return None;
            }
        }
        let speed = match speed_cache[i] {
            Some(s) => s,
            None => {
                let truth = self.jobs[i].truth();
                let s = truth.speed_with(self.jobs[i].ps, self.jobs[i].workers, &self.jobs[i].env);
                speed_cache[i] = Some(s);
                s
            }
        };
        if speed <= 0.0 {
            return None;
        }
        let efficiency = match self.jobs[i].spec.mode {
            TrainingMode::Asynchronous if self.config.async_staleness > 0.0 => {
                1.0 / (1.0 + self.config.async_staleness * (self.jobs[i].workers.max(1) - 1) as f64)
            }
            _ => 1.0,
        };
        // `speed * dt * efficiency` multiplies the identical operands
        // on every tick of the span, so hoisting the product preserves
        // the tick loop's float results bit for bit.
        let inc = speed * dt * efficiency;
        let job = &mut self.jobs[i];
        let total = job.true_total_steps as f64;
        while tick < to {
            job.steps_done += inc;
            job.interval_active_s += dt;
            if job.steps_done >= total {
                let t = tick as f64 * dt;
                let excess = job.steps_done - total;
                let within = dt - excess / speed.max(1e-12);
                let finish = t + within.clamp(0.0, dt);
                job.finish_time = Some(finish);
                job.status = JobStatus::Finished;
                job.ps = 0;
                job.workers = 0;
                job.jct.settle(finish);
                speed_cache[i] = None;
                return Some((tick, finish));
            }
            tick += 1;
        }
        None
    }

    /// Logs a ground-truth completion discovered inside an event-free
    /// span, at the tick time the tick loop would have logged it.
    fn emit_completion(&mut self, tick: u64, job: usize, finish: f64) {
        let t = tick as f64 * self.config.tick_s;
        let id = self.jobs[job].spec.id;
        let jct = finish - self.jobs[job].spec.submit_time;
        self.log(t, SimEventKind::JobFinished { job: id, jct });
        if self.config.telemetry.is_enabled() {
            self.config.telemetry.record(TraceEvent::JobEvent {
                t_s: finish,
                job: id.0,
                what: "finished".to_string(),
            });
        }
    }

    /// Rebuilds the active-job index list (ascending): jobs whose
    /// per-tick body can still have an effect. Pending and finished
    /// jobs never qualify, so the live list holds every candidate.
    fn rebuild_active(&self, active: &mut Vec<usize>) {
        active.clear();
        active.extend(self.live.iter().copied().filter(|&i| {
            let j = &self.jobs[i];
            j.status == JobStatus::Running
                || j.overhead_remaining_s > 0.0
                || j.jct.phase() == JctPhase::Overhead
        }));
    }

    /// Invalidates the event engine's per-job speed cache. Only running
    /// jobs hold entries, and a finish clears its own, so clearing the
    /// live jobs' entries clears them all.
    fn clear_speed_cache(&self, speed_cache: &mut [Option<f64>]) {
        for &i in &self.live {
            speed_cache[i] = None;
        }
        debug_assert!(speed_cache.iter().all(Option::is_none));
    }

    /// Drops jobs whose per-tick body became a no-op (finished, or
    /// drained without a placement) from the active list.
    fn prune_active(&self, active: &mut Vec<usize>) {
        let jobs = &self.jobs;
        active.retain(|&i| {
            let j = &jobs[i];
            j.status == JobStatus::Running
                || j.overhead_remaining_s > 0.0
                || j.jct.phase() == JctPhase::Overhead
        });
    }

    /// When (if at all) the next job-progress wave must fire after a
    /// wave at `tick`: the next tick while any running job's straggler
    /// monitor draws per-tick randomness, the next loss-sample tick
    /// while anything runs quiescently, or never (no running jobs —
    /// the next scheduling round re-anchors the chain).
    fn next_wave_tick(&self, tick: u64, loss_every: u64, active: &[usize]) -> Option<u64> {
        let mut any_running = false;
        for &i in active {
            let job = &self.jobs[i];
            if job.status == JobStatus::Running {
                any_running = true;
                if !job.stragglers.is_quiescent() {
                    return Some(tick + 1);
                }
            }
        }
        any_running.then(|| (tick / loss_every + 1) * loss_every)
    }

    /// First tick whose time reaches `at`, stepped up from one below
    /// the float quotient so rounding can't overshoot — the tick at
    /// which an `at <= t` condition first becomes true. Times past the
    /// exactly representable tick range (`+∞` included) map to
    /// `u64::MAX`, i.e. never; NaN and `-∞` map to tick 0.
    fn first_tick_at(at: f64, tick_s: f64) -> u64 {
        let quotient = (at / tick_s).floor();
        if quotient >= (1u64 << f64::MANTISSA_DIGITS) as f64 {
            return u64::MAX;
        }
        let mut trig = (quotient as i64).saturating_sub(1).max(0) as u64;
        while (trig as f64) * tick_s < at {
            trig += 1;
        }
        trig
    }

    /// Access to the job states (post-run inspection in tests/examples).
    pub fn jobs(&self) -> &[SimJob] {
        &self.jobs
    }

    /// Applies any scheduled server crashes at or before `t`: the server
    /// is excluded from all future scheduling, and every job with tasks
    /// on it loses them (it pauses and pays the §5.4 restart overhead at
    /// its next redeployment).
    /// Returns `true` when at least one failure was applied this call.
    fn process_server_failures(&mut self, t: f64) -> bool {
        if self.failed_servers.len() == self.config.server_failures.len() {
            // Every configured failure already happened; nothing can be
            // due, so skip the per-tick scan (and its allocation).
            return false;
        }
        let due: Vec<optimus_cluster::ServerId> = self
            .config
            .server_failures
            .iter()
            .filter(|&&(at, sid)| at <= t && !self.failed_servers.contains(&sid))
            .map(|&(_, sid)| sid)
            .collect();
        let applied = !due.is_empty();
        for sid in due {
            self.failed_servers.push(sid);
            for &i in &self.live {
                let job = &mut self.jobs[i];
                if job.status == JobStatus::Running && job.placement.iter().any(|&(s, _)| s == sid)
                {
                    // Tasks lost; the job stalls until re-placed.
                    job.status = JobStatus::Paused;
                    job.ps = 0;
                    job.workers = 0;
                    job.placement.clear();
                    // Failure ticks are never fast-forwarded over
                    // (`next_event_tick` stops at them), so this
                    // transition time is mode-independent.
                    let next = job.current_phase();
                    job.jct.transition(next, t);
                }
            }
        }
        applied
    }

    /// First tick strictly after `tick` at which something observable
    /// can happen while the cluster is idle: a scheduling round
    /// (interval boundary), a timeline sample, a configured server
    /// failure, or the time cap. The idle fast-forward jumps here.
    fn next_event_tick(
        &self,
        tick: u64,
        max_ticks: u64,
        ticks_per_interval: u64,
        ticks_per_sample: u64,
    ) -> u64 {
        let next_multiple = |every: u64| (tick / every + 1) * every;
        let mut next = next_multiple(ticks_per_interval)
            .min(next_multiple(ticks_per_sample))
            .min(max_ticks);
        for &(at, sid) in &self.config.server_failures {
            if self.failed_servers.contains(&sid) {
                continue;
            }
            let trig = Self::first_tick_at(at, self.config.tick_s);
            next = next.min(trig.max(tick + 1));
        }
        next.max(tick + 1)
    }

    /// One §4 scheduling round at time `t` (1-based `round` number, for
    /// the audit trail).
    fn run_scheduling_round(&mut self, t: f64, round: u64) {
        let tel = self.config.telemetry.clone();

        // 1. Admit & profile newly arrived jobs (§3.2 "Model fitting":
        // sample runs on a small dataset before the job starts). The
        // arrival cursor finds them; profiling runs in job-index order
        // so the RNG draws match a scan over every job.
        let first = self.next_arrival;
        self.next_arrival += self.arrivals[first..]
            .iter()
            .take_while(|&&i| self.jobs[i].spec.submit_time <= t)
            .count();
        let admitted = first..self.next_arrival;
        self.arrivals[admitted.clone()].sort_unstable();
        for &i in &self.arrivals[admitted.clone()] {
            let job = &mut self.jobs[i];
            let truth = optimus_ps::PsJobModel::new(job.spec.profile(), job.spec.mode);
            for &(p, w) in &self.config.profile_configs {
                let noise = 1.0 + self.config.profile_noise * (self.rng.gen::<f64>() * 2.0 - 1.0);
                job.speed_model.record(p, w, truth.speed(p, w) * noise);
            }
            let _ = job.speed_model.refit();
            job.status = JobStatus::Paused; // active, awaiting placement
        }
        for k in admitted.clone() {
            let id = self.jobs[self.arrivals[k]].spec.id;
            self.log(
                t,
                SimEventKind::JobAdmitted {
                    job: id,
                    profile_samples: self.config.profile_configs.len(),
                },
            );
            if tel.is_enabled() {
                tel.record(TraceEvent::JobEvent {
                    t_s: t,
                    job: id.0,
                    what: "admitted".to_string(),
                });
            }
        }
        // The settlement set keeps this interval's finishers (their
        // predictions are still pending); the live list drops them.
        self.settle.clear();
        self.settle.extend_from_slice(&self.live);
        self.settle.extend_from_slice(&self.arrivals[admitted]);
        self.settle.sort_unstable();
        self.live.clear();
        self.live.extend(
            self.settle
                .iter()
                .copied()
                .filter(|&i| self.jobs[i].status != JobStatus::Finished),
        );
        debug_assert!(
            self.live.iter().copied().eq(self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| !matches!(j.status, JobStatus::Pending | JobStatus::Finished))
                .map(|(i, _)| i)),
            "live list diverged from the full scan at t={t}"
        );

        // 2. Online calibration from the last interval's observations,
        // fused with the estimator-audit settlement: the previous
        // round's speed predictions are settled against the interval's
        // realized speeds *before* the refits fold the same
        // observations into the models. Settlement is serial and in job
        // order in both modes (it draws no randomness and no refit
        // reads the audit state, so fusing it here leaves every
        // decision unchanged), which keeps the audit trail independent
        // of thread count and refit mode. It runs unconditionally: a
        // disabled telemetry handle just drops the trace side while the
        // summary counters keep accruing into `SimReport::audit`.
        //
        // Each job's refit touches only that job's models and draws no
        // randomness, so the jobs fan out across threads; trace events
        // are collected per job and emitted serially afterwards in job
        // order so the trace stream is independent of thread count.
        // Two byte-identical paths (`SimConfig::batched_refit`):
        //
        // * batched — one serial pass settles the audit, refits speed
        //   models, and splits convergence estimators into clean jobs
        //   (cached fit replayed, `fit.dirty_skipped`) and a dirty set,
        //   which then refits through the batched SoA engine in
        //   lane-group waves (`optimus_core::refit_convergence_batch`);
        // * scalar — the PR-2 per-job fan-out, kept as the executable
        //   reference the equivalence suite diffs the batched path
        //   against (same clean-job skip, so counters match too).
        {
            let span = tel.span("sched.refit");
            // Fit results are bitwise thread-count-independent (the
            // equivalence suite proves it), so the auto setting is free
            // to pick serial when the refit set is too small to
            // amortize per-round thread spawns — which is most rounds:
            // only live jobs refit. An explicit `refit_threads` is
            // honored as-is. The machine's parallelism costs syscalls
            // and file reads to query, so it is asked once per run, and
            // only once a round has enough live jobs to fan out at all.
            let threads = match self.config.refit_threads {
                Some(n) => n,
                None if self.live.len() < 8 => 1,
                None => {
                    let auto = *self
                        .auto_threads
                        .get_or_insert_with(optimus_parallel::available_threads);
                    if self.live.len() < 8 * auto {
                        1
                    } else {
                        auto
                    }
                }
            };
            let traced = tel.is_enabled();
            let model_to_event =
                |m: optimus_fitting::LossModel| (vec![m.beta0, m.beta1, m.beta2], m.residual_ss);
            let outcomes = if self.config.batched_refit {
                let bufs = &mut self.refit;
                // Pass A (serial, job order): settle the audit over the
                // settlement set, refit live jobs' speed models, replay
                // clean convergence fits, and mark the dirty set. The
                // buffers are indexed by live-list position.
                bufs.speed_events.clear();
                bufs.conv_slots.clear();
                bufs.dirty.clear();
                for &i in &self.settle {
                    let (id, realized) = (
                        self.jobs[i].spec.id.0,
                        self.jobs[i].observed_interval_speed(),
                    );
                    self.audit.settle_speed(&tel, round, id, realized);
                    let job = &mut self.jobs[i];
                    if job.status == JobStatus::Finished {
                        continue;
                    }
                    let speed_fit = job.observed_interval_speed().map(|speed| {
                        job.speed_model.record(job.ps, job.workers, speed);
                        job.speed_model.refit().map_err(|e| e.to_string())
                    });
                    bufs.speed_events.push(if traced {
                        speed_fit.map(|res| {
                            res.map(|()| {
                                (
                                    job.speed_model.coefficients().to_vec(),
                                    job.speed_model.residual_ss().unwrap_or(0.0),
                                    job.speed_model.sample_count(),
                                )
                            })
                        })
                    } else {
                        None
                    });
                    let cached = job.convergence.cached_fit_if_clean();
                    if cached.is_none() {
                        bufs.dirty.push(bufs.conv_slots.len());
                    }
                    bufs.conv_slots.push(cached);
                }
                // Pass B: refit the dirty set through the batched SoA
                // engine (lane groups, wave-synchronized β₂ scans). The
                // dirty jobs ascend, so one forward walk of the job
                // slice borrows their estimators.
                let mut ests = Vec::with_capacity(bufs.dirty.len());
                let mut walk = self.jobs.iter_mut();
                let mut next = 0;
                for &k in &bufs.dirty {
                    let i = self.live[k];
                    let job = walk.nth(i - next).expect("live indices ascend within jobs");
                    ests.push(&mut job.convergence);
                    next = i + 1;
                }
                let results = optimus_core::refit_convergence_batch(&mut ests, threads);
                for (&k, res) in bufs.dirty.iter().zip(results) {
                    bufs.conv_slots[k] = Some(res);
                }
                // Pass C: assemble per-job outcomes in job order, same
                // shape as the scalar fan-out below.
                if !traced {
                    Vec::new()
                } else {
                    self.live
                        .iter()
                        .enumerate()
                        .map(|(k, &i)| {
                            let conv_fit = bufs.conv_slots[k]
                                .take()
                                .expect("every refit candidate got a convergence result");
                            let job = &self.jobs[i];
                            Some((
                                job.spec.id.0,
                                bufs.speed_events[k].take(),
                                conv_fit.map(model_to_event).map_err(|e| e.to_string()),
                                job.convergence.sample_count(),
                            ))
                        })
                        .collect()
                }
            } else {
                for i in 0..self.jobs.len() {
                    let (id, realized) = (
                        self.jobs[i].spec.id.0,
                        self.jobs[i].observed_interval_speed(),
                    );
                    self.audit.settle_speed(&tel, round, id, realized);
                }
                optimus_parallel::run_indexed_mut(&mut self.jobs, threads, |_, job| {
                    if job.status == JobStatus::Finished || job.status == JobStatus::Pending {
                        return None;
                    }
                    let speed_fit = job.observed_interval_speed().map(|speed| {
                        job.speed_model.record(job.ps, job.workers, speed);
                        job.speed_model.refit().map_err(|e| e.to_string())
                    });
                    let conv_fit = match job.convergence.cached_fit_if_clean() {
                        Some(res) => res,
                        None => job.convergence.refit().copied(),
                    }
                    .map(model_to_event)
                    .map_err(|e| e.to_string());
                    if !traced {
                        return None;
                    }
                    let speed_event = speed_fit.map(|res| {
                        res.map(|()| {
                            (
                                job.speed_model.coefficients().to_vec(),
                                job.speed_model.residual_ss().unwrap_or(0.0),
                                job.speed_model.sample_count(),
                            )
                        })
                    });
                    Some((
                        job.spec.id.0,
                        speed_event,
                        conv_fit,
                        job.convergence.sample_count(),
                    ))
                })
            };
            drop(span);
            for (id, speed_event, conv_fit, conv_samples) in outcomes.into_iter().flatten() {
                match speed_event {
                    Some(Ok((coeffs, residual, samples))) => tel.record(TraceEvent::SpeedFit {
                        job: id,
                        coeffs,
                        residual,
                        samples,
                    }),
                    Some(Err(reason)) => tel.record(TraceEvent::FitFailure {
                        job: id,
                        what: "speed".to_string(),
                        reason,
                    }),
                    None => {}
                }
                match conv_fit {
                    Ok((coeffs, residual)) => tel.record(TraceEvent::ConvergenceFit {
                        job: id,
                        coeffs,
                        residual,
                        samples: conv_samples,
                    }),
                    Err(reason) => tel.record(TraceEvent::FitFailure {
                        job: id,
                        what: "convergence".to_string(),
                        reason,
                    }),
                }
            }
        }

        // 3. Build the scheduler's view. Jobs reconfigured less than
        // `min_rescale_interval_s` ago are pinned (§7): they keep their
        // current placement and are hidden from the scheduler, which
        // divides only the remaining capacity.
        let cfg = &self.config;
        let mut pinned = Vec::new();
        let mut views = Vec::new();
        let mut view_index = Vec::new();
        self.track.fps_next.clear();
        for &i in &self.live {
            let job = &self.jobs[i];
            if cfg.min_rescale_interval_s > 0.0
                && job.status == JobStatus::Running
                && job.ps > 0
                && job.workers > 0
                && t - job.last_scale_time < cfg.min_rescale_interval_s
            {
                pinned.push(i);
                continue;
            }
            let spe = job.steps_per_epoch() as f64;
            // Remaining work: estimator output, or a conservative prior
            // of 60 epochs before the first successful fit.
            let default_remaining = (60.0 * spe) as u64;
            let mut remaining = job.convergence.remaining_steps_or(default_remaining) as f64;
            let mut speed = job.speed_model.clone();
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
                requested: cfg.requested_units,
                worker_profile: job.spec.worker_profile,
                ps_profile: job.spec.ps_profile,
            });
            views.push(JobView {
                id: job.spec.id,
                worker_profile: job.spec.worker_profile,
                ps_profile: job.spec.ps_profile,
                remaining_work,
                speed,
                progress,
                requested_units: cfg.requested_units,
            });
            view_index.push(i);
        }
        if views.is_empty() {
            // No decision this round: next round has nothing coherent
            // to diff against, so force it onto the full path.
            self.track.valid = false;
            self.track.last_delta_jobs = 0;
            self.track.last_quiescent = false;
            return;
        }

        // 4. Schedule against the cluster minus the pinned jobs' tasks:
        // every interval re-divides everything else (checkpoint-based
        // elasticity, §5.4).
        let mut fresh = self.cluster.clone();
        fresh.clear_allocations();
        for &sid in &self.failed_servers {
            // A dead server is modeled as fully reserved.
            if let Ok(server) = fresh.server_mut(sid) {
                let cap = server.capacity();
                server
                    .allocate(&cap)
                    .expect("empty server fits its capacity");
            }
        }
        if let Some(bg) = cfg.background {
            // Reserve the background share on every server first.
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
        for &i in &pinned {
            let job = &mut self.jobs[i];
            for (sid, counts) in &job.placement {
                let demand = job.spec.worker_profile * counts.workers as f64
                    + job.spec.ps_profile * counts.ps as f64;
                // A pinned reservation can only fail if the cluster
                // itself shrank; treat that as a forced unpin.
                if fresh
                    .server_mut(*sid)
                    .and_then(|srv| srv.allocate(&demand))
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
        }
        // Pinned jobs keep their configuration without passing
        // through the apply step, so re-arm their speed audit here.
        for &i in &pinned {
            let job = &self.jobs[i];
            if job.ps > 0 && job.workers > 0 {
                let predicted = job.speed_model.predict(job.ps, job.workers);
                self.audit.record_speed_prediction(job.spec.id.0, predicted);
            }
        }
        // Diff this round's inputs against the previous round's into a
        // RoundDelta. Computed in both modes so churn telemetry is
        // mode-independent; only `delta_rounds` lets the scheduler act
        // on it.
        let (churn, quiescent) = {
            let track = &mut self.track;
            track.delta.dirty.clear();
            let mut kept = 0u64;
            for (vi, (&i, &fp)) in view_index.iter().zip(&track.fps_next).enumerate() {
                let prev = track.fps.get(i).copied().flatten();
                kept += u64::from(prev.is_some());
                if prev != Some(fp) {
                    track.delta.dirty.push(vi as u32);
                }
            }
            // Every previous view job without a view this round departed.
            let departures = track.fp_ids.len() as u64 - kept;
            let mut cluster_changed = !track.valid || track.cluster.len() != fresh.len();
            if !cluster_changed {
                for (k, s) in fresh.servers().enumerate() {
                    if track.cluster[k] != (s.capacity(), s.available()) {
                        cluster_changed = true;
                        break;
                    }
                }
            }
            track.delta.full = !track.valid;
            track.delta.cluster_changed = cluster_changed;
            let churn = track.delta.dirty.len() as u64 + departures;
            let quiescent =
                track.valid && !cluster_changed && departures == 0 && track.delta.dirty.is_empty();
            (churn, quiescent)
        };

        // Reuse the round scratch and schedule buffers across rounds:
        // once warm, the whole decision runs without heap allocation.
        // In delta mode the buffer also carries the previous round's
        // schedule back in, which is what makes the whole-round skip
        // legal (the scheduler leaves it untouched).
        let mut schedule = std::mem::take(&mut self.schedule_buf);
        let delta_stats = if cfg.delta_rounds {
            Some(self.scheduler.schedule_delta(
                &views,
                &fresh,
                &self.track.delta,
                &mut self.scratch,
                &mut schedule,
            ))
        } else {
            self.scheduler
                .schedule_into(&views, &fresh, &mut self.scratch, &mut schedule);
            None
        };

        // Refresh tracking with this round's inputs and emit churn
        // telemetry.
        self.track.rounds += 1;
        self.track.last_delta_jobs = churn;
        self.track.last_quiescent = quiescent;
        {
            let track = &mut self.track;
            if track.fps.len() < self.jobs.len() {
                track.fps.resize(self.jobs.len(), None);
            }
            for &i in &track.fp_ids {
                track.fps[i] = None;
            }
            for (&i, &fp) in view_index.iter().zip(&track.fps_next) {
                track.fps[i] = Some(fp);
            }
            track.fp_ids.clear();
            track.fp_ids.extend_from_slice(&view_index);
        }
        self.track.cluster.clear();
        self.track
            .cluster
            .extend(fresh.servers().map(|s| (s.capacity(), s.available())));
        self.track.valid = true;
        if delta_stats.is_some_and(|s| s.skipped_full) {
            self.track.skipped += 1;
        }
        if tel.is_enabled() {
            tel.add("round.delta_jobs", churn);
            if delta_stats.is_some_and(|s| s.skipped_full) {
                tel.add("round.skipped_full", 1);
            }
        }

        // 5. Apply.
        for (&i, view) in view_index.iter().zip(views.iter()) {
            let placement = schedule.placement_for(view.id);
            let (new_ps, new_w, counts): (u32, u32, Vec<TaskCounts>) = match placement {
                Some(p) => {
                    let ps = p.iter().map(|(_, c)| c.ps).sum();
                    let w = p.iter().map(|(_, c)| c.workers).sum();
                    (ps, w, p.iter().map(|&(_, c)| c).collect())
                }
                None => (0, 0, Vec::new()),
            };
            let job = &mut self.jobs[i];
            let old = (job.ps, job.workers);
            let changed = old != (new_ps, new_w);
            let had_tasks = old.0 > 0 && old.1 > 0;

            if changed && had_tasks {
                // §5.4 checkpoint + restart.
                let s = job.spec.profile().model_size_bytes();
                let overhead = cfg.checkpoint_restart_s + 2.0 * s / cfg.hdfs_bandwidth;
                job.overhead_remaining_s += overhead;
                job.overhead_total_s += overhead;
                job.scale_events += 1;
            }
            if changed && new_w > 0 {
                let moved = job.chunks.rebalance(new_w as usize);
                job.chunks_moved += moved;
                job.stragglers.resize(new_w as usize);
                if moved > 0 {
                    if tel.is_enabled() {
                        tel.add("paa.rebalance_moves", moved as u64);
                    }
                    if cfg.record_events {
                        self.events.push(
                            t,
                            SimEventKind::ChunksRebalanced {
                                job: view.id,
                                moved,
                            },
                        );
                    }
                }
            }
            let job = &mut self.jobs[i];
            if changed {
                job.last_scale_time = t;
            }
            job.ps = new_ps;
            job.workers = new_w;
            if new_ps > 0 && new_w > 0 && job.first_run_time.is_none() {
                job.first_run_time = Some(t);
            }
            job.placement = match placement {
                Some(p) => p.to_vec(),
                None => Vec::new(),
            };
            job.status = if new_ps > 0 && new_w > 0 {
                JobStatus::Running
            } else {
                JobStatus::Paused
            };
            // Round ticks are never skipped, so the phase clock sees
            // this decision at the same instant with fast-forward on
            // or off. A rescale with overhead lands in Overhead; a
            // placed job with no pending overhead in Running; a
            // pre-first-placement job stays Queued; otherwise Stalled.
            let next_phase = job.current_phase();
            job.jct.transition(next_phase, t);

            // Environmental factors of the new placement.
            if new_ps > 0 && new_w > 0 {
                let s_bytes = job.spec.profile().model_size_bytes();
                let shard = s_bytes / new_ps as f64;
                job.env.transfer_stretch = transfer_stretch(
                    &counts,
                    shard,
                    optimus_ps::steptime::DEFAULT_PS_BANDWIDTH,
                    optimus_ps::steptime::DEFAULT_PS_BANDWIDTH,
                );
                let use_paa = cfg.assignment == AssignmentPolicy::Paa;
                job.env.imbalance = job.imbalance_cached(new_ps, use_paa, cfg.seed);
                job.stragglers
                    .slowdown_factors_into(&mut job.env.worker_slowdown);
            }
            job.interval_steps_start = job.steps_done;
            job.interval_active_s = 0.0;
            if cfg.record_events {
                let kind = if new_ps > 0 && new_w > 0 {
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
                self.events.push(t, kind);
            }
            if tel.is_enabled() {
                let what = if new_ps > 0 && new_w > 0 {
                    format!("scheduled p={new_ps} w={new_w}")
                } else {
                    "paused".to_string()
                };
                tel.record(TraceEvent::JobEvent {
                    t_s: t,
                    job: view.id.0,
                    what,
                });
            }
            // Estimator audit: the convergence estimate is checked
            // against ground truth immediately (both sides are known
            // now); the speed prediction for the deployed config is
            // held and settled against the next interval's realized
            // speed. Unconditional — the predictions are pure reads and
            // the disabled handle drops the trace side — so
            // `SimReport::audit` is populated with or without telemetry.
            let spe = job.steps_per_epoch().max(1) as f64;
            let true_epochs = (job.true_total_steps as f64 - job.steps_done).max(0.0) / spe;
            let predicted_epochs = job.convergence.predicted_remaining_epochs();
            let speed_prediction =
                (new_ps > 0 && new_w > 0).then(|| job.speed_model.predict(new_ps, new_w));
            self.audit
                .sample_convergence(&tel, round, view.id.0, predicted_epochs, true_epochs);
            if let Some(predicted) = speed_prediction {
                self.audit.record_speed_prediction(view.id.0, predicted);
            }
            if cfg.verbose {
                eprintln!(
                    "[{t:>8.0}] {} {:?} (p={}, w={}) stretch={:.2} imb={:.2} steps={:.0}/{}",
                    self.scheduler.name(),
                    view.id,
                    job.ps,
                    job.workers,
                    job.env.transfer_stretch,
                    job.env.imbalance,
                    job.steps_done,
                    job.true_total_steps,
                );
            }
        }

        self.schedule_buf = schedule;

        if self.config.nic_contention {
            self.apply_nic_contention();
        }

        if self.config.track_fidelity {
            self.sample_fidelity(t);
        }
    }

    /// Samples the emergent estimator errors for every running job.
    fn sample_fidelity(&mut self, t: f64) {
        for &i in &self.live {
            let job = &self.jobs[i];
            if job.status != JobStatus::Running || job.ps == 0 || job.workers == 0 {
                continue;
            }
            let truth = job.truth();
            let true_speed = truth.speed_with(job.ps, job.workers, &job.env);
            if true_speed <= 0.0 {
                continue;
            }
            let predicted = job.speed_model.predict(job.ps, job.workers);
            if predicted <= 0.0 {
                continue;
            }
            let convergence_error = job.convergence.predict().map(|pred| {
                (pred.total_steps as f64 - job.true_total_steps as f64)
                    / job.true_total_steps as f64
            });
            self.fidelity.push(FidelityPoint {
                t,
                job: job.spec.id,
                progress: job.true_progress(),
                speed_error: (predicted - true_speed) / true_speed,
                convergence_error,
            });
        }
    }

    /// Recomputes cross-job NIC oversubscription from the current
    /// placements and each job's estimated step rate, and folds it into
    /// every running job's environment. One fixed-point iteration (the
    /// demand is evaluated at the uncontended speed) — documented
    /// approximation.
    fn apply_nic_contention(&mut self) {
        let mut traffic = Vec::new();
        for &i in &self.live {
            let job = &self.jobs[i];
            if job.status != JobStatus::Running || job.ps == 0 || job.workers == 0 {
                continue;
            }
            let mut env = job.env.clone();
            env.nic_oversubscription = 1.0;
            let truth = job.truth();
            let steps_per_s = match job.spec.mode {
                // PS-side traffic scales with global steps/s; async
                // aggregate speed already counts per-worker steps, and
                // each worker's push is per *its own* step, so the
                // aggregate rate is the right multiplier per PS but the
                // per-worker rate is aggregate/w.
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
        let factors = oversubscription_factors(&traffic, self.config.nic_bytes_per_s);
        for &i in &self.live {
            let job = &mut self.jobs[i];
            if job.status == JobStatus::Running {
                job.env.nic_oversubscription = factors.get(&job.spec.id).copied().unwrap_or(1.0);
            }
        }
    }

    /// Samples the Fig 14 time series. Samples fall between rounds, so
    /// the live list may still hold jobs that finished since the last
    /// one; they are skipped.
    fn sample_timeline(&self, t: f64) -> TimePoint {
        let mut running_tasks = 0u32;
        let mut active_jobs = 0u32;
        let mut worker_utils = Vec::new();
        let mut ps_utils = Vec::new();
        let mut allocated_cpu = 0.0;
        for &i in &self.live {
            let job = &self.jobs[i];
            if job.status == JobStatus::Finished {
                continue;
            }
            active_jobs += 1;
            if job.status == JobStatus::Running {
                running_tasks += job.ps + job.workers;
                allocated_cpu += job.spec.worker_profile.get(ResourceKind::Cpu)
                    * job.workers as f64
                    + job.spec.ps_profile.get(ResourceKind::Cpu) * job.ps as f64;
                worker_utils.push(job.worker_utilization());
                ps_utils.push(job.ps_utilization());
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        TimePoint {
            t,
            running_tasks,
            active_jobs,
            worker_utilization: mean(&worker_utils),
            ps_utilization: mean(&ps_utils),
            allocated_cpu,
        }
    }

    /// Builds one flight-recorder [`ClusterSnapshot`] at the end of a
    /// scheduling round: per-pool resource usage reconstructed from the
    /// current placements (plus background reservations; failed servers
    /// count as fully used), free-CPU fragmentation, job population
    /// counts and the supplied telemetry counter deltas. Read-only —
    /// this never feeds back into scheduling.
    fn sample_flight(
        &self,
        round: u64,
        t: f64,
        counter_deltas: Vec<(String, u64)>,
    ) -> ClusterSnapshot {
        let servers: Vec<_> = self.cluster.servers().collect();
        let index_of: std::collections::HashMap<_, _> = servers
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id(), i))
            .collect();
        // Per-server usage: background reservation (or full capacity
        // for dead servers) plus every running job's placed tasks.
        let mut used: Vec<ResourceVec> = servers
            .iter()
            .map(|s| {
                if self.failed_servers.contains(&s.id()) {
                    s.capacity()
                } else if let Some(bg) = self.config.background {
                    s.capacity() * bg.fraction_at(t)
                } else {
                    ResourceVec::zero()
                }
            })
            .collect();
        let mut queue_depth = 0usize;
        let mut active_jobs = 0usize;
        let mut running_workers = 0u32;
        let mut running_ps = 0u32;
        for &j in &self.live {
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
                        let demand = job.spec.worker_profile * counts.workers as f64
                            + job.spec.ps_profile * counts.ps as f64;
                        if let Some(&i) = index_of.get(sid) {
                            used[i] += demand;
                        }
                    }
                }
            }
        }
        // Every admitted job is live or finished; the rest are pending.
        let admitted = self.next_arrival;
        let pending_jobs = self.jobs.len() - admitted;
        let finished_jobs = admitted - active_jobs;
        // Aggregate per pool (server class), in first-seen order.
        let mut pools: Vec<PoolStat> = Vec::new();
        let mut total_free_cpu = 0.0_f64;
        let mut largest_free_cpu = 0.0_f64;
        for (i, server) in servers.iter().enumerate() {
            let cap = server.capacity();
            let pool = match pools.iter_mut().find(|p| p.pool == server.class()) {
                Some(p) => p,
                None => {
                    pools.push(PoolStat::new(server.class(), 0));
                    pools.last_mut().expect("just pushed")
                }
            };
            pool.servers += 1;
            pool.cpu_used += used[i].get(ResourceKind::Cpu);
            pool.cpu_total += cap.get(ResourceKind::Cpu);
            pool.gpu_used += used[i].get(ResourceKind::Gpu);
            pool.gpu_total += cap.get(ResourceKind::Gpu);
            pool.mem_used += used[i].get(ResourceKind::MemoryGb);
            pool.mem_total += cap.get(ResourceKind::MemoryGb);
            pool.bw_used += used[i].get(ResourceKind::BandwidthGbps);
            pool.bw_total += cap.get(ResourceKind::BandwidthGbps);
            let free_cpu = (cap.get(ResourceKind::Cpu) - used[i].get(ResourceKind::Cpu)).max(0.0);
            pool.largest_free_cpu = pool.largest_free_cpu.max(free_cpu);
            total_free_cpu += free_cpu;
            largest_free_cpu = largest_free_cpu.max(free_cpu);
        }
        let fragmentation = if total_free_cpu > 0.0 {
            (1.0 - largest_free_cpu / total_free_cpu).max(0.0)
        } else {
            0.0
        };
        ClusterSnapshot {
            round,
            t_s: t,
            pools,
            fragmentation,
            queue_depth,
            pending_jobs,
            active_jobs,
            finished_jobs,
            running_workers,
            running_ps,
            counter_deltas,
            events_total: self.events_seen,
            delta_jobs: self.track.last_delta_jobs,
            quiescent: self.track.last_quiescent,
        }
    }
}

/// The admission order: indices of jobs with a non-NaN `submit_time`,
/// ascending by submit time, ties in index order. A NaN arrival never
/// satisfies `submit_time <= t`, so it stays out of the index rather
/// than blocking the cursor; `+∞` sorts last and is never reached.
/// Specs that arrive already ordered (every workload generator's
/// output) skip the sort.
fn arrival_index(jobs: &[SimJob]) -> Vec<usize> {
    let at = |i: usize| jobs[i].spec.submit_time;
    let mut index: Vec<usize> = (0..jobs.len()).filter(|&i| !at(i).is_nan()).collect();
    if !index.windows(2).all(|w| at(w[0]) <= at(w[1])) {
        index.sort_by(|&a, &b| at(a).total_cmp(&at(b)));
    }
    index
}

/// Convenience: the mode-aware steps/epoch used in reporting.
pub fn steps_per_epoch(spec: &JobSpec) -> u64 {
    match spec.mode {
        TrainingMode::Synchronous => spec.profile().sync_steps_per_epoch(spec.dataset_scale),
        TrainingMode::Asynchronous => spec.profile().async_steps_per_epoch(spec.dataset_scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_core::prelude::*;
    use optimus_workload::{JobId, ModelKind};

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
    fn async_staleness_slows_async_jobs_only() {
        use optimus_workload::JobSpec;
        let specs = vec![
            JobSpec::new(
                JobId(0),
                ModelKind::CnnRand,
                TrainingMode::Asynchronous,
                0.03,
            )
            .scaled(0.3),
            JobSpec::new(
                JobId(1),
                ModelKind::CnnRand,
                TrainingMode::Synchronous,
                0.03,
            )
            .scaled(0.3),
        ];
        let run = |sigma: f64| {
            let mut cfg = quick_config();
            cfg.async_staleness = sigma;
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                specs.clone(),
                Box::new(OptimusScheduler::build()),
                cfg,
            );
            let report = sim.run();
            let jct = |id: u64| {
                report
                    .jct
                    .iter()
                    .find(|&&(j, _)| j == JobId(id))
                    .map(|&(_, t)| t)
                    .expect("finished")
            };
            (jct(0), jct(1))
        };
        let (async_clean, sync_clean) = run(0.0);
        let (async_stale, sync_stale) = run(0.1);
        assert!(
            async_stale > async_clean * 1.2,
            "staleness must slow the async job: {async_stale} vs {async_clean}"
        );
        // The sync job may shift slightly (shared cluster) but not by
        // the same systematic factor.
        assert!(
            sync_stale < sync_clean * 1.2,
            "{sync_stale} vs {sync_clean}"
        );
    }

    #[test]
    fn nic_contention_can_only_slow_things_down() {
        let run = |contention: bool| {
            let mut cfg = quick_config();
            cfg.nic_contention = contention;
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                small_specs(4),
                Box::new(DrfScheduler::build()),
                cfg,
            );
            sim.run()
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.unfinished_jobs, 0);
        assert!(
            with.makespan >= without.makespan * 0.999,
            "contention must not speed things up: {} vs {}",
            with.makespan,
            without.makespan
        );
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
