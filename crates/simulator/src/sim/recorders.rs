//! The run's observers. None of them feeds back into a decision.

use super::round::DeltaTrack;
use super::SimConfig;
use crate::audit::EstimatorAudit;
use crate::events::{EventLog, SimEventKind};
use crate::jobstate::{JobStatus, SimJob};
use crate::metrics::{FidelityPoint, TimePoint};
use optimus_cluster::{Cluster, ResourceKind, ResourceVec};
use optimus_telemetry::flight::{FlightRecorder, PoolStat};
use optimus_telemetry::{Telemetry, TraceEvent};
use std::time::Instant;

/// Everything a run records: the telemetry handle and the `SimReport`
/// parts that are not job state.
#[derive(Default)]
pub(super) struct Recorders {
    pub(super) tel: Telemetry,
    record_events: bool,
    pub(super) events: EventLog,
    /// Events logged, whether or not `record_events` keeps them.
    pub(super) events_seen: u64,
    pub(super) timeline: Vec<TimePoint>,
    pub(super) fidelity: Vec<FidelityPoint>,
    pub(super) flight: Option<FlightRecorder>,
    /// Runs with telemetry off too, for `SimReport::audit`.
    pub(super) audit: EstimatorAudit,
    pub(super) straggler_replacements: usize,
    line: Option<ProgressLine>,
}

/// The `--progress` status line: its period, and when it last printed
/// with the event counts then.
#[derive(Debug)]
struct ProgressLine {
    every_s: f64,
    last: Instant,
    last_events: u64,
    last_queue: u64,
}

impl Recorders {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Recorders {
            tel: cfg.telemetry.clone(),
            record_events: cfg.record_events,
            flight: cfg.flight.as_ref().map(FlightRecorder::from_config),
            ..Recorders::default()
        }
    }

    /// Records one job-lifecycle fact, the event log's only writer: it
    /// counts it, logs it at `t` when `record_events` is on, and traces
    /// it at `trace_t` (a finish's intra-tick instant) unless it is a
    /// chunk rebalance.
    pub(super) fn log(&mut self, t: f64, trace_t: f64, kind: SimEventKind) {
        self.events_seen += 1;
        if self.tel.is_enabled() {
            let line = match &kind {
                SimEventKind::JobAdmitted { job, .. } => Some((job, "admitted".to_string())),
                SimEventKind::JobScheduled {
                    job, ps, workers, ..
                } => Some((job, format!("scheduled p={ps} w={workers}"))),
                SimEventKind::JobPaused { job } => Some((job, "paused".to_string())),
                SimEventKind::JobFinished { job, .. } => Some((job, "finished".to_string())),
                SimEventKind::StragglerReplaced { job, replacements } => {
                    Some((job, format!("straggler_replaced x{replacements}")))
                }
                SimEventKind::ChunksRebalanced { .. } => None,
            };
            if let Some((job, what)) = line {
                self.tel.record(TraceEvent::JobEvent {
                    t_s: trace_t,
                    job: job.0,
                    what,
                });
            }
        }
        if self.record_events {
            self.events.push(t, kind);
        }
    }

    /// Records `job`'s completion at `finish`, in the tick at `t`.
    pub(super) fn log_finish(&mut self, t: f64, job: &SimJob, finish: f64) {
        let kind = SimEventKind::JobFinished {
            job: job.spec.id,
            jct: finish - job.spec.submit_time,
        };
        self.log(t, finish, kind);
    }

    /// Starts the `--progress` line (a period of 0 keeps it off).
    pub(super) fn start_progress_line(&mut self, every_s: f64) {
        self.line = (every_s > 0.0).then(|| ProgressLine {
            every_s,
            last: Instant::now(),
            last_events: 0,
            last_queue: 0,
        });
    }

    /// Ends the `\r`-rewritten `--progress` line with a newline.
    pub(super) fn end_progress_line(&self) {
        if self.line.is_some() {
            eprintln!();
        }
    }

    /// The round's wall time: `sim.round_wall_us` and a `Round` record.
    pub(super) fn close_round(&self, started: Instant, t: f64, round: u64, active_jobs: usize) {
        if self.tel.is_enabled() {
            let wall_us = started.elapsed().as_micros() as u64;
            self.tel.observe("sim.round_wall_us", wall_us as f64);
            self.tel.record(TraceEvent::Round {
                round,
                t_s: t,
                active_jobs,
                wall_us,
            });
        }
    }

    /// Takes the Fig-14 sample at `t` and prints the `--progress` line
    /// when due (`queue_scheduled`: the event engine's calendar count).
    pub(super) fn sample(
        &mut self,
        t: f64,
        jobs: &[SimJob],
        live: &[usize],
        round: u64,
        track: &DeltaTrack,
        queue_scheduled: Option<u64>,
    ) {
        let point = timeline_point(t, jobs, live);
        if let Some(line) = &mut self.line {
            let elapsed = line.last.elapsed().as_secs_f64();
            if elapsed >= line.every_s {
                let rate = |now: u64, then: u64| (now - then) as f64 / elapsed.max(1e-9);
                let queue = queue_scheduled.map_or(String::new(), |q| {
                    format!(" queue-ev/s={:.1}", rate(q, line.last_queue))
                });
                eprint!(
                    "\r[optimus-sim] round {round} t={t:.0}s active={} util={:.2} dirty={} skips={} prov={} ev/s={:.1}{queue}    ",
                    point.active_jobs,
                    point.worker_utilization,
                    track.last_delta_jobs,
                    track.skipped,
                    self.tel.why_count(),
                    rate(self.events_seen, line.last_events),
                );
                line.last = Instant::now();
                line.last_events = self.events_seen;
                line.last_queue = queue_scheduled.unwrap_or(0);
            }
        }
        self.timeline.push(point);
    }

    /// Samples the emergent estimator errors of every running job.
    pub(super) fn sample_fidelity(&mut self, t: f64, jobs: &[SimJob], live: &[usize]) {
        for &i in live {
            let job = &jobs[i];
            if job.status != JobStatus::Running || job.ps == 0 || job.workers == 0 {
                continue;
            }
            let true_speed = job.true_speed();
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
}

/// The Fig 14 sample at `t`. The live list may still hold jobs that
/// finished since the last round; they are skipped.
fn timeline_point(t: f64, jobs: &[SimJob], live: &[usize]) -> TimePoint {
    let mut running_tasks = 0u32;
    let mut active_jobs = 0u32;
    let mut worker_utils = Vec::new();
    let mut ps_utils = Vec::new();
    let mut allocated_cpu = 0.0;
    for &i in live {
        let job = &jobs[i];
        if job.status == JobStatus::Finished {
            continue;
        }
        active_jobs += 1;
        if job.status == JobStatus::Running {
            running_tasks += job.ps + job.workers;
            allocated_cpu += job.spec.worker_profile.get(ResourceKind::Cpu) * job.workers as f64
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

/// Per-pool (server class) usage in first-seen order, and the free-CPU
/// fragmentation `1 − largest / total`, from each server's `used`.
pub(super) fn pool_stats(cluster: &Cluster, used: &[ResourceVec]) -> (Vec<PoolStat>, f64) {
    let mut pools: Vec<PoolStat> = Vec::new();
    let mut total_free_cpu = 0.0_f64;
    let mut largest_free_cpu = 0.0_f64;
    for (server, used) in cluster.servers().zip(used) {
        let cap = server.capacity();
        let pool = match pools.iter_mut().find(|p| p.pool == server.class()) {
            Some(p) => p,
            None => {
                pools.push(PoolStat::new(server.class(), 0));
                pools.last_mut().expect("just pushed")
            }
        };
        pool.servers += 1;
        pool.cpu_used += used.get(ResourceKind::Cpu);
        pool.cpu_total += cap.get(ResourceKind::Cpu);
        pool.gpu_used += used.get(ResourceKind::Gpu);
        pool.gpu_total += cap.get(ResourceKind::Gpu);
        pool.mem_used += used.get(ResourceKind::MemoryGb);
        pool.mem_total += cap.get(ResourceKind::MemoryGb);
        pool.bw_used += used.get(ResourceKind::BandwidthGbps);
        pool.bw_total += cap.get(ResourceKind::BandwidthGbps);
        let free_cpu = (cap.get(ResourceKind::Cpu) - used.get(ResourceKind::Cpu)).max(0.0);
        pool.largest_free_cpu = pool.largest_free_cpu.max(free_cpu);
        total_free_cpu += free_cpu;
        largest_free_cpu = largest_free_cpu.max(free_cpu);
    }
    let fragmentation = if total_free_cpu > 0.0 {
        (1.0 - largest_free_cpu / total_free_cpu).max(0.0)
    } else {
        0.0
    };
    (pools, fragmentation)
}
