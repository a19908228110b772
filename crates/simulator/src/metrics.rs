//! Simulation metrics: the quantities the paper's figures report.

use crate::audit::AuditSummary;
use crate::events::EventLog;
use optimus_fitting::stats::nearest_rank;
use optimus_telemetry::{FlightLog, TelemetrySummary};
use optimus_workload::JobId;
use serde::{Deserialize, Serialize};

/// One sampled point of the Fig 14 time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Simulation time, seconds.
    pub t: f64,
    /// Tasks (PS + workers) currently placed.
    pub running_tasks: u32,
    /// Active (unfinished, scheduled) jobs.
    pub active_jobs: u32,
    /// Mean normalized CPU utilization across workers (0–1).
    pub worker_utilization: f64,
    /// Mean normalized CPU utilization across parameter servers (0–1).
    pub ps_utilization: f64,
    /// Total CPU cores currently allocated.
    pub allocated_cpu: f64,
}

/// One emergent-estimate fidelity sample: how far the scheduler's
/// online models were from ground truth at a scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityPoint {
    /// Scheduling-round time, seconds.
    pub t: f64,
    /// The job measured.
    pub job: JobId,
    /// The job's true progress at the time, in [0, 1].
    pub progress: f64,
    /// Signed relative error of the speed prediction at the job's
    /// current (p, w): `(predicted − true)/true`.
    pub speed_error: f64,
    /// Signed relative error of the estimated total steps to
    /// convergence, when a convergence model exists.
    pub convergence_error: Option<f64>,
}

/// Where one job's completion time went. The four phase buckets
/// partition the interval from submission to finish (or to the
/// simulation cap for unfinished jobs) *exactly*: every second of a
/// job's life is charged to precisely one bucket, so
/// `queue_s + run_s + overhead_s + stall_s = jct` for finished jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JctBreakdown {
    /// The job.
    pub job: JobId,
    /// Completion time, seconds (`None` = unfinished at the cap; the
    /// buckets then sum to `cap − submit` instead).
    pub jct: Option<f64>,
    /// Queue wait: submission until the first placement.
    pub queue_s: f64,
    /// Time holding tasks (includes time lost to stragglers — the job
    /// was running, just slowly).
    pub run_s: f64,
    /// Checkpoint/restart overhead from rescales and failure restarts.
    pub overhead_s: f64,
    /// Scheduling stalls after the first placement: intervals without
    /// tasks (preempted/starved) and post-failure waits for the next
    /// round.
    pub stall_s: f64,
}

impl JctBreakdown {
    /// Sum of the four phase buckets.
    pub fn total(&self) -> f64 {
        self.queue_s + self.run_s + self.overhead_s + self.stall_s
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheduler under test.
    pub scheduler: String,
    /// Per-job completion times `(job, JCT seconds)`.
    pub jct: Vec<(JobId, f64)>,
    /// Per-job queueing delays `(job, seconds from submission to first
    /// placed tasks)`.
    pub wait: Vec<(JobId, f64)>,
    /// Makespan: first arrival to last completion, seconds.
    pub makespan: f64,
    /// Total checkpoint-based scaling overhead across jobs, seconds.
    pub scaling_overhead_s: f64,
    /// Total (p, w) reconfiguration events.
    pub scale_events: usize,
    /// Total straggler replacements performed.
    pub straggler_replacements: usize,
    /// Total data chunks moved by §5.1 rebalancing.
    pub chunks_moved: usize,
    /// Jobs that did not finish before the simulation cap.
    pub unfinished_jobs: usize,
    /// Sampled time series (Fig 14).
    pub timeline: Vec<TimePoint>,
    /// Structured decision log (empty unless
    /// `SimConfig::record_events` was set).
    pub events: EventLog,
    /// Emergent estimator-fidelity samples (empty unless
    /// `SimConfig::track_fidelity` was set).
    pub fidelity: Vec<FidelityPoint>,
    /// Final counter/gauge/histogram snapshot of the run's telemetry
    /// handle (`None` when `SimConfig::telemetry` was disabled).
    pub telemetry: Option<TelemetrySummary>,
    /// Per-job JCT decomposition (queue → run → overhead → stall), in
    /// job order. Always present — the phase clock is part of the
    /// engine, not the (optional) telemetry.
    pub breakdown: Vec<JctBreakdown>,
    /// Estimator-audit settlement: sample counts and final calibration
    /// scores. Settled at the end of the run regardless of telemetry
    /// handle state.
    pub audit: AuditSummary,
    /// The flight recorder's retained snapshots (`None` unless
    /// `SimConfig::flight` was set).
    pub flight: Option<FlightLog>,
}

impl SimReport {
    /// Average queueing delay, seconds (0 when nothing ran).
    pub fn avg_wait(&self) -> f64 {
        if self.wait.is_empty() {
            return 0.0;
        }
        self.wait.iter().map(|&(_, t)| t).sum::<f64>() / self.wait.len() as f64
    }

    /// Average job completion time, seconds (0 when no job finished).
    pub fn avg_jct(&self) -> f64 {
        if self.jct.is_empty() {
            return 0.0;
        }
        self.jct.iter().map(|&(_, t)| t).sum::<f64>() / self.jct.len() as f64
    }

    /// JCT at quantile `q` in `[0, 1]` by the nearest-rank method
    /// (0 when no job finished). Tail percentiles matter for
    /// fairness-style comparisons the mean hides: a scheduler can win
    /// on `avg_jct` while starving its slowest jobs.
    pub fn jct_percentile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.jct.iter().map(|&(_, t)| t).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        nearest_rank(&v, q)
    }

    /// Median job completion time, seconds.
    pub fn p50_jct(&self) -> f64 {
        self.jct_percentile(0.50)
    }

    /// 95th-percentile job completion time, seconds.
    pub fn p95_jct(&self) -> f64 {
        self.jct_percentile(0.95)
    }

    /// 99th-percentile job completion time, seconds.
    pub fn p99_jct(&self) -> f64 {
        self.jct_percentile(0.99)
    }

    /// Scaling overhead as a fraction of makespan (§6.2 reports 2.54 %).
    pub fn scaling_overhead_fraction(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.scaling_overhead_s / self.makespan
    }

    /// Mean running tasks over the timeline.
    pub fn mean_running_tasks(&self) -> f64 {
        if self.timeline.is_empty() {
            return 0.0;
        }
        self.timeline
            .iter()
            .map(|p| p.running_tasks as f64)
            .sum::<f64>()
            / self.timeline.len() as f64
    }

    /// Mean worker utilization over timeline points with running tasks.
    pub fn mean_worker_utilization(&self) -> f64 {
        let active: Vec<f64> = self
            .timeline
            .iter()
            .filter(|p| p.running_tasks > 0)
            .map(|p| p.worker_utilization)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Mean PS utilization over timeline points with running tasks.
    pub fn mean_ps_utilization(&self) -> f64 {
        let active: Vec<f64> = self
            .timeline
            .iter()
            .filter(|p| p.running_tasks > 0)
            .map(|p| p.ps_utilization)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            scheduler: "test".into(),
            jct: vec![(JobId(0), 100.0), (JobId(1), 300.0)],
            wait: vec![(JobId(0), 10.0), (JobId(1), 30.0)],
            makespan: 400.0,
            scaling_overhead_s: 10.0,
            scale_events: 4,
            straggler_replacements: 0,
            chunks_moved: 12,
            unfinished_jobs: 0,
            events: EventLog::default(),
            fidelity: vec![],
            telemetry: None,
            breakdown: vec![],
            audit: AuditSummary::default(),
            flight: None,
            timeline: vec![
                TimePoint {
                    t: 0.0,
                    running_tasks: 4,
                    active_jobs: 2,
                    worker_utilization: 0.8,
                    ps_utilization: 0.4,
                    allocated_cpu: 20.0,
                },
                TimePoint {
                    t: 60.0,
                    running_tasks: 0,
                    active_jobs: 0,
                    worker_utilization: 0.0,
                    ps_utilization: 0.0,
                    allocated_cpu: 0.0,
                },
            ],
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.avg_jct(), 200.0);
        assert_eq!(r.avg_wait(), 20.0);
        assert!((r.scaling_overhead_fraction() - 0.025).abs() < 1e-12);
        assert_eq!(r.mean_running_tasks(), 2.0);
        // Utilization means skip idle points.
        assert_eq!(r.mean_worker_utilization(), 0.8);
        assert_eq!(r.mean_ps_utilization(), 0.4);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = SimReport {
            scheduler: "x".into(),
            jct: vec![],
            wait: vec![],
            makespan: 0.0,
            scaling_overhead_s: 0.0,
            scale_events: 0,
            straggler_replacements: 0,
            chunks_moved: 0,
            unfinished_jobs: 0,
            timeline: vec![],
            events: EventLog::default(),
            fidelity: vec![],
            telemetry: None,
            breakdown: vec![],
            audit: AuditSummary::default(),
            flight: None,
        };
        assert_eq!(r.avg_jct(), 0.0);
        assert_eq!(r.avg_wait(), 0.0);
        assert_eq!(r.scaling_overhead_fraction(), 0.0);
        assert_eq!(r.mean_running_tasks(), 0.0);
        assert_eq!(r.mean_worker_utilization(), 0.0);
        assert_eq!(r.p50_jct(), 0.0);
        assert_eq!(r.p99_jct(), 0.0);
    }

    #[test]
    fn jct_percentiles_nearest_rank() {
        let mut r = report();
        // Unsorted on purpose: percentiles must sort internally.
        r.jct = (1..=10)
            .rev()
            .map(|i| (JobId(i), i as f64 * 100.0))
            .collect();
        assert_eq!(r.p50_jct(), 500.0);
        assert_eq!(r.p95_jct(), 1000.0);
        assert_eq!(r.p99_jct(), 1000.0);
        assert_eq!(r.jct_percentile(0.0), 100.0);
        assert_eq!(r.jct_percentile(1.0), 1000.0);
        // A single job: every percentile is its JCT.
        r.jct = vec![(JobId(0), 42.0)];
        assert_eq!(r.p50_jct(), 42.0);
        assert_eq!(r.p99_jct(), 42.0);
    }

    #[test]
    fn percentiles_bound_the_mean() {
        let r = report();
        assert!(r.p50_jct() <= r.p99_jct());
        assert!(r.avg_jct() <= r.p99_jct());
        assert!(r.p50_jct() <= r.p95_jct() && r.p95_jct() <= r.p99_jct());
    }
}
