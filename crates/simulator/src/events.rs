//! Structured event log of a simulation run.
//!
//! When [`crate::SimConfig::record_events`] is on, the engine records
//! every scheduling decision and job state change as a typed event.
//! The log is the ground truth for debugging scheduler behavior ("why
//! did job 3 pause at t = 4200?") and can be exported as JSON lines for
//! external analysis.

use optimus_workload::JobId;
use serde::{Deserialize, Serialize};

/// One logged simulation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Simulation time, seconds.
    pub t: f64,
    /// The event body.
    pub kind: SimEventKind,
}

/// Event bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind")]
pub enum SimEventKind {
    /// A pending job was admitted and profiled (§3.2 sample runs).
    JobAdmitted {
        /// The job.
        job: JobId,
        /// Number of profiling sample runs recorded.
        profile_samples: usize,
    },
    /// A scheduling round granted the job a configuration.
    JobScheduled {
        /// The job.
        job: JobId,
        /// Parameter servers placed.
        ps: u32,
        /// Workers placed.
        workers: u32,
        /// Servers the job spans.
        servers: usize,
        /// True when this is a reconfiguration of a running job
        /// (checkpoint overhead applies, §5.4).
        rescale: bool,
    },
    /// The job received no placement this interval (§4.2 pause).
    JobPaused {
        /// The job.
        job: JobId,
    },
    /// The job converged.
    JobFinished {
        /// The job.
        job: JobId,
        /// Completion time minus submission time, seconds.
        jct: f64,
    },
    /// The §5.2 straggler monitor flagged workers and started
    /// replacements.
    StragglerReplaced {
        /// The job.
        job: JobId,
        /// Workers replaced at this detection.
        replacements: usize,
    },
    /// A reconfiguration triggered §5.1 data-chunk rebalancing.
    ChunksRebalanced {
        /// The job.
        job: JobId,
        /// Chunks moved between workers.
        moved: usize,
    },
}

impl SimEvent {
    /// The job this event concerns.
    pub fn job(&self) -> JobId {
        match self.kind {
            SimEventKind::JobAdmitted { job, .. }
            | SimEventKind::JobScheduled { job, .. }
            | SimEventKind::JobPaused { job }
            | SimEventKind::JobFinished { job, .. }
            | SimEventKind::StragglerReplaced { job, .. }
            | SimEventKind::ChunksRebalanced { job, .. } => job,
        }
    }
}

/// A recorded event log with query and export helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<SimEvent>,
}

impl EventLog {
    /// Appends an event. Public so external harnesses (replay tools,
    /// tests) can synthesize logs with the same machinery the engine
    /// uses.
    pub fn push(&mut self, t: f64, kind: SimEventKind) {
        self.events.push(SimEvent { t, kind });
    }

    /// All events in time order.
    pub fn all(&self) -> &[SimEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events concerning one job, in time order.
    pub fn for_job(&self, job: JobId) -> Vec<&SimEvent> {
        self.events.iter().filter(|e| e.job() == job).collect()
    }

    /// Rescale events (checkpoint/restart cost applied).
    pub fn rescales(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, SimEventKind::JobScheduled { rescale: true, .. }))
            .count()
    }

    /// Serializes the log as JSON lines (one event per line).
    pub fn to_json_lines(&self) -> String {
        json_lines(self.events.iter())
    }

    /// Serializes only the *schedule stream* — the per-round placement
    /// decisions ([`SimEventKind::JobScheduled`] / `JobPaused` /
    /// `ChunksRebalanced`) — as JSON lines. This is the compact artifact
    /// the run ledger hashes alongside the full event log: two runs
    /// whose schedule streams hash identically made the same decisions.
    pub fn schedule_stream_json_lines(&self) -> String {
        json_lines(self.events.iter().filter(|e| {
            matches!(
                e.kind,
                SimEventKind::JobScheduled { .. }
                    | SimEventKind::JobPaused { .. }
                    | SimEventKind::ChunksRebalanced { .. }
            )
        }))
    }
}

/// The events as JSON lines joined by newlines, with no newline after
/// the last.
fn json_lines<'a>(events: impl Iterator<Item = &'a SimEvent>) -> String {
    let mut out = String::new();
    for (i, e) in events.enumerate() {
        if i > 0 {
            out.push('\n');
        }
        e.write_json(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> EventLog {
        let mut log = EventLog::default();
        log.push(
            0.0,
            SimEventKind::JobAdmitted {
                job: JobId(0),
                profile_samples: 5,
            },
        );
        log.push(
            0.0,
            SimEventKind::JobScheduled {
                job: JobId(0),
                ps: 2,
                workers: 2,
                servers: 1,
                rescale: false,
            },
        );
        log.push(
            600.0,
            SimEventKind::JobScheduled {
                job: JobId(0),
                ps: 4,
                workers: 4,
                servers: 2,
                rescale: true,
            },
        );
        log.push(
            600.0,
            SimEventKind::ChunksRebalanced {
                job: JobId(0),
                moved: 3,
            },
        );
        log.push(601.0, SimEventKind::JobPaused { job: JobId(1) });
        log.push(
            700.0,
            SimEventKind::StragglerReplaced {
                job: JobId(1),
                replacements: 1,
            },
        );
        log.push(
            900.0,
            SimEventKind::JobFinished {
                job: JobId(0),
                jct: 900.0,
            },
        );
        log
    }

    #[test]
    fn query_helpers() {
        let log = sample_log();
        assert_eq!(log.len(), 7);
        assert!(!log.is_empty());
        assert_eq!(log.for_job(JobId(0)).len(), 5);
        assert_eq!(log.for_job(JobId(1)).len(), 2);
        assert_eq!(log.rescales(), 1);
    }

    #[test]
    fn json_lines_roundtrip() {
        let log = sample_log();
        let lines = log.to_json_lines();
        assert_eq!(lines.lines().count(), 7);
        for line in lines.lines() {
            let back: SimEvent = serde_json::from_str(line).expect("parses");
            assert!(log.all().contains(&back));
        }
        // Tagged representation is stable and grep-friendly.
        assert!(lines.contains("\"kind\":\"JobFinished\""));
        assert!(lines.contains("\"kind\":\"StragglerReplaced\""));
        assert!(lines.contains("\"kind\":\"ChunksRebalanced\""));
    }

    #[test]
    fn schedule_stream_filters_to_placement_decisions() {
        let log = sample_log();
        let stream = log.schedule_stream_json_lines();
        assert_eq!(stream.lines().count(), 4);
        for line in stream.lines() {
            let back: SimEvent = serde_json::from_str(line).expect("parses");
            assert!(matches!(
                back.kind,
                SimEventKind::JobScheduled { .. }
                    | SimEventKind::JobPaused { .. }
                    | SimEventKind::ChunksRebalanced { .. }
            ));
        }
        assert!(!stream.contains("JobAdmitted"));
        assert!(!stream.contains("JobFinished"));
    }

    #[test]
    fn time_order_preserved() {
        let log = sample_log();
        let times: Vec<f64> = log.all().iter().map(|e| e.t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
