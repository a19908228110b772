//! Workload trace export/import.
//!
//! Experiments become portable when the exact job list can be saved and
//! replayed: a trace is the JSON serialization of the generated
//! [`JobSpec`]s, so a run can be reproduced without re-deriving it from
//! the seed (or shared with a system that lacks the generator).

use crate::job::JobSpec;
use optimus_cluster::{ResourceKind, ResourceVec};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A saved workload: job specs plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// Trace format version (bumped on breaking changes).
    pub version: u32,
    /// Free-form description of how the trace was produced.
    pub description: String,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

/// Errors from trace (de)serialization.
#[derive(Debug)]
pub enum TraceError {
    /// The JSON failed to parse or had the wrong shape.
    Malformed(serde_json::Error),
    /// The trace version is newer than this library understands.
    UnsupportedVersion(u32),
    /// The trace violates an invariant (e.g. unsorted submissions).
    Invalid(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed(e) => write!(f, "malformed trace: {e}"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Invalid(why) => write!(f, "invalid trace: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The current trace format version.
pub const TRACE_VERSION: u32 = 1;

impl WorkloadTrace {
    /// Wraps a job list as a trace.
    pub fn new(description: impl Into<String>, jobs: Vec<JobSpec>) -> Self {
        WorkloadTrace {
            version: TRACE_VERSION,
            description: description.into(),
            jobs,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("traces serialize")
    }

    /// Parses and validates a trace.
    pub fn from_json(json: &str) -> Result<Self, TraceError> {
        let trace: WorkloadTrace = serde_json::from_str(json).map_err(TraceError::Malformed)?;
        if trace.version > TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(trace.version));
        }
        let valid_amount = |x: f64| x.is_finite() && x >= 0.0;
        if !trace.jobs.iter().all(|j| valid_amount(j.submit_time)) {
            return Err(TraceError::Invalid("negative or non-finite submit time"));
        }
        let valid_profile =
            |r: &ResourceVec| ResourceKind::ALL.iter().all(|&k| valid_amount(r.get(k)));
        if !trace
            .jobs
            .iter()
            .all(|j| valid_profile(&j.worker_profile) && valid_profile(&j.ps_profile))
        {
            return Err(TraceError::Invalid(
                "negative or non-finite resource amount",
            ));
        }
        if !trace
            .jobs
            .windows(2)
            .all(|w| w[0].submit_time <= w[1].submit_time)
        {
            return Err(TraceError::Invalid("jobs not in submission order"));
        }
        let mut ids = HashSet::with_capacity(trace.jobs.len());
        if !trace.jobs.iter().all(|j| ids.insert(j.id)) {
            return Err(TraceError::Invalid("duplicate job id"));
        }
        // `partial_cmp` keeps NaN on the rejected side, like the
        // negated comparison it replaces.
        let non_positive = |x: f64| x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater);
        if trace
            .jobs
            .iter()
            .any(|j| non_positive(j.convergence_threshold) || non_positive(j.dataset_scale))
        {
            return Err(TraceError::Invalid(
                "non-positive threshold or dataset scale",
            ));
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, WorkloadGenerator};

    fn sample() -> WorkloadTrace {
        let jobs = WorkloadGenerator::new(ArrivalProcess::paper_default(5), 7).generate();
        WorkloadTrace::new("test trace, seed 7", jobs)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let trace = sample();
        let json = trace.to_json();
        let back = WorkloadTrace::from_json(&json).expect("parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn rejects_future_versions() {
        let mut trace = sample();
        trace.version = TRACE_VERSION + 1;
        let json = trace.to_json();
        assert!(matches!(
            WorkloadTrace::from_json(&json),
            Err(TraceError::UnsupportedVersion(_))
        ));
    }

    /// Parses `json`, expecting an [`TraceError::Invalid`] whose message
    /// names `why`.
    fn assert_invalid(json: &str, why: &str) {
        match WorkloadTrace::from_json(json) {
            Err(TraceError::Invalid(got)) => assert_eq!(got, why),
            other => panic!("expected `invalid trace: {why}`, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_job_ids() {
        let mut trace = sample();
        trace.jobs[1].id = trace.jobs[0].id;
        assert_invalid(&trace.to_json(), "duplicate job id");
    }

    #[test]
    fn rejects_negative_or_non_finite_submit_times() {
        let mut trace = sample();
        trace.jobs[0].submit_time = -100.0;
        assert_invalid(&trace.to_json(), "negative or non-finite submit time");
        // JSON has no infinity literal, but an overflowing number parses
        // to one.
        let mut trace = sample();
        let last = trace.jobs.len() - 1;
        trace.jobs[last].submit_time = 123456.5;
        let json = trace.to_json().replace("123456.5", "1e999");
        assert_invalid(&json, "negative or non-finite submit time");
    }

    #[test]
    fn rejects_negative_or_non_finite_profile_amounts() {
        let mut trace = sample();
        trace.jobs[0].worker_profile = trace.jobs[0].worker_profile.with(ResourceKind::Cpu, -5.0);
        assert_invalid(&trace.to_json(), "negative or non-finite resource amount");
        let mut trace = sample();
        trace.jobs[0].ps_profile = trace.jobs[0]
            .ps_profile
            .with(ResourceKind::MemoryGb, 123456.5);
        let json = trace.to_json().replace("123456.5", "1e999");
        assert_invalid(&json, "negative or non-finite resource amount");
    }

    #[test]
    fn rejects_out_of_order_jobs() {
        let mut trace = sample();
        trace.jobs.reverse();
        let json = trace.to_json();
        assert!(matches!(
            WorkloadTrace::from_json(&json),
            Err(TraceError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            WorkloadTrace::from_json("not json"),
            Err(TraceError::Malformed(_))
        ));
        assert!(matches!(
            WorkloadTrace::from_json("{\"version\":1}"),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_invalid_job_fields() {
        let mut trace = sample();
        trace.jobs[0].dataset_scale = 0.0;
        let json = trace.to_json();
        assert!(matches!(
            WorkloadTrace::from_json(&json),
            Err(TraceError::Invalid(_))
        ));
    }
}
