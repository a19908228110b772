#![warn(missing_docs)]

//! Discrete-time cluster simulator for the Optimus reproduction.
//!
//! The paper evaluates Optimus both on a 13-server testbed and with a
//! discrete-time simulator driven by traces from that testbed (§6.1);
//! this crate is the simulator, with the paper's own system models as
//! physics (`optimus-ps`):
//!
//! * jobs arrive over time, are profiled with a few `(p, w)` sample runs
//!   (§3.2 "Model fitting"), and then progress tick by tick at their
//!   ground-truth speed under the current allocation, placement, PS
//!   load balance and straggler state;
//! * every scheduling interval (10 min) the configured scheduler
//!   re-divides the cluster; jobs whose configuration changed pay the
//!   §5.4 checkpoint-based scaling overhead;
//! * schedulers only ever see *observed* losses and speeds — their
//!   prediction error is emergent, and [`inject`] can add the
//!   controlled extra error of the Fig 15 sensitivity study;
//! * [`metrics`] records the Fig 13/14 outputs: per-job JCT, makespan,
//!   running-task counts and normalized CPU utilization over time.

pub mod audit;
pub mod equeue;
pub mod events;
pub mod inject;
pub mod jobstate;
pub mod metrics;
pub mod sim;

pub use audit::{AuditSummary, EstimatorAudit};
pub use equeue::{EventQueue, ScheduledEvent, SimEventType};
pub use events::{EventLog, SimEvent, SimEventKind};
pub use inject::ErrorInjection;
pub use jobstate::{JctClock, JctPhase, JobStatus, SimJob};
pub use metrics::{JctBreakdown, SimReport, TimePoint};
pub use sim::{AssignmentPolicy, BackgroundLoad, SimConfig, Simulation};
