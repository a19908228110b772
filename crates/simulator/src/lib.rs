#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

//! Discrete-time cluster simulator for the Optimus reproduction (§6.1),
//! with the paper's own system models as physics (`optimus-ps`):
//!
//! * jobs arrive, are profiled with a few `(p, w)` sample runs (§3.2
//!   "Model fitting"), then progress tick by tick at their ground-truth
//!   speed under the current placement, PS load balance and stragglers;
//! * every scheduling interval the scheduler re-divides the cluster, and
//!   reconfigured jobs pay the §5.4 checkpoint-based scaling overhead;
//! * schedulers only see *observed* losses and speeds, so their error is
//!   emergent; [`inject`] adds the controlled error of Fig 15;
//! * [`metrics`] records the Fig 13/14 outputs.
//!
//! [`sim`] is the engine: a [`Simulation`] driving one component per
//! concern (arrivals, failures, refits, the scheduler round, progress,
//! recorders).

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
