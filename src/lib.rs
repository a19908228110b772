#![warn(missing_docs)]

//! Optimus — a reproduction of *"Optimus: An Efficient Dynamic Resource
//! Scheduler for Deep Learning Clusters"* (Peng et al., EuroSys 2018).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`fitting`] — NNLS, loss-curve and linear-model fitting (§3),
//! * [`cluster`] — servers, resources, the 13-server testbed (§6.1),
//! * [`workload`] — the Table-1 model zoo, loss curves, arrivals,
//! * [`ps`] — the parameter-server execution model (Eqn 2, §5),
//! * [`core`] — the Optimus scheduler and the DRF/Tetris baselines (§4),
//! * [`simulator`] — the discrete-time cluster simulator (§6),
//! * [`orchestrator`] — a Kubernetes-like mini control plane (§5.5),
//! * [`bridge`] — run the simulator *through* the control plane
//!   (scheduler pod, pods, kubelets) instead of calling the scheduler
//!   directly.
//!
//! # Examples
//!
//! ```
//! use optimus::prelude::*;
//!
//! // Simulate three jobs on the paper's testbed under Optimus.
//! let jobs = WorkloadGenerator::new(ArrivalProcess::paper_default(3), 7).generate();
//! let mut sim = Simulation::new(
//!     Cluster::paper_testbed(),
//!     jobs,
//!     Box::new(OptimusScheduler::build()),
//!     SimConfig {
//!         max_time_s: 150_000.0,
//!         ..SimConfig::default()
//!     },
//! );
//! let report = sim.run();
//! assert_eq!(report.unfinished_jobs, 0);
//! ```

pub mod bridge;
pub mod ledger;
pub mod timeline;

pub use optimus_cluster as cluster;
pub use optimus_core as core;
pub use optimus_fitting as fitting;
pub use optimus_orchestrator as orchestrator;
pub use optimus_ps as ps;
pub use optimus_simulator as simulator;
pub use optimus_telemetry as telemetry;
pub use optimus_workload as workload;

/// The most common imports for examples and downstream users.
pub mod prelude {
    pub use optimus_cluster::{Cluster, ResourceKind, ResourceVec, ServerId};
    pub use optimus_core::prelude::*;
    pub use optimus_fitting::{LossCurveFitter, LossModel};
    pub use optimus_ps::{EnvFactors, PsAssignment, PsJobModel, TaskCounts};
    pub use optimus_simulator::{
        AssignmentPolicy, ErrorInjection, JctBreakdown, SimConfig, SimReport, Simulation,
    };
    pub use optimus_telemetry::{FlightConfig, FlightLog, Telemetry, TelemetrySummary, TraceEvent};
    pub use optimus_workload::{
        ArrivalProcess, GroundTruthCurve, JobId, JobSpec, ModelKind, TrainingMode,
        WorkloadGenerator,
    };
}
