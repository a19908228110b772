#![warn(missing_docs)]

//! Optimus: an efficient dynamic resource scheduler for deep-learning
//! clusters (EuroSys 2018) — the core library.
//!
//! Optimus minimizes average job completion time in a shared
//! parameter-server DL cluster by (1) learning, online, how far each job
//! is from convergence and how fast it trains under any resource
//! configuration, and (2) greedily spending cluster resources where they
//! buy the most completion-time reduction per unit of dominant resource.
//!
//! The crate mirrors the paper's structure:
//!
//! * [`convergence`] — §3.1: online loss-curve fitting and
//!   remaining-epoch prediction,
//! * [`speed`] — §3.2: the resource→speed models (Eqns 3/4), fit by NNLS
//!   from sample runs and calibrated online,
//! * [`allocation`] — §4.1: the marginal-gain resource allocator, plus
//!   the DRF and Tetris baseline allocators of §6.1,
//! * [`placement`] — §4.2: the Theorem-1 task placer, plus the
//!   load-balancing (Kubernetes-default) and Tetris-packing baselines,
//! * [`scheduler`] — the allocator × placer composition the simulator
//!   drives every scheduling interval (and the §6.4 ablations mix and
//!   match),
//! * [`reference`](mod@reference) — naive (unoptimized) §4.1/§4.2 implementations kept
//!   as the executable specification the optimized hot path is
//!   property-tested against.
//!
//! # Examples
//!
//! ```
//! use optimus_cluster::Cluster;
//! use optimus_core::prelude::*;
//! use optimus_workload::{JobId, ModelKind, TrainingMode};
//!
//! // Learn a speed model from a few profiled (p, w, speed) samples.
//! let mut speed = SpeedModel::new(TrainingMode::Synchronous, 256.0);
//! for (p, w, f) in [(1, 1, 0.02), (2, 2, 0.05), (4, 4, 0.08), (8, 8, 0.10), (4, 8, 0.09)] {
//!     speed.record(p, w, f);
//! }
//! speed.refit().unwrap();
//!
//! // Ask Optimus to divide the paper's 13-server testbed between jobs.
//! let jobs = vec![JobView {
//!     id: JobId(0),
//!     worker_profile: optimus_workload::job::default_container(),
//!     ps_profile: optimus_workload::job::default_container(),
//!     remaining_work: 5_000.0,
//!     speed: speed.clone(),
//!     progress: 0.5,
//!     requested_units: 4,
//! }];
//! let cluster = Cluster::paper_testbed();
//! let schedule = OptimusScheduler::build().schedule(&jobs, &cluster);
//! assert!(schedule.allocation_for(JobId(0)).unwrap().workers >= 1);
//! ```

pub mod allocation;
pub mod convergence;
pub mod placement;
pub mod reference;
pub mod scheduler;
pub mod speed;

pub use allocation::{
    AllocScratch, Allocation, DrfAllocator, FifoAllocator, OptimusAllocator, ResourceAllocator,
    TetrisAllocator,
};
pub use convergence::{refit_convergence_batch, ConvergenceEstimator};
pub use placement::{
    OptimusPlacer, PackPlacer, PlaceScratch, PlacementStore, SpreadPlacer, TaskPlacer,
};
pub use reference::{ReferenceOptimusAllocator, ReferenceOptimusPlacer};
pub use scheduler::{
    CompositeScheduler, DeltaStats, JobView, RoundDelta, RoundScratch, Schedule, Scheduler,
};
pub use speed::SpeedModel;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::allocation::{
        AllocScratch, Allocation, DrfAllocator, FifoAllocator, OptimusAllocator, ResourceAllocator,
        TetrisAllocator,
    };
    pub use crate::convergence::ConvergenceEstimator;
    pub use crate::placement::{
        OptimusPlacer, PackPlacer, PlaceScratch, PlacementStore, SpreadPlacer, TaskPlacer,
    };
    pub use crate::scheduler::{
        CompositeScheduler, DrfScheduler, JobView, OptimusScheduler, RoundScratch, Schedule,
        Scheduler, TetrisScheduler,
    };
    pub use crate::speed::SpeedModel;
}
