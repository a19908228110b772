#![warn(missing_docs)]

//! Numerical substrate for the Optimus scheduler reproduction.
//!
//! The paper fits two model families with a non-negative least squares
//! (NNLS) solver (it cites SciPy's `nnls`, i.e. Lawson–Hanson):
//!
//! * the training-loss convergence curve `l(k) = 1/(β₀·k + β₁) + β₂`
//!   (Eqn 1, §3.1), and
//! * the resource→speed functions (Eqns 3/4, §3.2), which are linear in
//!   their coefficients after inverting the speed.
//!
//! This crate provides everything needed for both, from scratch:
//!
//! * [`Matrix`] — a small dense row-major matrix with the decompositions
//!   needed for least squares,
//! * [`nnls()`] — Lawson–Hanson active-set non-negative least squares,
//!   and [`nnls_rows`], its allocation-free replay over rows rebuilt on
//!   demand (the speed models' refit),
//! * [`preprocess`] — the paper's outlier removal and loss normalization,
//! * [`loss_curve`] — the convergence-curve model and the one-shot
//!   [`LossCurveFitter::fit`], the oracle [`batch`] is checked against,
//! * [`linfit`] — non-negative linear model fitting on arbitrary feature
//!   maps (the oracle of the speed models' refit in `optimus-core`),
//!   with weighted variants,
//! * [`families`] — §7 pluggable curve families (inverse-k, exponential
//!   decay) with residual-based model selection,
//! * [`stats`] — small statistics helpers shared by the experiment harness,
//! * [`batch`] — the production loss-curve fitter: batched
//!   structure-of-arrays fitting, SIMD across jobs, bit-identical to
//!   [`LossCurveFitter::fit`].

pub mod batch;
pub mod error;
pub mod families;
pub mod linalg;
pub mod linfit;
pub mod loss_curve;
pub mod nnls;
pub mod preprocess;
pub mod stats;

pub use batch::{fit_batch, BatchFitJob, BatchScratch, LANES};
pub use error::FitError;
pub use families::{fit_best, CurveFamily, ExpDecayFamily, FittedCurve, InverseKFamily};
pub use linalg::Matrix;
pub use linfit::{LinearModel, NonNegLinearFit};
pub use loss_curve::{FitSession, LossCurveFitter, LossModel};
pub use nnls::{nnls, nnls_rows, NnlsOptions, NnlsSolution, SmallNnlsSolution};
