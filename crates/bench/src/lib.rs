//! Shared harness for the per-figure experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md for the full index). This library
//! holds what they share: scheduler/assignment bundles, the multi-seed
//! comparison runner behind Figs 11/13/16/17/18/19, the synthetic
//! Fig-12 job population, and plain-text table/series printers (plus
//! JSON lines for machine consumption). It also owns the `BENCH_*.json`
//! trajectory format ([`trajectory`]) and the one command-line parser
//! of every tool ([`cli`]), and compiles the end-to-end
//! benchmark's host fingerprint, order statistics and median/quartile
//! verdict ([`host`], [`stats`], [`compare`]) from that package's own
//! files: the benchmark builds from its own directory and cannot depend
//! on this crate, so the `bench_*` trajectories and
//! `optimus-trace check-bench` share its judge this way.

pub mod cli;
#[path = "bin/benchmark/compare.rs"]
pub mod compare;
#[allow(rustdoc::private_intra_doc_links)]
#[path = "bin/benchmark/host.rs"]
pub mod host;
#[allow(rustdoc::private_intra_doc_links)]
#[path = "bin/benchmark/stats.rs"]
pub mod stats;
pub mod trajectory;

use optimus_cluster::Cluster;
use optimus_core::allocation::{DrfAllocator, FifoAllocator, OptimusAllocator, TetrisAllocator};
use optimus_core::placement::{OptimusPlacer, PackPlacer, SpreadPlacer};
use optimus_core::prelude::*;
use optimus_fitting::stats::{mean, std_dev};
use optimus_ps::PsJobModel;
use optimus_simulator::{AssignmentPolicy, SimConfig, SimReport, Simulation};
use optimus_telemetry::Telemetry;
use optimus_workload::arrivals::ModePolicy;
use optimus_workload::job::default_container;
use optimus_workload::{ArrivalProcess, JobId, ModelKind, TrainingMode, WorkloadGenerator};
use serde::Serialize;

/// A scheduler under test, with the §5.3 PS-assignment policy its
/// deployment would use (Optimus ships PAA; the baselines run stock
/// MXNet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerChoice {
    /// Full Optimus (marginal-gain allocation + Theorem-1 placement +
    /// PAA).
    Optimus,
    /// Optimus with an explicit §4.1 priority factor.
    OptimusWithPriority(f64),
    /// The DRF fairness baseline (progressive filling + spreading +
    /// stock MXNet).
    Drf,
    /// The Tetris baseline (packing/SRTF + best-fit + stock MXNet).
    Tetris,
    /// The FIFO baseline (§2.3's Spark-style default: full requests in
    /// submission order, head-of-line blocking).
    Fifo,
    /// Fig 18 ablations: a baseline *allocator* with Optimus placement
    /// and PAA.
    DrfAllocOptimusPlace,
    /// Fig 18: Tetris allocator with Optimus placement and PAA.
    TetrisAllocOptimusPlace,
    /// Fig 19 ablations: Optimus allocation with a baseline placer.
    OptimusAllocSpreadPlace,
    /// Fig 19: Optimus allocation with Tetris packing placement.
    OptimusAllocPackPlace,
}

impl SchedulerChoice {
    /// Display name used in reports.
    pub fn name(self) -> String {
        match self {
            SchedulerChoice::Optimus => "Optimus".into(),
            SchedulerChoice::OptimusWithPriority(f) => format!("Optimus(pf={f})"),
            SchedulerChoice::Drf => "DRF".into(),
            SchedulerChoice::Tetris => "Tetris".into(),
            SchedulerChoice::Fifo => "FIFO".into(),
            SchedulerChoice::DrfAllocOptimusPlace => "DRF-alloc+Opt-place".into(),
            SchedulerChoice::TetrisAllocOptimusPlace => "Tetris-alloc+Opt-place".into(),
            SchedulerChoice::OptimusAllocSpreadPlace => "Opt-alloc+Spread-place".into(),
            SchedulerChoice::OptimusAllocPackPlace => "Opt-alloc+Pack-place".into(),
        }
    }

    /// Builds the scheduler with `tel` wired through it: Optimus
    /// through its allocator, placer and composite
    /// ([`OptimusScheduler::build_with_telemetry`]), the others through
    /// the composite.
    pub fn build_with_telemetry(self, tel: Telemetry) -> CompositeScheduler {
        match self {
            SchedulerChoice::Optimus => OptimusScheduler::build_with_telemetry(tel),
            other => other.build().with_telemetry(tel),
        }
    }

    /// Builds the scheduler.
    pub fn build(self) -> CompositeScheduler {
        match self {
            SchedulerChoice::Optimus => OptimusScheduler::build(),
            SchedulerChoice::OptimusWithPriority(f) => OptimusScheduler::with_priority_factor(f),
            SchedulerChoice::Drf => DrfScheduler::build(),
            SchedulerChoice::Tetris => TetrisScheduler::build(),
            SchedulerChoice::Fifo => CompositeScheduler::new(
                self.name(),
                Box::new(FifoAllocator),
                Box::new(SpreadPlacer),
            ),
            SchedulerChoice::DrfAllocOptimusPlace => CompositeScheduler::new(
                self.name(),
                Box::new(DrfAllocator::default()),
                Box::new(OptimusPlacer::default()),
            ),
            SchedulerChoice::TetrisAllocOptimusPlace => CompositeScheduler::new(
                self.name(),
                Box::new(TetrisAllocator::default()),
                Box::new(OptimusPlacer::default()),
            ),
            SchedulerChoice::OptimusAllocSpreadPlace => CompositeScheduler::new(
                self.name(),
                Box::new(OptimusAllocator::default()),
                Box::new(SpreadPlacer),
            ),
            SchedulerChoice::OptimusAllocPackPlace => CompositeScheduler::new(
                self.name(),
                Box::new(OptimusAllocator::default()),
                Box::new(PackPlacer),
            ),
        }
    }

    /// The PS parameter-assignment policy this deployment runs with.
    pub fn assignment(self) -> AssignmentPolicy {
        match self {
            SchedulerChoice::Drf | SchedulerChoice::Tetris | SchedulerChoice::Fifo => {
                AssignmentPolicy::MxnetDefault
            }
            _ => AssignmentPolicy::Paa,
        }
    }
}

/// The four schedulers a command line names: `optimus`, `drf`, `tetris`
/// and `fifo`.
impl std::str::FromStr for SchedulerChoice {
    type Err = &'static str;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name {
            "optimus" => Ok(SchedulerChoice::Optimus),
            "drf" => Ok(SchedulerChoice::Drf),
            "tetris" => Ok(SchedulerChoice::Tetris),
            "fifo" => Ok(SchedulerChoice::Fifo),
            _ => Err("unknown scheduler; known: optimus, drf, tetris, fifo"),
        }
    }
}

/// Parameters of a multi-seed comparison experiment.
#[derive(Debug, Clone)]
pub struct ComparisonSpec {
    /// Arrival process (job count lives inside).
    pub arrivals: ArrivalProcess,
    /// Training-mode policy.
    pub mode_policy: ModePolicy,
    /// Median target job duration (see `WorkloadGenerator`).
    pub target_job_seconds: Option<f64>,
    /// Seeds; results are averaged (Fig 13 reports avg ± std over 3
    /// runs).
    pub seeds: Vec<u64>,
    /// Extra config overrides applied to every run.
    pub base_config: SimConfig,
}

impl Default for ComparisonSpec {
    /// The §6.1 headline setup: 9 jobs uniform over [0, 12000] s, random
    /// modes, 3 repetitions.
    fn default() -> Self {
        ComparisonSpec {
            arrivals: ArrivalProcess::paper_default(9),
            mode_policy: ModePolicy::Random,
            target_job_seconds: Some(7_200.0),
            seeds: vec![17, 23, 31],
            base_config: SimConfig::default(),
        }
    }
}

/// Aggregated result of one scheduler across seeds.
#[derive(Debug, Clone, Serialize)]
pub struct SchedulerResult {
    /// Scheduler name.
    pub scheduler: String,
    /// Mean average-JCT across seeds, seconds.
    pub avg_jct: f64,
    /// Std-dev of average-JCT across seeds.
    pub std_jct: f64,
    /// Mean median JCT across seeds, seconds.
    pub p50_jct: f64,
    /// Mean 95th-percentile JCT across seeds, seconds (tail latency the
    /// mean hides).
    pub p95_jct: f64,
    /// Mean makespan across seeds, seconds.
    pub makespan: f64,
    /// Std-dev of makespan across seeds.
    pub std_makespan: f64,
    /// Mean scaling-overhead fraction of makespan.
    pub overhead_fraction: f64,
    /// Mean running tasks over time.
    pub mean_tasks: f64,
    /// Mean normalized worker CPU utilization.
    pub worker_utilization: f64,
    /// Mean normalized PS CPU utilization.
    pub ps_utilization: f64,
    /// Unfinished jobs across all seeds (should be 0).
    pub unfinished: usize,
}

// ---------------------------------------------------------------------
// Synthetic Fig-12 population
// ---------------------------------------------------------------------

/// Builds `n` synthetic job views for the Fig-12 scheduling-decision
/// harnesses (`fig12_scalability`, `bench_sched`). Job `i` cycles
/// through speed models fitted once on six profiled configurations of
/// ResNet-50, Seq2Seq and CNN-rand (synchronous then asynchronous per
/// model), with deterministic remaining work and progress. `sync_only`
/// keeps only the saturating synchronous-mode curves.
///
/// `BENCH_sched.json`'s history and `results/fig12_scalability.txt`'s
/// task counts are comparable only while this population stays
/// bit-for-bit the same.
pub fn synthetic_views(n: usize, sync_only: bool) -> Vec<JobView> {
    let modes: &[TrainingMode] = if sync_only {
        &[TrainingMode::Synchronous]
    } else {
        &[TrainingMode::Synchronous, TrainingMode::Asynchronous]
    };
    let mut base = Vec::new();
    for kind in [ModelKind::ResNet50, ModelKind::Seq2Seq, ModelKind::CnnRand] {
        for &mode in modes {
            let profile = kind.profile();
            let truth = PsJobModel::new(profile, mode);
            let mut m = SpeedModel::new(mode, profile.batch_size as f64);
            for (p, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4)] {
                m.record(p, w, truth.speed(p, w));
            }
            m.refit().expect("profiled");
            base.push(m);
        }
    }
    (0..n)
        .map(|i| JobView {
            id: JobId(i as u64),
            worker_profile: default_container(),
            ps_profile: default_container(),
            remaining_work: 1_000.0 + (i % 97) as f64 * 650.0,
            speed: base[i % base.len()].clone(),
            progress: (i % 10) as f64 / 10.0,
            requested_units: 8,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Parallel sweep runner
// ---------------------------------------------------------------------

/// Re-exported from [`optimus_parallel`], where the deterministic
/// order-indexed runners now live so the simulator's refit path can
/// share them (this crate depends on the simulator, so they cannot
/// stay here). Kept as re-exports for the experiment binaries.
pub use optimus_parallel::{available_threads, run_indexed};

/// Runs every `scheduler × seed` cell of the spec across `threads`
/// workers and aggregates per scheduler, preserving the order of
/// `choices`. Output is identical to calling [`run_scheduler`] per
/// choice serially.
pub fn run_schedulers_parallel(
    spec: &ComparisonSpec,
    choices: &[SchedulerChoice],
    threads: usize,
) -> Vec<SchedulerResult> {
    let cells: Vec<(SchedulerChoice, u64)> = choices
        .iter()
        .flat_map(|&c| spec.seeds.iter().map(move |&s| (c, s)))
        .collect();
    let reports = run_indexed(&cells, threads, |_, &(choice, seed)| {
        run_one(spec, choice, seed)
    });
    let per = spec.seeds.len();
    choices
        .iter()
        .enumerate()
        .map(|(i, &c)| aggregate(c.name(), &reports[i * per..(i + 1) * per]))
        .collect()
}

/// Runs one scheduler across the spec's seeds and aggregates.
pub fn run_scheduler(spec: &ComparisonSpec, choice: SchedulerChoice) -> SchedulerResult {
    let reports: Vec<SimReport> = spec
        .seeds
        .iter()
        .map(|&seed| run_one(spec, choice, seed))
        .collect();
    aggregate(choice.name(), &reports)
}

/// Runs one scheduler on one seed, honoring every override in
/// `spec.base_config` (alias of [`run_one`], kept for call sites that
/// want to emphasize the overrides).
pub fn run_one_with(spec: &ComparisonSpec, choice: SchedulerChoice, seed: u64) -> SimReport {
    run_one(spec, choice, seed)
}

/// Runs one scheduler on one seed.
pub fn run_one(spec: &ComparisonSpec, choice: SchedulerChoice, seed: u64) -> SimReport {
    let jobs = WorkloadGenerator::new(spec.arrivals, seed)
        .with_mode_policy(spec.mode_policy)
        .with_target_job_seconds(spec.target_job_seconds)
        .generate();
    let mut cfg = spec.base_config.clone();
    cfg.seed = seed;
    cfg.assignment = choice.assignment();
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        jobs,
        Box::new(choice.build()),
        cfg,
    );
    sim.run()
}

/// Aggregates multiple seed reports into one row.
pub fn aggregate(name: String, reports: &[SimReport]) -> SchedulerResult {
    let jcts: Vec<f64> = reports.iter().map(|r| r.avg_jct()).collect();
    let makespans: Vec<f64> = reports.iter().map(|r| r.makespan).collect();
    SchedulerResult {
        scheduler: name,
        avg_jct: mean(&jcts),
        std_jct: std_dev(&jcts),
        p50_jct: mean(&reports.iter().map(|r| r.p50_jct()).collect::<Vec<_>>()),
        p95_jct: mean(&reports.iter().map(|r| r.p95_jct()).collect::<Vec<_>>()),
        makespan: mean(&makespans),
        std_makespan: std_dev(&makespans),
        overhead_fraction: mean(
            &reports
                .iter()
                .map(|r| r.scaling_overhead_fraction())
                .collect::<Vec<_>>(),
        ),
        mean_tasks: mean(
            &reports
                .iter()
                .map(|r| r.mean_running_tasks())
                .collect::<Vec<_>>(),
        ),
        worker_utilization: mean(
            &reports
                .iter()
                .map(|r| r.mean_worker_utilization())
                .collect::<Vec<_>>(),
        ),
        ps_utilization: mean(
            &reports
                .iter()
                .map(|r| r.mean_ps_utilization())
                .collect::<Vec<_>>(),
        ),
        unfinished: reports.iter().map(|r| r.unfinished_jobs).sum(),
    }
}

/// Prints the standard comparison table, normalized to the first row
/// (the paper's Fig 11 normalizes to Optimus = 1.00).
pub fn print_comparison(title: &str, results: &[SchedulerResult]) {
    println!("== {title} ==");
    println!(
        "{:<24} {:>10} {:>8} {:>9} {:>9} {:>12} {:>8} {:>9} {:>7} {:>7} {:>7}",
        "scheduler",
        "JCT(s)",
        "norm",
        "p50(s)",
        "p95(s)",
        "makespan(s)",
        "norm",
        "ovh%",
        "tasks",
        "w-util",
        "ps-util"
    );
    let base = results.first();
    for r in results {
        let jct_norm = base.map(|b| r.avg_jct / b.avg_jct).unwrap_or(1.0);
        let mk_norm = base.map(|b| r.makespan / b.makespan).unwrap_or(1.0);
        println!(
            "{:<24} {:>10.0} {:>8.2} {:>9.0} {:>9.0} {:>12.0} {:>8.2} {:>9.2} {:>7.1} {:>7.2} {:>7.2}",
            r.scheduler,
            r.avg_jct,
            jct_norm,
            r.p50_jct,
            r.p95_jct,
            r.makespan,
            mk_norm,
            100.0 * r.overhead_fraction,
            r.mean_tasks,
            r.worker_utilization,
            r.ps_utilization,
        );
        if r.unfinished > 0 {
            println!("  !! {} unfinished jobs across seeds", r.unfinished);
        }
    }
    println!();
}

/// Prints one JSON line per result (machine-readable record of the run).
pub fn print_json(experiment: &str, results: &[SchedulerResult]) {
    for r in results {
        let mut v = serde_json::to_value(r).expect("result serializes");
        v["experiment"] = serde_json::Value::String(experiment.to_string());
        println!("{v}");
    }
}

/// Prints an (x, y) series as a compact table.
pub fn print_series(name: &str, xlabel: &str, ylabel: &str, points: &[(f64, f64)]) {
    println!("-- {name} --");
    println!("{xlabel:>12} {ylabel:>14}");
    for (x, y) in points {
        println!("{x:>12.3} {y:>14.5}");
    }
    println!();
}

/// ASCII sparkline for quick shape checks in terminal output.
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    if values.is_empty() || !max.is_finite() || !min.is_finite() {
        return String::new();
    }
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            TICKS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_have_unique_names() {
        let all = [
            SchedulerChoice::Optimus,
            SchedulerChoice::Drf,
            SchedulerChoice::Tetris,
            SchedulerChoice::Fifo,
            SchedulerChoice::DrfAllocOptimusPlace,
            SchedulerChoice::TetrisAllocOptimusPlace,
            SchedulerChoice::OptimusAllocSpreadPlace,
            SchedulerChoice::OptimusAllocPackPlace,
        ];
        let names: std::collections::HashSet<String> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn assignment_policies_match_deployments() {
        assert_eq!(SchedulerChoice::Optimus.assignment(), AssignmentPolicy::Paa);
        assert_eq!(
            SchedulerChoice::Drf.assignment(),
            AssignmentPolicy::MxnetDefault
        );
        assert_eq!(
            SchedulerChoice::Tetris.assignment(),
            AssignmentPolicy::MxnetDefault
        );
        // Ablations isolate one component: everything else stays Optimus.
        assert_eq!(
            SchedulerChoice::DrfAllocOptimusPlace.assignment(),
            AssignmentPolicy::Paa
        );
    }

    #[test]
    fn quick_comparison_smoke() {
        // A tiny 2-job run exercises the full pipeline.
        let spec = ComparisonSpec {
            arrivals: ArrivalProcess::UniformRandom {
                count: 2,
                horizon_s: 1_000.0,
            },
            target_job_seconds: Some(1_200.0),
            seeds: vec![5],
            ..ComparisonSpec::default()
        };
        let r = run_scheduler(&spec, SchedulerChoice::Optimus);
        assert_eq!(r.unfinished, 0);
        assert!(r.avg_jct > 0.0);
        assert!(r.makespan >= r.avg_jct);
        // Percentiles bracket the mean sensibly.
        assert!(r.p50_jct > 0.0);
        assert!(r.p50_jct <= r.p95_jct);
        assert!(r.avg_jct <= r.p95_jct);
    }

    #[test]
    fn run_indexed_preserves_input_order() {
        let cells: Vec<u64> = (0..103).collect();
        let serial = run_indexed(&cells, 1, |i, &c| (i as u64) * 1_000 + c * 3);
        for threads in [2, 4, 8] {
            let parallel = run_indexed(&cells, threads, |i, &c| (i as u64) * 1_000 + c * 3);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn run_indexed_handles_degenerate_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(&empty, 4, |_, &c| c).is_empty());
        assert_eq!(run_indexed(&[7u8], 4, |i, &c| (i, c)), vec![(0, 7)]);
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        // The fig15-style grid path: scheduler × seed cells fanned
        // across workers must reproduce the serial results exactly.
        let spec = ComparisonSpec {
            arrivals: ArrivalProcess::UniformRandom {
                count: 2,
                horizon_s: 1_000.0,
            },
            target_job_seconds: Some(1_200.0),
            seeds: vec![5, 11],
            ..ComparisonSpec::default()
        };
        let choices = [SchedulerChoice::Optimus, SchedulerChoice::Fifo];
        let serial: Vec<SchedulerResult> =
            choices.iter().map(|&c| run_scheduler(&spec, c)).collect();
        let parallel = run_schedulers_parallel(&spec, &choices, 4);
        let dump = |rs: &[SchedulerResult]| {
            rs.iter()
                .map(|r| serde_json::to_string(r).expect("serializes"))
                .collect::<Vec<_>>()
        };
        assert_eq!(dump(&parallel), dump(&serial));
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }
}
