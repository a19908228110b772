//! `bench_fit` — records the per-interval refit-time trajectory.
//!
//! Every scheduling interval the simulator refits one convergence model
//! per active job from its full observed loss history. This bench times
//! that interval-shaped workload — all jobs refit once after a batch of
//! new loss points arrives — through two paths:
//!
//! * **reference** — `LossCurveFitter::fit` from scratch on every job's
//!   current history,
//! * **batched** — the production SoA engine (`refit_convergence_batch`):
//!   dirty jobs gathered into lane groups, one wave-synchronized β₂
//!   grid scan per group, clean jobs replaying their cached fit.
//!
//! Both must produce identical coefficient bits (asserted). The
//! batched path's per-sample times are the gated metric `batched_ns`
//! (lower is better; a sample is the mean of the refits it groups),
//! recorded with their median and quartiles in the
//! trajectory format of [`optimus_bench::trajectory`], under a host
//! block: `optimus-trace check-bench` compares the newest entry with
//! the latest earlier one from the same host. Beside it each point
//! records the SoA waves one batched refit runs (`waves_per_refit`): a
//! count that moves only with the fitter's lane use, free of timing
//! noise. Grid points with a `dirty` count refit
//! only that many jobs — the rest sit clean in the batch, the shape the
//! dirty-set tracking exists for. The reference is deterministic and
//! only a speedup's numerator, so it runs once per point: that one
//! pass is both the timing recorded as `reference_ns` and the outcome
//! checked against the batched one. Last it prints the process's peak
//! resident set (`VmHWM`): with `--points 5000` that is the 5000 warm
//! estimators and their histories. The entry does not record it.
//!
//! ```text
//! bench_fit [--samples N] [--label STR] [--out FILE] [--points J,J,...]
//! ```
//!
//! With `--out`, the file is read (it must hold a JSON array, or not
//! exist), the new entry is appended, and the array is rewritten —
//! existing entries are never modified. `--points` keeps only the grid
//! points whose job count is in the comma-separated list (CI smokes the
//! 5000-job point alone).
//!
//! Each point works out its batched sample count from its own cost.
//! `--samples` is a floor: after every point's reference timing and an
//! untimed warm-up refit, the points take batched samples in turn until
//! the sampling has run for `POINT_BUDGET` per point, so each point's
//! median and quartiles span the whole sampling phase rather than the
//! few milliseconds five samples of a small point take, and a spell of
//! host load moves few of them. A sample is the mean of as many refits
//! as the warm-up's cost (estimators built, then refitted) fits in
//! `SAMPLE_TIME`, which keeps every point's recorded values to a few
//! tens.

use optimus_bench::cli::Bench;
use optimus_bench::host::Host;
use optimus_bench::trajectory::Metric;
use optimus_core::{refit_convergence_batch, ConvergenceEstimator};
use optimus_fitting::{BatchScratch, LossCurveFitter, LossModel};
use serde::Serialize;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The acceptance grid: (jobs, history length in loss samples, dirty
/// jobs). `None` refits every job — the legacy all-dirty shape. The
/// one- and two-job points at 400 samples (the simulator's fit-point
/// cap) are the small lane groups most simulated rounds refit; the
/// eight-job point is one full group.
const POINTS: [(usize, usize, Option<usize>); 8] = [
    (1, 400, None),
    (2, 400, None),
    (8, 400, None),
    (100, 100, None),
    (500, 250, None),
    (1_000, 500, None),
    (5_000, 500, None),
    (1_000, 500, Some(100)),
];

/// Least wall time of the batched sampling per grid point run, the
/// untimed estimator builds included.
const POINT_BUDGET: Duration = Duration::from_secs(4);

/// Least wall time of one batched sample, its estimator builds
/// included.
const SAMPLE_TIME: Duration = Duration::from_millis(50);

/// Loss points appended between the warm-up refit and the timed refit —
/// one scheduling interval's worth of observations.
const INTERVAL_SAMPLES: usize = 10;

/// One timed grid point: `jobs=J history=H`, plus `dirty=D` when only
/// `D` jobs gained samples since the warm-up fit.
#[derive(Serialize)]
struct PointRecord {
    key: String,
    /// The reference path's one timed pass, ns.
    reference_ns: u64,
    /// SoA waves of one batched refit.
    waves_per_refit: u64,
    /// `reference_ns` over the batched median.
    speedup: f64,
    /// `batched_ns`: the batched SoA path, one value per sample.
    metrics: Vec<Metric>,
}

/// One appended trajectory entry.
#[derive(Serialize)]
struct BenchEntry {
    label: String,
    source: &'static str,
    /// `--samples`: the fewest batched samples a point took.
    samples: u32,
    host: Host,
    interval_samples: usize,
    points: Vec<PointRecord>,
}

/// Deterministic pseudo-random f64 in [0, 1) from an xorshift state.
fn next_unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % 1_000_000) as f64 / 1_000_000.0
}

/// A job's synthetic loss history: planted 1/(β₀k+β₁)+β₂ curve with
/// multiplicative jitter and occasional spikes, like real observations.
fn history(seed: u64, n: usize) -> Vec<(u64, f64)> {
    let mut state = seed | 1;
    let beta0 = 0.01 + next_unit(&mut state) * 0.4;
    let beta1 = 0.5 + next_unit(&mut state) * 2.0;
    let beta2 = next_unit(&mut state) * 0.3;
    (0..n)
        .map(|k| {
            let base = 1.0 / (beta0 * k as f64 + beta1) + beta2;
            let jitter = 1.0 + (next_unit(&mut state) - 0.5) * 0.05;
            let l = if next_unit(&mut state) < 0.01 {
                base * 20.0
            } else {
                base * jitter
            };
            (k as u64, l)
        })
        .collect()
}

/// The state every timed refit starts from: one estimator per job, fed
/// the pre-interval history and refitted once, then given the
/// interval's samples if it is one of the first `dirty` jobs, so the
/// timed call sees interval-shaped incremental work.
fn interval_estimators(histories: &[Vec<(u64, f64)>], dirty: usize) -> Vec<ConvergenceEstimator> {
    histories
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let mut est = ConvergenceEstimator::new(0.02, 100, 3);
            let split = h.len() - INTERVAL_SAMPLES;
            for &(k, l) in &h[..split] {
                est.record(k, l);
            }
            let _ = est.refit();
            if i < dirty {
                for &(k, l) in &h[split..] {
                    est.record(k, l);
                }
            }
            est
        })
        .collect()
}

/// Per-job fit outcome, as coefficient bit patterns (β₀, β₁, β₂), for
/// the reference-vs-batched cross-check. `None` = the fit failed.
type FitBits = Option<(u64, u64, u64)>;

fn bits(m: &LossModel) -> (u64, u64, u64) {
    (m.beta0.to_bits(), m.beta1.to_bits(), m.beta2.to_bits())
}

/// Job `i`'s history at the timed refit: the interval's samples have
/// arrived for the first `dirty` jobs only.
fn current_history(h: &[(u64, f64)], i: usize, dirty: usize) -> &[(u64, f64)] {
    if i < dirty {
        h
    } else {
        &h[..h.len() - INTERVAL_SAMPLES]
    }
}

/// Times one pass of `LossCurveFitter::fit` from scratch on every
/// job's current history, returning its ns and the fit outcomes.
fn time_reference(histories: &[Vec<(u64, f64)>], dirty: usize) -> (u64, Vec<FitBits>) {
    let fitter = LossCurveFitter::new();
    let start = Instant::now();
    let outcomes = histories
        .iter()
        .enumerate()
        .map(|(i, h)| {
            std::hint::black_box(fitter.fit(current_history(h, i, dirty)))
                .ok()
                .as_ref()
                .map(bits)
        })
        .collect();
    (start.elapsed().as_nanos() as u64, outcomes)
}

/// The batched path at one grid point.
struct Batched {
    histories: Vec<Vec<(u64, f64)>>,
    dirty: usize,
    /// One serial worker whose scratch stays warm across samples, as the
    /// simulator keeps it across rounds.
    scratch: [BatchScratch; 1],
    /// Refits one sample averages: as many as the warm-up (estimators
    /// built, then refitted) says fit in `SAMPLE_TIME`.
    refits: usize,
    /// SoA waves of one refit (the same in every refit).
    waves: u64,
    outcomes: Vec<FitBits>,
    /// Mean ns per interval, one entry per sample.
    ns: Vec<f64>,
}

impl Batched {
    /// Runs the untimed warm-up refit of the first `dirty` of the jobs
    /// with these `histories`.
    fn new(histories: Vec<Vec<(u64, f64)>>, dirty: usize) -> Batched {
        let mut batched = Batched {
            histories,
            dirty,
            scratch: [BatchScratch::new()],
            refits: 0,
            waves: 0,
            outcomes: Vec::new(),
            ns: Vec::new(),
        };
        let warm_up = Instant::now();
        let (_, waves, outcomes) = batched.refit();
        let refits = SAMPLE_TIME.as_secs_f64() / warm_up.elapsed().as_secs_f64();
        Batched {
            refits: refits.ceil() as usize,
            waves,
            outcomes,
            ..batched
        }
    }

    /// Times one batched refit sweep of freshly built interval
    /// estimators: its ns, SoA waves and outcomes.
    fn refit(&mut self) -> (f64, u64, Vec<FitBits>) {
        let mut ests = interval_estimators(&self.histories, self.dirty);
        let mut refs: Vec<&mut ConvergenceEstimator> = ests.iter_mut().collect();
        let before = self.scratch[0].waves();
        let start = Instant::now();
        let fits = std::hint::black_box(refit_convergence_batch(&mut refs, &mut self.scratch));
        let ns = start.elapsed().as_nanos() as f64;
        let outcomes = fits.iter().map(|r| r.as_ref().ok().map(bits)).collect();
        (ns, self.scratch[0].waves() - before, outcomes)
    }

    /// Takes one sample: the mean of `refits` timed refits.
    fn sample(&mut self) {
        let total: f64 = (0..self.refits).map(|_| self.refit().0).sum();
        self.ns.push(total / self.refits as f64);
    }
}

const USAGE: &str = "\
bench_fit — per-interval convergence-refit timing trajectory

USAGE: bench_fit [--samples N] [--label STR] [--out FILE] [--points J,J,...]

  --samples N    least batched samples per point       (default 5)
  --label STR    label of the recorded entry           (default current)
  --out FILE     append the entry to this trajectory file
  --points LIST  grid points to run (job counts, comma-separated;
                 default: all)

An unknown flag, a flag with no value and a job count no grid point has
are errors (exit 2).
";

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`),
/// MB; `None` where the kernel does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let bench = match Bench::parse("bench_fit", USAGE, &[], &[], 5, &POINTS.map(|p| p.0)) {
        Ok(bench) => bench,
        Err(code) => return code,
    };
    let (samples, label) = (bench.samples, &bench.label);

    println!(
        "bench_fit: at least {samples} samples per point, one of the reference \
         (label: {label})\n"
    );
    println!(
        "{:>8} {:>9} {:>7} {:>14} {:>11} {:>22} {:>9} {:>9} {:>8}",
        "jobs",
        "history",
        "dirty",
        "reference ms",
        "median ms",
        "[q1, q3] ms",
        "speedup",
        "waves",
        "samples"
    );
    let grid: Vec<(usize, usize, Option<usize>)> =
        POINTS.into_iter().filter(|p| bench.keeps(p.0)).collect();
    let mut runs: Vec<(u64, Batched)> = grid
        .iter()
        .map(|&(jobs, hist_len, dirty)| {
            let dirty_jobs = dirty.unwrap_or(jobs);
            let histories: Vec<Vec<(u64, f64)>> = (0..jobs)
                .map(|i| history(0x9E37_79B9 + i as u64, hist_len))
                .collect();
            let (ref_ns, ref_fits) = time_reference(&histories, dirty_jobs);
            let batched = Batched::new(histories, dirty_jobs);
            // The batched path must be a pure optimization: identical bits.
            assert_eq!(
                ref_fits, batched.outcomes,
                "batched path diverged from reference at {jobs} jobs x {hist_len} history"
            );
            (ref_ns, batched)
        })
        .collect();
    // The points take their samples in turn, so each point's samples
    // spread over the whole sampling phase and a spell of host load
    // touches every point a little instead of one point a lot.
    let start = Instant::now();
    let budget = POINT_BUDGET * runs.len() as u32;
    while runs.iter().any(|(_, b)| b.ns.len() < samples as usize) || start.elapsed() < budget {
        for (_, batched) in &mut runs {
            batched.sample();
        }
    }

    let mut points = Vec::new();
    for (&(jobs, hist_len, dirty), (ref_ns, batched)) in grid.iter().zip(runs) {
        let dirty_jobs = dirty.unwrap_or(jobs);
        let metric = Metric::new("batched_ns", false, "ns", batched.ns);
        let speedup = ref_ns as f64 / metric.median.max(1.0);
        println!(
            "{jobs:>8} {hist_len:>9} {dirty_jobs:>7} {:>14.3} {:>11.3} {:>22} {speedup:>8.2}x {:>9} {:>8}",
            ref_ns as f64 / 1e6,
            metric.median / 1e6,
            format!("[{:.3}, {:.3}]", metric.q1 / 1e6, metric.q3 / 1e6),
            batched.waves,
            metric.values.len(),
        );
        let mut key = format!("jobs={jobs} history={hist_len}");
        if let Some(d) = dirty {
            key += &format!(" dirty={d}");
        }
        points.push(PointRecord {
            key,
            reference_ns: ref_ns,
            waves_per_refit: batched.waves,
            speedup,
            metrics: vec![metric],
        });
    }

    // Every estimator of every point is still live here, so this is
    // what the warm estimators of the largest point hold.
    match peak_rss_mb() {
        Some(mb) => println!("\npeak RSS (VmHWM): {mb:.1} MB"),
        None => println!("\npeak RSS (VmHWM): unavailable"),
    }
    bench.record(&BenchEntry {
        label: label.clone(),
        source: "bench_fit",
        samples,
        host: Host::probe(),
        interval_samples: INTERVAL_SAMPLES,
        points,
    })
}
