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
//! (lower is better), recorded with their median and quartiles in the
//! trajectory format of [`optimus_bench::trajectory`], under a host
//! block: `optimus-trace check-bench` compares the newest entry with
//! the latest earlier one from the same host. Beside it each point
//! records the SoA waves one batched refit runs (`waves_per_refit`): a
//! count that moves only with the fitter's lane use, free of timing
//! noise. Grid points with a `dirty` count refit
//! only that many jobs — the rest sit clean in the batch, the shape the
//! dirty-set tracking exists for. The reference is deterministic and
//! only a speedup's numerator, so it is timed over at most
//! `REFERENCE_SAMPLES` samples (recorded as `reference_samples`, their
//! mean as `reference_ns`); its outcome is still checked against the
//! batched one at every point.
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

use optimus_bench::arg_value;
use optimus_bench::host::Host;
use optimus_bench::trajectory::{append_trajectory, Metric};
use optimus_core::{refit_convergence_batch, ConvergenceEstimator};
use optimus_fitting::{BatchScratch, LossCurveFitter, LossModel};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

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

/// Cap on the reference path's timed samples per point: the one-shot
/// fits run tens of times longer than the batched refits, and timing
/// them as often spent nearly all of a long run on the oracle.
const REFERENCE_SAMPLES: u32 = 20;

/// Loss points appended between the warm-up refit and the timed refit —
/// one scheduling interval's worth of observations.
const INTERVAL_SAMPLES: usize = 10;

/// One timed grid point: `jobs=J history=H`, plus `dirty=D` when only
/// `D` jobs gained samples since the warm-up fit.
#[derive(Serialize)]
struct PointRecord {
    key: String,
    /// Mean of the reference path's samples, ns.
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
    samples: u32,
    host: Host,
    /// Timed samples of the reference path: `samples`, capped at
    /// `REFERENCE_SAMPLES`.
    reference_samples: u32,
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

/// Builds one estimator per job, feeds the pre-interval history and
/// refits once so the timed call sees interval-shaped incremental work.
fn warmed_estimators(histories: &[Vec<(u64, f64)>]) -> Vec<ConvergenceEstimator> {
    histories
        .iter()
        .map(|h| {
            let mut est = ConvergenceEstimator::new(0.02, 100, 3);
            let split = h.len() - INTERVAL_SAMPLES;
            for &(k, l) in &h[..split] {
                est.record(k, l);
            }
            let _ = est.refit();
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

/// Times `LossCurveFitter::fit` from scratch on every job's current
/// history, returning mean ns per interval and the fit outcomes.
fn time_reference(
    histories: &[Vec<(u64, f64)>],
    dirty: usize,
    samples: u32,
) -> (u64, Vec<FitBits>) {
    let fitter = LossCurveFitter::new();
    let mut total_ns = 0u128;
    let mut outcomes = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        outcomes = histories
            .iter()
            .enumerate()
            .map(|(i, h)| {
                std::hint::black_box(fitter.fit(current_history(h, i, dirty)))
                    .ok()
                    .as_ref()
                    .map(bits)
            })
            .collect();
        total_ns += start.elapsed().as_nanos();
    }
    ((total_ns / samples.max(1) as u128) as u64, outcomes)
}

/// The batched path at one grid point.
struct Batched {
    /// ns per interval, one entry per sample.
    ns: Vec<f64>,
    /// SoA waves of one refit (the same in every sample).
    waves: u64,
    outcomes: Vec<FitBits>,
}

/// Appends the interval's samples to the first `dirty` warmed
/// estimators and times the resulting batched refit sweep, once per
/// sample.
fn time_batched(histories: &[Vec<(u64, f64)>], dirty: usize, samples: u32) -> Batched {
    // One serial worker whose scratch stays warm across samples, as the
    // simulator keeps it across rounds.
    let mut scratch = [BatchScratch::new()];
    let mut ns = Vec::new();
    let mut waves = 0;
    let mut outcomes = Vec::new();
    for _ in 0..samples {
        let mut ests = warmed_estimators(histories);
        for (est, h) in ests.iter_mut().zip(histories).take(dirty) {
            for &(k, l) in &h[h.len() - INTERVAL_SAMPLES..] {
                est.record(k, l);
            }
        }
        let mut refs: Vec<&mut ConvergenceEstimator> = ests.iter_mut().collect();
        let before = scratch[0].waves();
        let start = Instant::now();
        let fits = std::hint::black_box(refit_convergence_batch(&mut refs, &mut scratch));
        ns.push(start.elapsed().as_nanos() as f64);
        waves = scratch[0].waves() - before;
        outcomes = fits.iter().map(|r| r.as_ref().ok().map(bits)).collect();
    }
    Batched {
        ns,
        waves,
        outcomes,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "bench_fit — per-interval convergence-refit timing trajectory\n\n\
             USAGE: bench_fit [--samples N] [--label STR] [--out FILE] [--ledger DIR]\n\
             \x20                [--points J,J,...]"
        );
        return ExitCode::SUCCESS;
    }
    let samples: u32 = match arg_value(&args, "--samples").map(|v| v.parse()) {
        None => 5,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: --samples expects an integer");
            return ExitCode::FAILURE;
        }
    };
    let samples = samples.max(1);
    let reference_samples = samples.min(REFERENCE_SAMPLES);
    let label = arg_value(&args, "--label").unwrap_or_else(|| "current".into());
    let out = arg_value(&args, "--out");
    let points_filter: Option<Vec<usize>> = match arg_value(&args, "--points") {
        None => None,
        Some(raw) => {
            let parsed: Result<Vec<usize>, _> = raw.split(',').map(|p| p.trim().parse()).collect();
            match parsed {
                Ok(v) => Some(v),
                Err(_) => {
                    eprintln!("error: --points expects a comma-separated list of job counts");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    println!(
        "bench_fit: {samples} samples per point, {reference_samples} of the reference \
         (label: {label})\n"
    );
    println!(
        "{:>8} {:>9} {:>7} {:>14} {:>11} {:>22} {:>9} {:>9}",
        "jobs", "history", "dirty", "reference ms", "median ms", "[q1, q3] ms", "speedup", "waves"
    );
    let mut points = Vec::new();
    for &(jobs, hist_len, dirty) in &POINTS {
        if let Some(filter) = &points_filter {
            if !filter.contains(&jobs) {
                continue;
            }
        }
        let dirty_jobs = dirty.unwrap_or(jobs);
        let histories: Vec<Vec<(u64, f64)>> = (0..jobs)
            .map(|i| history(0x9E37_79B9 + i as u64, hist_len))
            .collect();
        let (ref_ns, ref_fits) = time_reference(&histories, dirty_jobs, reference_samples);
        let batched = time_batched(&histories, dirty_jobs, samples);
        // The batched path must be a pure optimization: identical bits.
        assert_eq!(
            ref_fits, batched.outcomes,
            "batched path diverged from reference at {jobs} jobs x {hist_len} history"
        );
        let metric = Metric::new("batched_ns", false, "ns", batched.ns);
        let speedup = ref_ns as f64 / metric.median.max(1.0);
        println!(
            "{jobs:>8} {hist_len:>9} {dirty_jobs:>7} {:>14.3} {:>11.3} {:>22} {speedup:>8.2}x {:>9}",
            ref_ns as f64 / 1e6,
            metric.median / 1e6,
            format!("[{:.3}, {:.3}]", metric.q1 / 1e6, metric.q3 / 1e6),
            batched.waves,
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

    let entry = BenchEntry {
        label: label.clone(),
        source: "bench_fit",
        samples,
        host: Host::probe(),
        reference_samples,
        interval_samples: INTERVAL_SAMPLES,
        points,
    };

    if let Some(path) = out {
        if let Err(e) = append_trajectory(&path, &entry) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nappended entry '{label}' to {path}");
    }

    if let Some(dir) = arg_value(&args, "--ledger") {
        use optimus_telemetry::ledger::RunLedger;
        use serde_json::Value;
        let config = Value::Object(vec![
            ("samples".into(), Value::Num(samples as f64)),
            (
                "reference_samples".into(),
                Value::Num(reference_samples as f64),
            ),
            (
                "interval_samples".into(),
                Value::Num(INTERVAL_SAMPLES as f64),
            ),
            (
                "points".into(),
                Value::Array(
                    POINTS
                        .iter()
                        .map(|&(j, h, d)| {
                            Value::Array(vec![
                                Value::Num(j as f64),
                                Value::Num(h as f64),
                                d.map(|d| Value::Num(d as f64)).unwrap_or(Value::Null),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut ledger = RunLedger::new("bench_fit", &label)
            .threads(optimus_bench::available_threads())
            .config(config);
        ledger.add_artifact(
            "entry.json",
            serde_json::to_string_pretty(&entry).expect("entry serializes") + "\n",
        );
        match ledger.write(std::path::Path::new(&dir)) {
            Ok(path) => println!("run ledger written to {}", path.display()),
            Err(e) => {
                eprintln!("error: {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
