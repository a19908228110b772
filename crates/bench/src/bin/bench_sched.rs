//! `bench_sched` — records the scheduling-decision perf trajectory.
//!
//! Times one full scheduling decision (marginal-gain allocation +
//! Theorem-1 placement) on the synthetic Fig-12 population
//! ([`synthetic_views`]) and appends a labeled entry to a committed
//! JSON file (`BENCH_sched.json` via `just bench-sched`), so every
//! future PR can compare against the recorded history instead of a
//! number in a commit message.
//!
//! ```text
//! bench_sched [--samples N] [--label STR] [--out FILE] [--verify]
//!             [--points LIST] [--churn-jobs LIST] [--ledger DIR]
//! ```
//!
//! Two kinds of grid points:
//!
//! * **Full-round points** (`--points`, default all): the simulator's
//!   steady-state path — a persistent [`RoundScratch`] + [`Schedule`]
//!   driven through `Scheduler::schedule_into`, warmed before sampling
//!   so warm rounds are allocation-free.
//! * **Steady-state churn points** (`--churn-jobs`, default
//!   `1000,10000`, `none` disables): 10 % of the jobs change between
//!   rounds (a deterministic LCG picks which, and jitters their
//!   remaining work) and the round runs through
//!   `Scheduler::schedule_delta` with an exact dirty list — the path a
//!   delta-tracking driver takes. The same mutated state is also timed
//!   through the full path, and both are recorded (keys ending
//!   `path=delta` / `path=full`) so `check-bench` gates each
//!   independently; the speedup ratio is printed. Churn points use
//!   synchronous-mode jobs on a cluster with headroom: saturating speed
//!   curves stop the solo climbs at finite counts, which is the regime
//!   where the delta engine's uncontended certificate holds and grants
//!   replay (asynchronous mixes fill the cluster and fall back to the
//!   full path — correct, but not the steady state this point
//!   measures).
//!
//! Each point records one gated metric, `ns` (one decision, lower is
//! better): every sample's time and their median and quartiles, in the
//! trajectory format of [`optimus_bench::trajectory`]; the entry
//! carries the host block. The table prints the medians.
//! `optimus-trace check-bench` compares the newest entry with the
//! latest earlier one recorded on the same host.
//!
//! With `--out`, the file is read (it must hold a JSON array, or not
//! exist), the new entry is appended, and the array is rewritten —
//! existing entries are never modified.
//!
//! `--verify` runs the naive [`optimus_core::reference`] scheduler once
//! per full-round point, checks every churn sample's delta decision
//! against the full path, and requires the certificate to actually
//! certify (a churn point that silently fell back to the full path
//! every round is a configuration bug, not a win). Exit is non-zero on
//! any divergence.

use optimus_bench::host::Host;
use optimus_bench::stats::median;
use optimus_bench::trajectory::{append_trajectory, Metric};
use optimus_bench::{arg_value, available_threads, run_indexed, synthetic_views};
use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::prelude::*;
use optimus_core::reference::{ReferenceOptimusAllocator, ReferenceOptimusPlacer};
use optimus_core::RoundDelta;
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Full-round points: (jobs, nodes).
const POINTS: [(usize, usize); 4] = [(250, 500), (500, 1_000), (1_000, 2_000), (10_000, 10_000)];

/// Steady-state churn points: (jobs, nodes). Nodes are sized so the
/// synchronous population's natural solo-climb stops leave certificate
/// headroom — the delta path must actually replay, not fall back.
const CHURN_POINTS: [(usize, usize); 2] = [(1_000, 6_000), (10_000, 60_000)];

/// Fraction of jobs dirtied between churn rounds, in percent.
const CHURN_PCT: u64 = 10;

/// One timed grid point: `jobs=J nodes=N`, plus `churn_pct=10
/// path=delta` (incremental `schedule_delta`) or `path=full` (full path
/// on the same churned state) at a churn point.
#[derive(Serialize)]
struct PointRecord {
    key: String,
    metrics: Vec<Metric>,
}

impl PointRecord {
    fn new(key: String, ns: Vec<f64>) -> PointRecord {
        PointRecord {
            key,
            metrics: vec![Metric::new("ns", false, "ns", ns)],
        }
    }
}

/// One appended trajectory entry.
#[derive(Serialize)]
struct BenchEntry {
    label: String,
    source: &'static str,
    samples: u32,
    host: Host,
    points: Vec<PointRecord>,
}

/// Parses a `--points`/`--churn-jobs` job-count filter: a comma list of
/// job counts, or `none` for the empty set. `None` means "no filter".
fn parse_filter(raw: Option<String>) -> Result<Option<Vec<usize>>, String> {
    let Some(raw) = raw else { return Ok(None) };
    if raw == "none" {
        return Ok(Some(Vec::new()));
    }
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid job count {s:?}"))
        })
        .collect::<Result<Vec<usize>, String>>()
        .map(Some)
}

/// Dirties `pct` % of `jobs` (at least one) with a deterministic LCG:
/// a tiny multiplicative jitter on `remaining_work` that flips the
/// fingerprint without moving any saturating solo-climb stop. Returns
/// the sorted dirty index list.
fn churn_round(jobs: &mut [JobView], pct: u64, seed: &mut u64) -> Vec<u32> {
    let want = ((jobs.len() as u64 * pct) / 100).max(1) as usize;
    let mut dirty = std::collections::BTreeSet::new();
    while dirty.len() < want {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        dirty.insert(((*seed >> 33) as usize % jobs.len()) as u32);
    }
    for &i in &dirty {
        jobs[i as usize].remaining_work *= 1.000_001;
    }
    dirty.into_iter().collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "bench_sched — scheduling-decision timing trajectory\n\n\
             USAGE: bench_sched [--samples N] [--label STR] [--out FILE] [--verify]\n\
             \x20                 [--points LIST] [--churn-jobs LIST] [--ledger DIR]\n\n\
             \x20 --points LIST      full-round grid points to run (job counts,\n\
             \x20                    comma-separated, or 'none'; default: all)\n\
             \x20 --churn-jobs LIST  steady-state 10 % churn points to run\n\
             \x20                    (default: 1000,10000; 'none' disables)"
        );
        return ExitCode::SUCCESS;
    }
    let verify = args.iter().any(|a| a == "--verify");
    let samples: u32 = match arg_value(&args, "--samples").map(|v| v.parse()) {
        None => 10,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: --samples expects an integer");
            return ExitCode::FAILURE;
        }
    };
    let samples = samples.max(1);
    let label = arg_value(&args, "--label").unwrap_or_else(|| "current".into());
    let out = arg_value(&args, "--out");
    let full_filter = match parse_filter(arg_value(&args, "--points")) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: --points: {e}");
            return ExitCode::FAILURE;
        }
    };
    let churn_filter = match parse_filter(arg_value(&args, "--churn-jobs")) {
        Ok(f) => f.unwrap_or_else(|| vec![1_000, 10_000]),
        Err(e) => {
            eprintln!("error: --churn-jobs: {e}");
            return ExitCode::FAILURE;
        }
    };

    let node_cap = ResourceVec::new(32.0, 4.0, 128.0, 10.0);
    let scheduler = OptimusScheduler::build();
    let full_points: Vec<(usize, usize)> = POINTS
        .iter()
        .copied()
        .filter(|(j, _)| full_filter.as_ref().is_none_or(|f| f.contains(j)))
        .collect();
    let churn_points: Vec<(usize, usize)> = CHURN_POINTS
        .iter()
        .copied()
        .filter(|(j, _)| churn_filter.contains(j))
        .collect();
    let sizes: Vec<usize> = full_points.iter().map(|&(jobs, _)| jobs).collect();
    let job_sets = run_indexed(&sizes, available_threads(), |_, &n| {
        synthetic_views(n, false)
    });

    println!("bench_sched: {samples} samples per point (label: {label})\n");
    println!(
        "{:>8} {:>8} {:>14} {:>12}",
        "jobs", "nodes", "median ns", "ms"
    );
    let mut points = Vec::new();
    let mut scratch = RoundScratch::default();
    let mut decision = Schedule::new(Vec::new(), std::collections::HashMap::new());
    for (&(jobs_n, nodes), jobs) in full_points.iter().zip(job_sets.iter()) {
        let cluster = Cluster::homogeneous(nodes, node_cap);
        // Two warm-up decisions size the persistent scratch, then the
        // timed samples run the allocation-free steady-state rounds the
        // simulator sees every interval.
        scheduler.schedule_into(jobs, &cluster, &mut scratch, &mut decision);
        scheduler.schedule_into(jobs, &cluster, &mut scratch, &mut decision);
        let mut ns = Vec::new();
        for _ in 0..samples {
            let start = Instant::now();
            scheduler.schedule_into(jobs, &cluster, &mut scratch, &mut decision);
            ns.push(start.elapsed().as_nanos() as f64);
            std::hint::black_box(&decision);
        }
        let median_ns = median(&ns);
        if verify {
            let reference = CompositeScheduler::new(
                "reference",
                Box::new(ReferenceOptimusAllocator::default()),
                Box::new(ReferenceOptimusPlacer),
            )
            .schedule(jobs, &cluster);
            if decision.allocations() != reference.allocations()
                || decision.placements() != reference.placements()
            {
                eprintln!(
                    "error: optimized decision diverges from the reference \
                     at {jobs_n} jobs / {nodes} nodes"
                );
                return ExitCode::FAILURE;
            }
        }
        println!(
            "{jobs_n:>8} {nodes:>8} {median_ns:>14.0} {:>12.3}",
            median_ns / 1e6
        );
        points.push(PointRecord::new(format!("jobs={jobs_n} nodes={nodes}"), ns));
    }

    // --- Steady-state churn points -----------------------------------
    for &(jobs_n, nodes) in &churn_points {
        let mut jobs = synthetic_views(jobs_n, true);
        let cluster = Cluster::homogeneous(nodes, node_cap);
        let mut delta_scratch = RoundScratch::default();
        let mut delta_out = Schedule::new(Vec::new(), std::collections::HashMap::new());
        let mut full_scratch = RoundScratch::default();
        let mut full_out = Schedule::new(Vec::new(), std::collections::HashMap::new());
        // Warm both paths: a cold full round seeds the delta engine's
        // stored rows and placement store.
        let cold = RoundDelta {
            full: true,
            cluster_changed: false,
            dirty: Vec::new(),
        };
        scheduler.schedule_delta(&jobs, &cluster, &cold, &mut delta_scratch, &mut delta_out);
        scheduler.schedule_into(&jobs, &cluster, &mut full_scratch, &mut full_out);

        let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ jobs_n as u64;
        let mut delta_ns = Vec::new();
        let mut full_ns = Vec::new();
        let mut fallbacks = 0u64;
        let mut replayed = 0u64;
        for _ in 0..samples {
            let dirty = churn_round(&mut jobs, CHURN_PCT, &mut seed);
            let delta = RoundDelta {
                full: false,
                cluster_changed: false,
                dirty,
            };
            let start = Instant::now();
            let stats = scheduler.schedule_delta(
                &jobs,
                &cluster,
                &delta,
                &mut delta_scratch,
                &mut delta_out,
            );
            delta_ns.push(start.elapsed().as_nanos() as f64);
            std::hint::black_box(&delta_out);
            fallbacks += u64::from(stats.alloc_full);
            replayed += stats.replayed_grants;

            let start = Instant::now();
            scheduler.schedule_into(&jobs, &cluster, &mut full_scratch, &mut full_out);
            full_ns.push(start.elapsed().as_nanos() as f64);
            std::hint::black_box(&full_out);

            if verify
                && (delta_out.allocations() != full_out.allocations()
                    || delta_out.placements() != full_out.placements())
            {
                eprintln!(
                    "error: delta decision diverges from the full path \
                     at {jobs_n} jobs / {nodes} nodes (churn)"
                );
                return ExitCode::FAILURE;
            }
        }
        if verify && fallbacks > 0 {
            eprintln!(
                "error: churn point {jobs_n} jobs / {nodes} nodes fell back to the \
                 full path in {fallbacks}/{samples} rounds — cluster lacks \
                 certificate headroom"
            );
            return ExitCode::FAILURE;
        }
        let (delta_median, full_median) = (median(&delta_ns), median(&full_ns));
        let speedup = full_median / delta_median.max(1.0);
        let replayed_per_round = replayed / u64::from(samples);
        println!(
            "{jobs_n:>8} {nodes:>8} {delta_median:>14.0} {:>12.3}  churn {CHURN_PCT}% delta \
             ({speedup:.1}x vs full {:.3} ms, {replayed_per_round} grants replayed/round, \
             {fallbacks} fallbacks)",
            delta_median / 1e6,
            full_median / 1e6,
        );
        for (path, ns) in [("delta", delta_ns), ("full", full_ns)] {
            let key = format!("jobs={jobs_n} nodes={nodes} churn_pct={CHURN_PCT} path={path}");
            points.push(PointRecord::new(key, ns));
        }
    }

    let entry = BenchEntry {
        label: label.clone(),
        source: "bench_sched",
        samples,
        host: Host::probe(),
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
        let grid = |pts: &[(usize, usize)]| {
            Value::Array(
                pts.iter()
                    .map(|&(j, n)| Value::Array(vec![Value::Num(j as f64), Value::Num(n as f64)]))
                    .collect(),
            )
        };
        let config = Value::Object(vec![
            ("samples".into(), Value::Num(samples as f64)),
            ("verify".into(), Value::Bool(verify)),
            ("points".into(), grid(&full_points)),
            ("churn_points".into(), grid(&churn_points)),
            ("churn_pct".into(), Value::Num(CHURN_PCT as f64)),
        ]);
        let mut ledger = RunLedger::new("bench_sched", &label)
            .threads(available_threads())
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
