//! `bench_sim` — records whole-simulation throughput.
//!
//! The micro benches time one scheduling decision (`bench_sched`) and
//! one refit sweep (`bench_fit`); this bench times the *whole engine* —
//! event calendar, progress waves, refits, scheduling rounds, event
//! logging — by running a fixed workload on the paper testbed end to
//! end and recording two rates per grid point:
//!
//! * **simulated-seconds per wall-second** — how much cluster time one
//!   wall second buys (the headline throughput, higher is better);
//! * **events per wall-second** — decision-log events emitted per wall
//!   second, a density-normalized view that does not reward runs that
//!   merely simulate longer idle spans.
//!
//! The grid spans the regime where a tick-walking loop collapses: the
//! historical 6- and 12-job points plus 100- and 1000-job points whose
//! arrival horizons stretch over months of simulated time.
//!
//! The benchmark is *defended*: every sample re-runs the identical
//! deterministic configuration and the per-job JCT vector is asserted
//! bit-identical across samples — and, at every point up to 100 jobs,
//! to one untimed run of the tick-loop oracle
//! (`Simulation::run_reference`) — before any timing is recorded: a
//! nondeterministic (or divergent) engine cannot quietly publish a
//! throughput number. The 1000-job point skips the oracle, whose
//! `jobs × ticks` cost is the wall this engine exists to avoid.
//!
//! Both rates are gated metrics (higher is better), recorded per sample
//! with their median and quartiles in the trajectory format of
//! [`optimus_bench::trajectory`], under a host block. Timings append to
//! a labeled JSON trajectory (`BENCH_sim.json` via `just bench-sim`);
//! `optimus-trace check-bench` compares the newest entry with the latest
//! earlier one from the same host.
//!
//! At the 100-job point a paired gate also holds decision-provenance
//! recording to 5 % wall-clock overhead: `OVERHEAD_PAIRS` pairs of a
//! telemetry-enabled run and the same run with provenance, alternating
//! which runs first, and the median of the per-pair ratios is gated, so
//! a host slowdown that lasts a run or two moves one pair, not the gate.
//!
//! ```text
//! bench_sim [--samples N] [--label STR] [--out FILE] [--points LIST]
//! ```

use optimus_bench::arg_value;
use optimus_bench::host::Host;
use optimus_bench::stats::median;
use optimus_bench::trajectory::{append_trajectory, Metric};
use optimus_cluster::Cluster;
use optimus_core::prelude::OptimusScheduler;
use optimus_simulator::{SimConfig, SimReport, Simulation};
use optimus_telemetry::Telemetry;
use optimus_workload::{ArrivalProcess, WorkloadGenerator};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// How instrumented a timed run is.
#[derive(Clone, Copy, PartialEq)]
enum Instrumentation {
    /// Disabled telemetry handle — the headline-throughput default.
    Off,
    /// Enabled telemetry (counters, spans, trace records).
    Telemetry,
    /// Enabled telemetry plus decision-provenance why-records.
    Provenance,
}

/// One acceptance-grid point: a workload size on the paper's 13-server
/// testbed, with the arrival horizon and simulation cap it runs under.
struct GridPoint {
    jobs: usize,
    /// Uniform-random arrival horizon, seconds.
    horizon_s: f64,
    /// Hard simulation cap, seconds (must exceed the makespan — the
    /// bench asserts every job finishes).
    max_time_s: f64,
    /// Target nominal job duration, seconds.
    job_s: f64,
    /// Loss-report cadence, seconds. The historical 6/12-job points
    /// keep the 5 s default; the at-scale points report every 60 s —
    /// the aggregation cadence a cluster of that size would use, and
    /// the same configuration the oracle check runs.
    loss_sample_every_s: f64,
    /// Also check the JCT witness against the tick-loop oracle at this
    /// point. Off for the largest point, where walking `jobs × ticks`
    /// is the collapse the event engine exists to avoid.
    check_reference: bool,
}

/// The acceptance grid. The 6/12-job points keep the PR-3 workload
/// (12 000 s horizon, default cap) so the trajectory stays comparable
/// across labels; the 100-job point spreads arrivals over a month and
/// the 1000-job point over four months.
const POINTS: [GridPoint; 4] = [
    GridPoint {
        jobs: 6,
        horizon_s: 12_000.0,
        max_time_s: 400_000.0,
        job_s: 2.0 * 3_600.0,
        loss_sample_every_s: 5.0,
        check_reference: true,
    },
    GridPoint {
        jobs: 12,
        horizon_s: 12_000.0,
        max_time_s: 400_000.0,
        job_s: 2.0 * 3_600.0,
        loss_sample_every_s: 5.0,
        check_reference: true,
    },
    GridPoint {
        jobs: 100,
        horizon_s: 2_592_000.0,  // 30-day arrival window
        max_time_s: 7_776_000.0, // 90-day cap
        job_s: 3_600.0,
        loss_sample_every_s: 60.0,
        check_reference: true,
    },
    GridPoint {
        jobs: 1000,
        horizon_s: 10_368_000.0,  // 120-day arrival window
        max_time_s: 15_552_000.0, // 180-day cap
        job_s: 3_600.0,
        loss_sample_every_s: 60.0,
        check_reference: false,
    },
];

/// Workload seed — fixed so every entry in the trajectory times the
/// exact same runs.
const SEED: u64 = 17;

/// Telemetry/provenance run pairs behind the provenance-overhead gate.
const OVERHEAD_PAIRS: usize = 20;

/// One timed grid point: `jobs=J`.
#[derive(Serialize)]
struct PointRecord {
    key: String,
    sim_seconds: f64,
    events: u64,
    /// Wall-clock overhead of decision-provenance recording vs the same
    /// telemetry-enabled run without it, percent: the median over
    /// `OVERHEAD_PAIRS` pairs (100-job point only; gated at ≤5 %).
    provenance_overhead_pct: Option<f64>,
    /// `sim_seconds_per_wall_second` and `events_per_wall_second`, one
    /// value per sample.
    metrics: Vec<Metric>,
}

/// One appended trajectory entry.
#[derive(Serialize)]
struct BenchEntry {
    label: String,
    source: &'static str,
    samples: u32,
    seed: u64,
    host: Host,
    points: Vec<PointRecord>,
}

/// One full simulation of a grid point through `run` (`Simulation::run`
/// or the `Simulation::run_reference` oracle): `(wall_ns, sim_seconds,
/// events, jct_bits)`. The JCT bit pattern is the determinism witness —
/// across samples, and against the oracle where it runs.
fn run_once(
    point: &GridPoint,
    run: fn(&mut Simulation) -> SimReport,
    instr: Instrumentation,
) -> (u64, f64, u64, Vec<(u64, u64)>) {
    let arrivals = ArrivalProcess::UniformRandom {
        count: point.jobs,
        horizon_s: point.horizon_s,
    };
    let specs = WorkloadGenerator::new(arrivals, SEED)
        .with_target_job_seconds(Some(point.job_s))
        .generate();
    let tel = match instr {
        Instrumentation::Off => Telemetry::disabled(),
        Instrumentation::Telemetry | Instrumentation::Provenance => Telemetry::enabled(),
    };
    if instr == Instrumentation::Provenance {
        tel.enable_provenance();
    }
    let cfg = SimConfig {
        seed: SEED,
        record_events: true,
        max_time_s: point.max_time_s,
        loss_sample_every_s: point.loss_sample_every_s,
        telemetry: tel.clone(),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs,
        Box::new(OptimusScheduler::build_with_telemetry(tel.clone())),
        cfg,
    );
    let start = Instant::now();
    let report = std::hint::black_box(run(&mut sim));
    let wall_ns = start.elapsed().as_nanos() as u64;
    assert_eq!(
        report.unfinished_jobs, 0,
        "bench workload must run to completion"
    );
    if instr == Instrumentation::Provenance {
        assert!(
            tel.why_count() > 0,
            "provenance-instrumented run recorded no why-records"
        );
    }
    let jct_bits = {
        let mut v: Vec<(u64, u64)> = report
            .jct
            .iter()
            .map(|&(id, t)| (id.0, t.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    (
        wall_ns,
        report.makespan,
        report.events.len() as u64,
        jct_bits,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "bench_sim — whole-simulation throughput trajectory\n\n\
             USAGE: bench_sim [--samples N] [--label STR] [--out FILE] [--points LIST]\n\n\
             --points LIST   comma-separated job counts to run (default: all grid points)"
        );
        return ExitCode::SUCCESS;
    }
    let samples: u32 = match arg_value(&args, "--samples").map(|v| v.parse()) {
        None => 3,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("error: --samples expects an integer");
            return ExitCode::FAILURE;
        }
    };
    let samples = samples.max(1);
    let label = arg_value(&args, "--label").unwrap_or_else(|| "current".into());
    let out = arg_value(&args, "--out");
    let selected: Option<Vec<usize>> = match arg_value(&args, "--points") {
        None => None,
        Some(list) => match list.split(',').map(|s| s.trim().parse()).collect() {
            Ok(v) => Some(v),
            Err(_) => {
                eprintln!("error: --points expects a comma-separated list of job counts");
                return ExitCode::FAILURE;
            }
        },
    };
    if let Some(sel) = &selected {
        if let Some(unknown) = sel.iter().find(|j| !POINTS.iter().any(|p| p.jobs == **j)) {
            let known: Vec<String> = POINTS.iter().map(|p| p.jobs.to_string()).collect();
            eprintln!(
                "error: no {unknown}-job grid point (known: {})",
                known.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }

    println!("bench_sim: {samples} samples per point (label: {label})\n");
    println!(
        "{:>6} {:>12} {:>14} {:>16} {:>10} {:>14}",
        "jobs", "median ms", "sim seconds", "sim-s per wall-s", "events", "events per s"
    );
    let mut points = Vec::new();
    let mut gate_failed = false;
    for point in POINTS
        .iter()
        .filter(|p| selected.as_ref().is_none_or(|sel| sel.contains(&p.jobs)))
    {
        let jobs = point.jobs;
        // Warm-up run (allocators, page faults) whose timing is
        // discarded but whose JCT vector anchors the determinism check.
        let (_, _, _, witness) = run_once(point, Simulation::run, Instrumentation::Off);
        let mut wall_s = Vec::new();
        let mut sim_seconds = 0.0;
        let mut events = 0u64;
        for _ in 0..samples {
            let (wall_ns, sim_s, ev, jct_bits) =
                run_once(point, Simulation::run, Instrumentation::Off);
            assert_eq!(
                jct_bits, witness,
                "nondeterministic simulation at {jobs} jobs — refusing to record timings"
            );
            wall_s.push((wall_ns as f64 / 1e9).max(1e-12));
            sim_seconds = sim_s;
            events = ev;
        }
        let rates = |amount: f64| wall_s.iter().map(|w| amount / w).collect::<Vec<f64>>();
        let sim_per_wall = Metric::new(
            "sim_seconds_per_wall_second",
            true,
            "sim-s/s",
            rates(sim_seconds),
        );
        let events_per_s = Metric::new(
            "events_per_wall_second",
            true,
            "events/s",
            rates(events as f64),
        );
        if point.check_reference {
            let (_, _, _, reference_bits) =
                run_once(point, Simulation::run_reference, Instrumentation::Off);
            assert_eq!(
                reference_bits, witness,
                "engine disagrees with the tick-loop oracle on JCTs at {jobs} jobs — \
                 refusing to record timings"
            );
        }
        // Provenance-overhead gate (100-job point): why-record keeping
        // must cost ≤5 % wall over the same telemetry-enabled run
        // without it — and must not change a single decision bit (the
        // JCT witness doubles as the byte-identity proof here). Paired
        // runs, alternating which variant goes first, gated on the
        // median per-pair ratio to damp host jitter.
        let provenance_overhead_pct = if jobs == 100 {
            let timed = |instr: Instrumentation| {
                let (wall_ns, _, _, jct_bits) = run_once(point, Simulation::run, instr);
                assert_eq!(
                    jct_bits, witness,
                    "instrumentation changed decisions at {jobs} jobs — \
                     refusing to record timings"
                );
                wall_ns.max(1) as f64
            };
            let (mut tel_ns, mut prov_ns) = (Vec::new(), Vec::new());
            for pair in 0..OVERHEAD_PAIRS {
                if pair % 2 == 0 {
                    tel_ns.push(timed(Instrumentation::Telemetry));
                    prov_ns.push(timed(Instrumentation::Provenance));
                } else {
                    prov_ns.push(timed(Instrumentation::Provenance));
                    tel_ns.push(timed(Instrumentation::Telemetry));
                }
            }
            let ratios: Vec<f64> = prov_ns.iter().zip(&tel_ns).map(|(p, t)| p / t).collect();
            let pct = 100.0 * (median(&ratios) - 1.0);
            println!(
                "{jobs:>6} provenance overhead {pct:+.2} % (median of {OVERHEAD_PAIRS} pairs; \
                 telemetry {:.2} ms → +provenance {:.2} ms, medians)",
                median(&tel_ns) / 1e6,
                median(&prov_ns) / 1e6,
            );
            if pct > 5.0 {
                eprintln!(
                    "error: provenance recording overhead {pct:.2} % at {jobs} jobs \
                     exceeds the 5 % gate"
                );
                gate_failed = true;
            }
            Some(pct)
        } else {
            None
        };
        println!(
            "{jobs:>6} {:>12.2} {sim_seconds:>14.0} {:>16.0} {events:>10} {:>14.0}",
            median(&wall_s) * 1e3,
            sim_per_wall.median,
            events_per_s.median,
        );
        points.push(PointRecord {
            key: format!("jobs={jobs}"),
            sim_seconds,
            events,
            provenance_overhead_pct,
            metrics: vec![sim_per_wall, events_per_s],
        });
    }

    let entry = BenchEntry {
        label: label.clone(),
        source: "bench_sim",
        samples,
        seed: SEED,
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
    if gate_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
