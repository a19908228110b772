//! `optimus-sim` — command-line driver for the Optimus cluster
//! simulator.
//!
//! ```text
//! optimus-sim run       simulate a workload under a scheduler
//! optimus-sim batch     sweep schedulers × seeds across worker threads
//! optimus-sim generate  emit a workload trace as JSON
//! optimus-sim models    print the Table-1 model zoo
//! ```
//!
//! Run `optimus-sim help` (or any subcommand with `--help`) for flags.
//! Each subcommand parses its flags with the shared strict parser
//! (`optimus_bench::cli`), and every error exits 2: a bad argument, or
//! an input or output file that cannot be read, parsed or written.

use optimus::prelude::*;
use optimus::workload::trace::WorkloadTrace;
use optimus_bench::cli::{self, Args, Spec};
use optimus_bench::{ComparisonSpec, SchedulerChoice};
use std::process::ExitCode;

const USAGE: &str = "\
optimus-sim — Optimus (EuroSys 2018) cluster-scheduling simulator

USAGE:
  optimus-sim run      [--jobs N] [--seed S] [--scheduler NAME] [--target-hours H]
                       [--interval SECS] [--trace-in FILE] [--trace-out FILE]
                       [--events] [--json] [--trace FILE] [--chrome-trace FILE]
                       [--ledger DIR] [--flight CAP] [--progress SECS]
  optimus-sim batch    [--jobs N] [--seeds S1,S2,..] [--schedulers A,B,..]
                       [--threads T] [--target-hours H] [--interval SECS] [--json]
  optimus-sim generate [--jobs N] [--seed S] [--target-hours H] [--trace-in FILE]
  optimus-sim models

SCHEDULERS: optimus (default) | drf | tetris | fifo

FLAGS:
  --jobs N          number of jobs to generate       (default 9)
  --seed S          RNG seed                         (default 17)
  --scheduler NAME  scheduler under test             (default optimus)
  --target-hours H  median target job duration, > 0  (default 2.0)
  --interval SECS   scheduling interval, > 0         (default 600)
  --trace-in FILE   simulate a saved workload trace instead of generating
  --trace-out FILE  also save the generated workload as a trace
  --events          record and print the decision log
  --json            print the report as JSON instead of text
  --trace FILE      write a telemetry trace (JSONL) for optimus-trace
  --chrome-trace FILE  write the same trace as Chrome trace_event JSON
  --ledger DIR      write a run ledger (manifest + hashed artifacts) to DIR;
                    implies telemetry, event recording, the flight recorder
                    and decision provenance (provenance.jsonl, `optimus-trace
                    why`)
  --flight CAP      sample a cluster snapshot per scheduling round into a ring
                    buffer of CAP snapshots (default off; --ledger turns it on
                    at 4096)
  --progress SECS   live status line on stderr every SECS wall seconds
                    (default off)

BATCH FLAGS:
  --seeds LIST      comma-separated RNG seeds        (default 17,23,31)
  --schedulers LIST comma-separated scheduler names  (default all four)
  --threads T       worker threads for the sweep     (default: all cores,
                    or the OPTIMUS_THREADS environment variable)

Any other flag or argument, a flag with no value, a value that does not
parse, a non-finite or non-positive --interval or --target-hours, and an
input or output file that cannot be read, parsed or written are errors:
`error: …` on stderr and exit code 2.
";

const RUN: Spec = Spec {
    name: "run",
    usage: USAGE,
    values: &[
        "--jobs",
        "--seed",
        "--scheduler",
        "--target-hours",
        "--interval",
        "--trace-in",
        "--trace-out",
        "--trace",
        "--chrome-trace",
        "--ledger",
        "--flight",
        "--progress",
    ],
    switches: &["--events", "--json"],
    positionals: 0..=0,
};

const BATCH: Spec = Spec {
    name: "batch",
    usage: USAGE,
    values: &[
        "--jobs",
        "--seeds",
        "--schedulers",
        "--threads",
        "--target-hours",
        "--interval",
    ],
    switches: &["--json"],
    positionals: 0..=0,
};

const GENERATE: Spec = Spec {
    name: "generate",
    usage: USAGE,
    values: &["--jobs", "--seed", "--target-hours", "--trace-in"],
    switches: &[],
    positionals: 0..=0,
};

const MODELS: Spec = Spec {
    name: "models",
    usage: USAGE,
    values: &[],
    switches: &[],
    positionals: 0..=0,
};

/// A subcommand's body.
type Command = fn(&Args) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, cmd): (&Spec, Command) = match args.first().map(String::as_str) {
        Some("run") => (&RUN, cmd_run),
        Some("batch") => (&BATCH, cmd_batch),
        Some("generate") => (&GENERATE, cmd_generate),
        Some("models") => (&MODELS, cmd_models),
        None | Some("help" | "-h" | "--help") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => return cli::fail(format!("unknown subcommand: {other} (see --help)")),
    };
    match spec.parse(&args[1..]) {
        Ok(flags) => cmd(&flags).map_or_else(cli::fail, |()| ExitCode::SUCCESS),
        Err(code) => code,
    }
}

/// `flags`' `name` value, which must be finite and > 0, or `default`.
fn positive(flags: &Args, name: &str, default: f64) -> Result<f64, String> {
    let v: f64 = flags.parse_or(name, default)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!(
            "invalid value for {name}: {v} (must be finite and > 0)"
        ))
    }
}

fn build_workload(flags: &Args) -> Result<Vec<JobSpec>, String> {
    if let Some(path) = flags.value("--trace-in") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = WorkloadTrace::from_json(&json).map_err(|e| e.to_string())?;
        return Ok(trace.jobs);
    }
    let jobs: usize = flags.parse_or("--jobs", 9)?;
    let seed: u64 = flags.parse_or("--seed", 17)?;
    let hours = positive(flags, "--target-hours", 2.0)?;
    Ok(
        WorkloadGenerator::new(ArrivalProcess::paper_default(jobs), seed)
            .with_target_job_seconds(Some(hours * 3_600.0))
            .generate(),
    )
}

fn cmd_run(flags: &Args) -> Result<(), String> {
    let seed: u64 = flags.parse_or("--seed", 17)?;
    let scheduler_name = flags.value("--scheduler").unwrap_or("optimus");
    let choice: SchedulerChoice = flags.parse_or("--scheduler", SchedulerChoice::Optimus)?;
    let interval_s = positive(flags, "--interval", 600.0)?;
    let progress_every_s: f64 = flags.parse_or("--progress", 0.0)?;
    let flight_capacity: Option<usize> = flags.parse("--flight")?;
    let trace_path = flags.value("--trace");
    let chrome_path = flags.value("--chrome-trace");
    let ledger_dir = flags.value("--ledger");

    let jobs = build_workload(flags)?;
    if let Some(path) = flags.value("--trace-out") {
        let trace = WorkloadTrace::new("generated by optimus-sim run", jobs.clone());
        std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let job_count = jobs.len();
    let tel = if trace_path.is_some() || chrome_path.is_some() || ledger_dir.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    // A ledgered run records decision provenance too, so
    // `optimus-trace why` can explain any job in it.
    if ledger_dir.is_some() {
        tel.enable_provenance();
    }
    let flight = match flight_capacity {
        Some(capacity) => Some(FlightConfig { capacity }),
        // A ledger should always carry the utilization timeline, so
        // `optimus-trace timeline` can render any recorded run.
        None => ledger_dir.map(|_| FlightConfig::default()),
    };
    let cfg = SimConfig {
        interval_s,
        seed,
        assignment: choice.assignment(),
        record_events: flags.has("--events") || ledger_dir.is_some(),
        telemetry: tel.clone(),
        flight,
        progress_every_s,
        ..SimConfig::default()
    };
    let scheduler = Box::new(choice.build_with_telemetry(tel.clone()));
    let mut sim = Simulation::new(Cluster::paper_testbed(), jobs, scheduler, cfg);
    let report = sim.run();

    if let Some(dir) = ledger_dir {
        use serde_json::Value;
        let config = Value::Object(vec![
            ("jobs".into(), Value::Num(job_count as f64)),
            ("seed".into(), Value::Num(seed as f64)),
            ("scheduler".into(), Value::Str(scheduler_name.to_string())),
            ("interval_s".into(), Value::Num(interval_s)),
            ("provenance".into(), Value::Bool(true)),
            (
                "trace_in".into(),
                flags
                    .value("--trace-in")
                    .map_or(Value::Null, |p| Value::Str(p.to_string())),
            ),
        ]);
        let label = format!("{scheduler_name}-{job_count}x{seed}");
        let path = optimus::ledger::sim_run_ledger(&report, &tel, &label, seed, config)
            .write(std::path::Path::new(dir))
            .map_err(|e| format!("{dir}: {e}"))?;
        eprintln!("run ledger written to {}", path.display());
    }

    if let Some(path) = trace_path {
        tel.write_json_lines(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("telemetry trace written to {path}");
    }
    if let Some(path) = chrome_path {
        std::fs::write(path, tel.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("chrome trace written to {path}");
    }

    if flags.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("scheduler: {}", report.scheduler);
    let mut jct = report.jct.clone();
    jct.sort_by_key(|&(id, _)| id);
    for (id, t) in &jct {
        println!("  {id}: JCT {t:>8.0} s");
    }
    println!(
        "average JCT: {:.0} s (p50 {:.0} s, p95 {:.0} s, p99 {:.0} s)",
        report.avg_jct(),
        report.p50_jct(),
        report.p95_jct(),
        report.p99_jct()
    );
    println!("makespan:    {:.0} s", report.makespan);
    println!(
        "overhead:    {:.2} % of makespan ({} scale events)",
        100.0 * report.scaling_overhead_fraction(),
        report.scale_events
    );
    if report.unfinished_jobs > 0 {
        println!("WARNING: {} unfinished jobs", report.unfinished_jobs);
    }
    if flags.has("--events") {
        println!("\ndecision log ({} events):", report.events.len());
        println!("{}", report.events.to_json_lines());
    }
    Ok(())
}

/// `batch`: a schedulers × seeds comparison sweep fanned across worker
/// threads (the same parallel runner the fig binaries use). Results are
/// aggregated per scheduler and identical to a serial sweep — cells are
/// collected in input order regardless of thread scheduling.
fn cmd_batch(flags: &Args) -> Result<(), String> {
    let jobs: usize = flags.parse_or("--jobs", 9)?;
    let hours = positive(flags, "--target-hours", 2.0)?;
    let interval = positive(flags, "--interval", 600.0)?;
    let threads: usize = flags.parse_or("--threads", optimus_bench::available_threads())?;
    let seeds: Vec<u64> = flags.list("--seeds")?.unwrap_or_else(|| vec![17, 23, 31]);
    let choices: Vec<SchedulerChoice> = flags.list("--schedulers")?.unwrap_or_else(|| {
        use SchedulerChoice::*;
        vec![Optimus, Drf, Tetris, Fifo]
    });
    if seeds.is_empty() || choices.is_empty() {
        return Err("need at least one seed and one scheduler".into());
    }
    let spec = ComparisonSpec {
        arrivals: ArrivalProcess::paper_default(jobs),
        target_job_seconds: Some(hours * 3_600.0),
        seeds,
        base_config: SimConfig {
            interval_s: interval,
            ..SimConfig::default()
        },
        ..ComparisonSpec::default()
    };
    let results = optimus_bench::run_schedulers_parallel(&spec, &choices, threads);
    if flags.has("--json") {
        optimus_bench::print_json("batch", &results);
    } else {
        let title = format!(
            "batch: {jobs} jobs × {} seeds × {} schedulers ({threads} threads)",
            spec.seeds.len(),
            choices.len()
        );
        optimus_bench::print_comparison(&title, &results);
    }
    Ok(())
}

fn cmd_generate(flags: &Args) -> Result<(), String> {
    let trace = WorkloadTrace::new("generated by optimus-sim generate", build_workload(flags)?);
    println!("{}", trace.to_json());
    Ok(())
}

fn cmd_models(_: &Args) -> Result<(), String> {
    println!(
        "{:<14} {:>9} {:>6} {:<22} {:>11} {:>8}",
        "model", "params M", "type", "dataset", "examples", "epochs@1%"
    );
    for m in ModelKind::ALL {
        let p = m.profile();
        println!(
            "{:<14} {:>9.1} {:>6} {:<22} {:>11} {:>8}",
            p.name,
            p.params_million,
            match p.network {
                optimus::workload::NetworkType::Cnn => "CNN",
                optimus::workload::NetworkType::Rnn => "RNN",
            },
            p.dataset,
            p.dataset_size,
            p.curve.epochs_to_converge(0.01, 3).unwrap_or(0),
        );
    }
    Ok(())
}
