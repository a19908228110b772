//! `optimus-trace` — inspect Optimus telemetry traces and run ledgers.
//!
//! Five modes:
//!
//! * **summarize** — per-job timelines, scheduling-round percentiles and
//!   the final counter/histogram snapshot of a telemetry JSONL trace
//!   (written by `optimus-sim run --trace FILE`), or of a run ledger
//!   directory (written by `--ledger DIR`), including the estimator
//!   audit (`--models`);
//! * **timeline** — render a run-ledger directory as a per-job Gantt
//!   chart plus the flight recorder's utilization timeline;
//! * **why** — explain one job's decisions from a run's
//!   decision-provenance ledger (`provenance.jsonl`): the winning
//!   marginal gain and the runner-ups it beat, the placement candidates
//!   rejected on the way, and which delta path produced the grant;
//! * **diff** — compare two run-ledger directories artifact by artifact
//!   and localize the first divergent round/job/event;
//! * **check-bench** — regression judge over the committed
//!   `BENCH_sched.json` / `BENCH_fit.json` / `BENCH_sim.json`
//!   trajectories: the newest entry against the latest earlier entry
//!   from the same host, with the end-to-end benchmark's
//!   median/quartile verdict (`optimus_bench::compare`).
//!
//! Every mode follows one exit-code rule: 0 when all is well, 1 when
//! the check found something (two runs diverge, a bench metric is
//! worse, or nothing could be gated), 2 on a bad argument or an input
//! that cannot be read or is not valid. Every mode parses its command
//! line with the shared strict parser, `optimus_bench::cli`.

use optimus::fitting::stats::{mean, nearest_rank, p50_p95_p99};
use optimus::ledger::{self, LoadedRun};
use optimus::telemetry::metrics::bucket_quantile;
use optimus::telemetry::provenance::parse_why_lines;
use optimus::telemetry::{DeltaWhy, PlaceReject, TraceEvent, TraceLine, WhyRecord, SCHEMA_VERSION};
use optimus_bench::cli::{self, Args, Spec};
use optimus_bench::compare;
use optimus_bench::trajectory::{same_host, Entry};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
optimus-trace — summarize Optimus telemetry traces and run ledgers

USAGE:
  optimus-trace FILE|RUN_DIR [--top N] [--no-jobs] [--spans] [--models]
  optimus-trace timeline RUN_DIR [--width N] [--segments FILE] [--chrome FILE]
  optimus-trace why [JOB] RUN_DIR [--round R] [--summary] [--ledger RUN_DIR]
  optimus-trace diff [--ignore ARTIFACT]... RUN_A RUN_B
  optimus-trace check-bench [FILE]...

EXIT CODES (every mode):
  0  all is well
  1  the check found something: runs diverge (diff), a bench metric
     is worse or nothing was gated (check-bench)
  2  a bad argument (an unknown flag, a flag with no value, a missing
     or extra argument, a value that does not parse), or an input that
     cannot be read or is not valid

SUMMARIZE FLAGS:
  --top N       counters to list                 (default 10)
  --no-jobs     skip the per-job timelines
  --spans       also print the per-span-name aggregates
  --models      print the estimator-accuracy audit (speed & convergence)

TIMELINE:
  Renders a run directory written with --ledger: one Gantt lane per job
  from events.jsonl, plus the flight recorder's utilization timeline
  from flight.jsonl when present.
  --width N        chart width, columns          (default 72)
  --segments FILE  also export the typed Gantt segments as JSONL
  --chrome FILE    also export the utilization as Chrome counter tracks

WHY:
  Explains decisions from a run's provenance.jsonl (recorded by
  `optimus-sim run --ledger`). With JOB alone, prints the job's
  round-by-round decision history; with --round R, the full story of
  that round: winning allocation gain vs its runner-ups, rejected
  placement candidates with reasons, and the delta path (replayed
  grant with originating round, solo re-derive, or certificate-failure
  fallback). --summary aggregates the whole run (or one job) instead.
  Exit code 2 when the run carries no provenance or the job/round has
  no record.

DIFF:
  Compares two run directories written with --ledger. Exit code 0 when
  the runs are identical, 1 when they diverge, 2 on error — or when
  the runs cannot be compared line-by-line because an artifact exists
  on only one side (e.g. a provenance.jsonl recorded in one run only).

CHECK-BENCH:
  Judges each trajectory FILE (default: BENCH_sched.json BENCH_fit.json
  BENCH_sim.json): the newest entry against the latest earlier entry
  whose host matches on CPU model, core count, avx512f, rustc and
  refit threads, with the end-to-end benchmark's median/quartile
  verdict at a 10 % bound on every point-metric pair both carry.
  Prints both labels and the host. Entries without a host block are
  never compared. Exit code 1 when a pair is worse, or when nothing is
  gated (no same-host earlier entry, or no shared point); points of
  the newest entry without a baseline are listed as not gated.
";

/// Summarize's grammar. Each mode's spec lists what its usage section
/// documents; all print the whole [`USAGE`] on `--help`.
const SUMMARIZE: Spec = Spec {
    name: "optimus-trace",
    usage: USAGE,
    values: &["--top"],
    switches: &["--no-jobs", "--spans", "--models"],
    positionals: 1..=1,
};

const TIMELINE: Spec = Spec {
    name: "timeline",
    usage: USAGE,
    values: &["--width", "--segments", "--chrome"],
    switches: &[],
    positionals: 1..=1,
};

const WHY: Spec = Spec {
    name: "why",
    usage: USAGE,
    values: &["--round", "--ledger"],
    switches: &["--summary"],
    positionals: 0..=2,
};

const DIFF: Spec = Spec {
    name: "diff",
    usage: USAGE,
    values: &["--ignore"],
    switches: &[],
    positionals: 2..=2,
};

const CHECK_BENCH: Spec = Spec {
    name: "check-bench",
    usage: USAGE,
    values: &[],
    switches: &[],
    positionals: 0..=usize::MAX,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{USAGE}");
        return ExitCode::from(2);
    }
    let (spec, cmd, rest): (&Spec, fn(&Args) -> ExitCode, &[String]) = match args[0].as_str() {
        "timeline" => (&TIMELINE, cmd_timeline, &args[1..]),
        "why" => (&WHY, cmd_why, &args[1..]),
        "diff" => (&DIFF, cmd_diff, &args[1..]),
        "check-bench" => (&CHECK_BENCH, cmd_check_bench, &args[1..]),
        _ => (&SUMMARIZE, cmd_summarize, &args),
    };
    match spec.parse(rest) {
        Ok(parsed) => cmd(&parsed),
        Err(code) => code,
    }
}

// -- summarize --------------------------------------------------------

fn cmd_summarize(args: &Args) -> ExitCode {
    let path = &args.positionals()[0];
    let top: usize = match args.parse_or("--top", 10) {
        Ok(n) => n,
        Err(e) => return cli::fail(e),
    };

    // A directory is a run ledger: print its manifest, then summarize
    // the canonical trace artifact it carries.
    let text = if Path::new(path).is_dir() {
        let run = match ledger::load_run(Path::new(path)) {
            Ok(run) => run,
            Err(e) => {
                return cli::fail(e);
            }
        };
        print_manifest(&run);
        match run.artifacts.get(ledger::TRACE_ARTIFACT) {
            Some(trace) => trace.clone(),
            None => {
                println!("(no {} artifact to summarize)", ledger::TRACE_ARTIFACT);
                return ExitCode::SUCCESS;
            }
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                return cli::fail(format!("{path}: {e}"));
            }
        }
    };

    let mut lines = Vec::new();
    let mut bad = 0usize;
    for raw in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<TraceLine>(raw) {
            Ok(line) => lines.push(line),
            Err(_) => bad += 1,
        }
    }
    if lines.is_empty() {
        return cli::fail(format!(
            "{path}: no parseable trace lines ({bad} unparseable)"
        ));
    }
    if bad > 0 {
        eprintln!("warning: skipped {bad} unparseable lines");
    }
    if let Err(e) = check_versions(&lines) {
        return cli::fail(format!("{path}: {e}"));
    }

    print_overview(path, &lines);
    print_rounds(&lines);
    if !args.has("--no-jobs") {
        print_jobs(&lines);
    }
    if args.has("--models") {
        print_models(&lines);
    }
    print_counters(&lines, top);
    print_histograms(&lines);
    if args.has("--spans") {
        print_spans(&lines);
    }
    ExitCode::SUCCESS
}

/// Rejects traces written by a *newer* schema than this build knows;
/// warns once about legacy lines (missing or older version).
fn check_versions(lines: &[TraceLine]) -> Result<(), String> {
    let mut newer = 0usize;
    let mut legacy = 0usize;
    for line in lines {
        match line.version() {
            Some(v) if v > SCHEMA_VERSION => newer += 1,
            Some(v) if v < SCHEMA_VERSION => legacy += 1,
            None => legacy += 1,
            Some(_) => {}
        }
    }
    if newer > 0 {
        return Err(format!(
            "{newer} lines carry a trace schema newer than this build \
             supports (v{SCHEMA_VERSION}); rebuild optimus-trace"
        ));
    }
    if legacy > 0 {
        eprintln!(
            "warning: {legacy} lines predate trace schema v{SCHEMA_VERSION}; \
             newer fields read as absent"
        );
    }
    Ok(())
}

fn print_manifest(run: &LoadedRun) {
    let m = &run.manifest;
    println!("run: {} ({})", run.dir.display(), m.kind);
    println!(
        "  label {:?}  scheduler {:?}  seed {}  threads {}",
        m.label, m.scheduler, m.seed, m.threads
    );
    println!(
        "  manifest v{}  trace schema v{}  git {}",
        m.manifest_version,
        m.schema_version,
        m.git.as_deref().unwrap_or("<unknown>")
    );
    for a in &m.artifacts {
        println!("  {:>9} lines  {}  {}", a.lines, a.hash, a.name);
    }
    // Saturated histograms mean the recorded tails are clamped: any
    // percentile read from this run's buckets past the bound edge is a
    // lower bound, not an estimate.
    if let Some(summary) = &m.summary {
        for h in summary.saturated_histograms() {
            println!(
                "  SATURATED histogram {}: {} past top bound, {} below bottom",
                h.name,
                h.overflow,
                h.underflow.unwrap_or(0)
            );
        }
    }
    println!();
}

fn print_overview(path: &str, lines: &[TraceLine]) {
    let mut events = 0usize;
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut gauges = 0usize;
    let mut histograms = 0usize;
    for line in lines {
        match line {
            TraceLine::Event { .. } => events += 1,
            TraceLine::Span { .. } => spans += 1,
            TraceLine::Counter { .. } => counters += 1,
            TraceLine::Gauge { .. } => gauges += 1,
            TraceLine::Histogram { .. } => histograms += 1,
        }
    }
    println!("trace: {path}");
    println!(
        "  {events} decision events, {spans} spans, {counters} counters, \
         {gauges} gauges, {histograms} histograms"
    );
}

fn print_rounds(lines: &[TraceLine]) {
    let mut walls = Vec::new();
    let mut last = None;
    for line in lines {
        if let TraceLine::Event {
            event:
                TraceEvent::Round {
                    round,
                    t_s,
                    active_jobs,
                    wall_us,
                },
            ..
        } = line
        {
            walls.push(*wall_us as f64);
            last = Some((*round, *t_s, *active_jobs));
        }
    }
    if walls.is_empty() {
        return;
    }
    walls.sort_by(f64::total_cmp);
    let mean = walls.iter().sum::<f64>() / walls.len() as f64;
    let (rounds, t_s, _) = last.expect("walls non-empty");
    println!("\nscheduling rounds: {rounds} over {t_s:.0} s of simulated time");
    println!(
        "  wall per round: mean {:.0} us, p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, max {:.0} us",
        mean,
        nearest_rank(&walls, 0.50),
        nearest_rank(&walls, 0.95),
        nearest_rank(&walls, 0.99),
        walls[walls.len() - 1],
    );
    // Delta-round accounting (PR 9): how much churn the driver reported
    // and how often whole rounds were provably skippable. The counters
    // exist only on runs recorded by a delta-tracking simulator.
    let counter = |wanted: &str| {
        lines.iter().find_map(|l| match l {
            TraceLine::Counter { name, value, .. } if name == wanted => Some(*value),
            _ => None,
        })
    };
    if let Some(dirty) = counter("round.delta_jobs") {
        let skipped = counter("round.skipped_full").unwrap_or(0);
        let replayed = counter("alloc.replayed_grants").unwrap_or(0);
        println!(
            "  delta rounds: {dirty} dirty views total (mean {:.1}/round), \
             {skipped} of {rounds} rounds skipped whole, {replayed} grants replayed",
            dirty as f64 / rounds.max(1) as f64,
        );
    }
    // Certificate-fallback accounting: not just how often the
    // uncontended certificate failed, but *which resource term* failed
    // it (the `alloc.cert_fail.<term>` counter family).
    if let Some(fallbacks) = counter("alloc.cert_fallbacks") {
        const PREFIX: &str = "alloc.cert_fail.";
        let mut reasons: Vec<(&str, u64)> = lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Counter { name, value, .. } if name.starts_with(PREFIX) => {
                    Some((&name[PREFIX.len()..], *value))
                }
                _ => None,
            })
            .collect();
        reasons.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let detail: Vec<String> = reasons
            .iter()
            .map(|(term, n)| format!("{term} ×{n}"))
            .collect();
        println!(
            "  certificate fallbacks: {fallbacks} (failing term: {})",
            if detail.is_empty() {
                "unknown".to_string()
            } else {
                detail.join(", ")
            }
        );
    }
}

#[derive(Default)]
struct JobDigest {
    timeline: Vec<(f64, String)>,
    speed_fits: usize,
    convergence_fits: usize,
    fit_failures: usize,
}

fn print_jobs(lines: &[TraceLine]) {
    let mut jobs: BTreeMap<u64, JobDigest> = BTreeMap::new();
    for line in lines {
        let event = match line {
            TraceLine::Event { event, .. } => event,
            _ => continue,
        };
        match event {
            TraceEvent::JobEvent { t_s, job, what } => {
                jobs.entry(*job)
                    .or_default()
                    .timeline
                    .push((*t_s, what.clone()));
            }
            TraceEvent::SpeedFit { job, .. } => jobs.entry(*job).or_default().speed_fits += 1,
            TraceEvent::ConvergenceFit { job, .. } => {
                jobs.entry(*job).or_default().convergence_fits += 1
            }
            TraceEvent::FitFailure { job, .. } => jobs.entry(*job).or_default().fit_failures += 1,
            _ => {}
        }
    }
    if jobs.is_empty() {
        return;
    }
    println!("\nper-job timelines:");
    for (id, digest) in &jobs {
        println!(
            "  job {id}: {} speed fits, {} convergence fits, {} fit failures",
            digest.speed_fits, digest.convergence_fits, digest.fit_failures,
        );
        // Collapse runs of identical edges ("paused ×12") to keep long
        // traces readable.
        let mut i = 0;
        while i < digest.timeline.len() {
            let (t, what) = &digest.timeline[i];
            let mut j = i + 1;
            while j < digest.timeline.len() && digest.timeline[j].1 == *what {
                j += 1;
            }
            if j - i > 1 {
                println!("    {t:>9.0} s  {what} ×{}", j - i);
            } else {
                println!("    {t:>9.0} s  {what}");
            }
            i = j;
        }
    }
}

/// The estimator-accuracy audit: per-model signed-error digests (exact
/// percentiles over the recorded samples, not bucketed), the rolling
/// calibration scores, and the worst-audited jobs.
fn print_models(lines: &[TraceLine]) {
    let mut by_model: BTreeMap<&str, Vec<(u64, f64)>> = BTreeMap::new();
    for line in lines {
        if let TraceLine::Event {
            event:
                TraceEvent::EstimatorSample {
                    job,
                    model,
                    rel_err,
                    ..
                },
            ..
        } = line
        {
            by_model
                .entry(model.as_str())
                .or_default()
                .push((*job, *rel_err));
        }
    }
    println!("\nestimator audit:");
    if by_model.is_empty() {
        println!("  (no EstimatorSample events — run with telemetry or --ledger)");
        return;
    }
    let gauge = |name: &str| {
        lines.iter().find_map(|l| match l {
            TraceLine::Gauge { name: n, value, .. } if n == name => Some(*value),
            _ => None,
        })
    };
    for (model, samples) in &by_model {
        let errs: Vec<f64> = samples.iter().map(|&(_, e)| e).collect();
        let (p50, p95, p99) = p50_p95_p99(&errs);
        let calibration = gauge(&format!("audit.{model}_calibration"));
        println!(
            "  {model}: n={} mean signed err {:+.3}, p50 {:+.3}, p95 {:+.3}, p99 {:+.3}{}",
            errs.len(),
            mean(&errs),
            p50,
            p95,
            p99,
            match calibration {
                Some(c) => format!(", calibration {c:.3}"),
                None => String::new(),
            }
        );
        // Worst jobs by mean |signed error|.
        let mut per_job: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(job, err) in samples {
            per_job.entry(job).or_default().push(err.abs());
        }
        let mut ranked: Vec<(u64, f64, usize)> = per_job
            .iter()
            .map(|(&job, errs)| (job, mean(errs), errs.len()))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (job, mean_abs, n) in ranked.iter().take(3) {
            println!("    worst: job {job} mean |err| {mean_abs:.3} over {n} samples");
        }
    }
}

fn print_counters(lines: &[TraceLine], top: usize) {
    let mut counters: Vec<(&str, u64)> = lines
        .iter()
        .filter_map(|l| match l {
            TraceLine::Counter { name, value, .. } => Some((name.as_str(), *value)),
            _ => None,
        })
        .collect();
    if counters.is_empty() {
        return;
    }
    counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\ntop counters:");
    for (name, value) in counters.iter().take(top) {
        println!("  {value:>12}  {name}");
    }
    if counters.len() > top {
        println!("  ... and {} more", counters.len() - top);
    }
}

fn print_histograms(lines: &[TraceLine]) {
    let mut any = false;
    for line in lines {
        if let TraceLine::Histogram {
            name,
            bounds,
            counts,
            count,
            sum,
            min,
            max,
            underflow,
            ..
        } = line
        {
            if !any {
                println!("\nhistograms:");
                any = true;
            }
            let mean = if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            };
            let overflow = counts.last().copied().unwrap_or(0);
            // Legacy traces (schema < 3) carry no underflow count —
            // treat it as unknown-zero for display.
            let underflow = underflow.unwrap_or(0);
            let saturation = match (overflow > 0, underflow > 0) {
                (true, true) => format!(
                    "  SATURATED ({overflow} past top bound, {underflow} below bottom; \
                     edge quantiles clamped)"
                ),
                (true, false) => {
                    format!("  SATURATED ({overflow} past top bound; tail quantiles clamped)")
                }
                (false, true) => {
                    format!("  SATURATED ({underflow} below bottom bound; low quantiles clamped)")
                }
                (false, false) => String::new(),
            };
            println!(
                "  {name}: n={count} mean={mean:.1} p50={:.1} p95={:.1} p99={:.1} max={max:.1}{saturation}",
                bucket_quantile(bounds, counts, *count, *min, *max, 0.50),
                bucket_quantile(bounds, counts, *count, *min, *max, 0.95),
                bucket_quantile(bounds, counts, *count, *min, *max, 0.99),
            );
        }
    }
}

fn print_spans(lines: &[TraceLine]) {
    struct Agg {
        count: usize,
        total_us: u64,
        durs_us: Vec<f64>,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for line in lines {
        if let TraceLine::Span { name, dur_us, .. } = line {
            let agg = by_name.entry(name.as_str()).or_insert(Agg {
                count: 0,
                total_us: 0,
                durs_us: Vec::new(),
            });
            agg.count += 1;
            agg.total_us += dur_us;
            agg.durs_us.push(*dur_us as f64);
        }
    }
    if by_name.is_empty() {
        return;
    }
    // Per-name latency percentiles: `sched.decision` here is the
    // per-round decision latency (one span per scheduling round).
    println!("\nspans:");
    for (name, agg) in by_name.iter_mut() {
        agg.durs_us.sort_by(f64::total_cmp);
        println!(
            "  {name}: n={} total={} us mean={:.0} us p50={:.0} us p95={:.0} us p99={:.0} us max={:.0} us",
            agg.count,
            agg.total_us,
            agg.total_us as f64 / agg.count as f64,
            nearest_rank(&agg.durs_us, 0.50),
            nearest_rank(&agg.durs_us, 0.95),
            nearest_rank(&agg.durs_us, 0.99),
            agg.durs_us[agg.durs_us.len() - 1],
        );
    }
}

// -- timeline ---------------------------------------------------------

/// `timeline RUN_DIR`: the per-job Gantt from the run's event log plus
/// the utilization timeline from its flight-recorder snapshots.
fn cmd_timeline(args: &Args) -> ExitCode {
    let dir = &args.positionals()[0];
    let width: usize = match args.parse_or("--width", optimus::timeline::DEFAULT_WIDTH) {
        Ok(w) => w,
        Err(e) => return cli::fail(e),
    };
    let run = match ledger::load_run(Path::new(dir)) {
        Ok(run) => run,
        Err(e) => {
            return cli::fail(e);
        }
    };
    let render = || -> Result<(), String> {
        println!("timeline: {} ({:?})", run.dir.display(), run.manifest.label);
        match run.artifacts.get(ledger::EVENTS_ARTIFACT) {
            Some(body) => {
                let events = optimus::timeline::parse_events(body)?;
                print!("{}", optimus::timeline::render_gantt(&events, width));
                if let Some(path) = args.value("--segments") {
                    std::fs::write(path, optimus::timeline::segments_json_lines(&events))
                        .map_err(|e| format!("{path}: {e}"))?;
                    eprintln!("gantt segments written to {path}");
                }
            }
            None => println!(
                "(no {} artifact — re-record with --ledger)",
                ledger::EVENTS_ARTIFACT
            ),
        }
        println!();
        match run.artifacts.get(ledger::FLIGHT_ARTIFACT) {
            Some(body) => {
                let log = optimus::telemetry::FlightLog::from_json_lines(body)
                    .map_err(|e| format!("{}: {e}", ledger::FLIGHT_ARTIFACT))?;
                print!("{}", optimus::timeline::render_utilization(&log, width));
                if let Some(path) = args.value("--chrome") {
                    std::fs::write(path, log.to_chrome_counter_tracks())
                        .map_err(|e| format!("{path}: {e}"))?;
                    eprintln!("chrome counter tracks written to {path}");
                }
            }
            None => println!(
                "(no {} artifact — this run predates the flight recorder \
                 or ran without it)",
                ledger::FLIGHT_ARTIFACT
            ),
        }
        Ok(())
    };
    render().map_or_else(cli::fail, |()| ExitCode::SUCCESS)
}

// -- why --------------------------------------------------------------

/// `why [JOB] RUN_DIR [--round R] [--summary]`: explain a job's
/// decisions from the run's decision-provenance ledger.
fn cmd_why(args: &Args) -> ExitCode {
    let round: Option<u64> = match args.parse("--round") {
        Ok(r) => r,
        Err(e) => return cli::fail(e),
    };
    let summary = args.has("--summary");
    // The first numeric positional is the job; the other is the run
    // directory, which `--ledger` may name instead.
    let mut dir = args.value("--ledger");
    let mut job: Option<u64> = None;
    for arg in args.positionals() {
        match arg.parse() {
            Ok(j) if job.is_none() => job = Some(j),
            _ if dir.is_none() => dir = Some(arg),
            _ => return cli::fail(format!("unexpected argument for why: {arg}")),
        }
    }
    let Some(dir) = dir else {
        return cli::fail("missing RUN_DIR for why (see --help)");
    };
    if job.is_none() && !summary {
        return cli::fail("why needs a JOB id, or --summary for run-wide aggregates");
    }
    let run = match ledger::load_run(Path::new(dir)) {
        Ok(run) => run,
        Err(e) => {
            return cli::fail(e);
        }
    };
    let Some(body) = run.artifacts.get(ledger::PROVENANCE_ARTIFACT) else {
        return cli::fail(format!(
            "{}: no {} artifact — this run predates decision provenance; \
             re-record with `optimus-sim run --ledger`",
            run.dir.display(),
            ledger::PROVENANCE_ARTIFACT
        ));
    };
    let records = match parse_why_lines(body) {
        Ok(r) => r,
        Err(e) => return cli::fail(format!("{}: {e}", run.dir.display())),
    };
    if let Some(v) = records.iter().filter_map(|r| r.v).max() {
        if v > SCHEMA_VERSION {
            return cli::fail(format!(
                "provenance records carry schema v{v}, newer than this \
                 build supports (v{SCHEMA_VERSION}); rebuild optimus-trace"
            ));
        }
    }
    if summary {
        print_why_summary(&run, &records, job);
        return ExitCode::SUCCESS;
    }
    let job = job.expect("checked above");
    let of_job: Vec<&WhyRecord> = records.iter().filter(|r| r.job == job).collect();
    if of_job.is_empty() {
        return cli::fail(format!(
            "job {job} has no provenance records in {} \
             (jobs present: {})",
            run.dir.display(),
            known_jobs(&records)
        ));
    }
    match round {
        None => print_why_history(&run, job, &of_job),
        Some(round) => {
            let Some(rec) = of_job.iter().find(|r| r.round == round) else {
                let rounds: Vec<String> = of_job.iter().map(|r| r.round.to_string()).collect();
                return cli::fail(format!(
                    "job {job} has no record for round {round} \
                     (rounds with records: {})",
                    rounds.join(", ")
                ));
            };
            print_why_detail(&run, rec, &records);
        }
    }
    ExitCode::SUCCESS
}

/// A short comma list of the distinct jobs present in the records.
fn known_jobs(records: &[WhyRecord]) -> String {
    let mut jobs: Vec<u64> = records.iter().map(|r| r.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    let mut shown: Vec<String> = jobs.iter().take(20).map(u64::to_string).collect();
    if jobs.len() > shown.len() {
        shown.push(format!("… {} total", jobs.len()));
    }
    shown.join(", ")
}

/// One-word delta-path tag for history rows.
fn delta_tag(delta: &DeltaWhy) -> String {
    match delta {
        DeltaWhy::Full => "full".into(),
        DeltaWhy::Replay { origin_round, .. } => format!("replay←r{origin_round}"),
        DeltaWhy::Derive { .. } => "derive".into(),
        DeltaWhy::Fallback { term, .. } => format!("fallback({term})"),
        DeltaWhy::Precondition { reason } => format!("full({reason})"),
    }
}

/// `why JOB RUN_DIR`: the job's round-by-round decision history.
fn print_why_history(run: &LoadedRun, job: u64, recs: &[&WhyRecord]) {
    println!(
        "why: job {job} in {} — {} rounds with records",
        run.dir.display(),
        recs.len()
    );
    println!(
        "  {:>6}  {:>4} {:>8}  {:<14} {:<26} winning gain",
        "round", "ps", "workers", "path", "placed"
    );
    for rec in recs {
        let placed = match &rec.place {
            Some(p) if p.ps + p.workers > 0 => format!(
                "{} ps × {} workers on {} srv{}{}",
                p.ps,
                p.workers,
                p.servers,
                if p.shrunk > 0 {
                    format!(" (-{})", p.shrunk)
                } else {
                    String::new()
                },
                if p.replayed { " [replayed]" } else { "" },
            ),
            Some(_) => "unplaced".into(),
            None => "-".into(),
        };
        let gain = match &rec.alloc {
            Some(a) => format!("{:.4} ({})", a.gain, a.action),
            None => "-".into(),
        };
        println!(
            "  {:>6}  {:>4} {:>8}  {:<14} {:<26} {}",
            rec.round,
            rec.ps,
            rec.workers,
            delta_tag(&rec.delta),
            placed,
            gain
        );
    }
    println!("\n(use --round R for the full story of one round)");
}

/// `why JOB RUN_DIR --round R`: the full story of one decision.
fn print_why_detail(run: &LoadedRun, rec: &WhyRecord, all: &[WhyRecord]) {
    println!(
        "why: job {} round {} in {}",
        rec.job,
        rec.round,
        run.dir.display()
    );
    println!("  grant: {} ps × {} workers", rec.ps, rec.workers);

    println!("\nallocation:");
    match &rec.alloc {
        Some(a) => {
            println!(
                "  winning gain {:.6} on \"{}\" \
                 (dominant share: worker {:.4}, ps {:.4})",
                a.gain, a.action, a.dom_worker, a.dom_ps
            );
            println!(
                "  priority: factor {}, young-job damping {}",
                a.priority_factor,
                if a.young { "on" } else { "off" }
            );
            if a.runners_up.is_empty() {
                println!("  runners-up: none (no live rival candidate at grant time)");
            } else {
                println!("  runners-up beaten (best first):");
                for r in &a.runners_up {
                    println!(
                        "    job {} \"{}\" gain {:.6}  (margin {:+.6})",
                        r.job,
                        r.action,
                        r.gain,
                        a.gain - r.gain
                    );
                }
            }
        }
        None => println!(
            "  no fresh allocation story this round — the grant was replayed \
             or starter-only (see the delta path below)"
        ),
    }

    println!("\nplacement:");
    match &rec.place {
        Some(p) if p.ps + p.workers > 0 => {
            println!(
                "  placed {} ps × {} workers across {} server(s){}{}",
                p.ps,
                p.workers,
                p.servers,
                if p.shrunk > 0 {
                    format!(", {} task(s) shed by shrink retries", p.shrunk)
                } else {
                    String::new()
                },
                if p.replayed {
                    " [layout replayed from the previous round]"
                } else {
                    ""
                },
            );
            print_rejections(p.rejections, &p.rejected);
        }
        Some(p) => {
            println!("  unplaced — paused for this interval (§4.2)");
            print_rejections(p.rejections, &p.rejected);
        }
        None => println!("  job was not handed to the placer this round"),
    }

    println!("\ndelta path:");
    match &rec.delta {
        DeltaWhy::Full => println!("  full allocation pass"),
        DeltaWhy::Replay {
            origin_round,
            slack,
            term,
        } => {
            println!(
                "  grant replayed unchanged from round {origin_round} \
                 (uncontended certificate held; binding term \"{term}\"{})",
                fmt_slack(*slack)
            );
            match all
                .iter()
                .find(|r| r.round == *origin_round && r.job == rec.job)
            {
                Some(origin) => println!(
                    "  originating round {} was decided by: {}",
                    origin_round,
                    delta_tag(&origin.delta)
                ),
                None => println!("  (originating round {origin_round} has no record in this run)"),
            }
        }
        DeltaWhy::Derive { slack, term } => println!(
            "  grant re-derived by an independent solo climb — the job was \
             dirty but the certificate held (binding term \"{term}\"{})",
            fmt_slack(*slack)
        ),
        DeltaWhy::Fallback {
            term,
            used,
            max_unit,
            total,
            slack,
        } => println!(
            "  full-pass fallback: certificate term \"{term}\" failed \
             (used {used:.2} + 2 × max unit {max_unit:.2} > total {total:.2}; \
             slack {slack:.2})"
        ),
        DeltaWhy::Precondition { reason } => println!(
            "  full pass forced before the certificate was consulted: \
             precondition \"{reason}\""
        ),
    }
}

/// Renders a certificate slack unless it is the "no applicable term"
/// sentinel (`f64::MAX`).
fn fmt_slack(slack: f64) -> String {
    if slack >= f64::MAX {
        String::new()
    } else {
        format!(", slack {slack:.2}")
    }
}

fn print_rejections(total: u64, rejected: &[PlaceReject]) {
    if total == 0 {
        println!("  rejections: none — the first probed layout won");
        return;
    }
    println!("  rejections before this layout won: {total}");
    for r in rejected {
        match r {
            PlaceReject::KPrefix { k } => {
                println!("    k-prefix bound: no feasible split on a {k}-server prefix")
            }
            PlaceReject::AggregateEarlyExit { servers } => println!(
                "    aggregate early exit: total free capacity over {servers} \
                 indexed server(s) cannot cover the job"
            ),
            PlaceReject::Capacity { ps, workers } => println!(
                "    capacity: whole configuration {ps} ps × {workers} workers \
                 shed, job shrunk"
            ),
        }
    }
    if (rejected.len() as u64) < total {
        println!(
            "    … and {} more (not retained)",
            total - rejected.len() as u64
        );
    }
}

/// `why --summary`: run-wide (or one-job) aggregates over the ledger.
fn print_why_summary(run: &LoadedRun, records: &[WhyRecord], job: Option<u64>) {
    let recs: Vec<&WhyRecord> = records
        .iter()
        .filter(|r| job.is_none_or(|j| r.job == j))
        .collect();
    match job {
        Some(j) => println!(
            "why summary: job {j} in {} — {} records",
            run.dir.display(),
            recs.len()
        ),
        None => println!(
            "why summary: {} — {} records, {} jobs",
            run.dir.display(),
            recs.len(),
            known_jobs(records)
        ),
    }
    if recs.is_empty() {
        return;
    }

    let (mut full, mut replay, mut derive, mut fallback, mut precond) = (0u64, 0, 0, 0, 0);
    let mut cert_terms: BTreeMap<&str, u64> = BTreeMap::new();
    let mut fail_terms: BTreeMap<&str, u64> = BTreeMap::new();
    let mut precond_reasons: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in &recs {
        match &rec.delta {
            DeltaWhy::Full => full += 1,
            DeltaWhy::Replay { term, .. } => {
                replay += 1;
                *cert_terms.entry(term.as_str()).or_insert(0) += 1;
            }
            DeltaWhy::Derive { term, .. } => {
                derive += 1;
                *cert_terms.entry(term.as_str()).or_insert(0) += 1;
            }
            DeltaWhy::Fallback { term, .. } => {
                fallback += 1;
                *fail_terms.entry(term.as_str()).or_insert(0) += 1;
            }
            DeltaWhy::Precondition { reason } => {
                precond += 1;
                *precond_reasons.entry(reason.as_str()).or_insert(0) += 1;
            }
        }
    }
    println!("\ndelta paths:");
    println!("  {full:>8}  full pass");
    println!("  {replay:>8}  replayed grants");
    println!("  {derive:>8}  solo re-derives");
    println!("  {fallback:>8}  certificate fallbacks");
    println!("  {precond:>8}  precondition full passes");
    let fmt_terms = |terms: &BTreeMap<&str, u64>| {
        terms
            .iter()
            .map(|(t, n)| format!("{t} ×{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if !cert_terms.is_empty() {
        println!("  binding certificate terms: {}", fmt_terms(&cert_terms));
    }
    if !fail_terms.is_empty() {
        println!("  failing certificate terms: {}", fmt_terms(&fail_terms));
    }
    if !precond_reasons.is_empty() {
        println!("  preconditions: {}", fmt_terms(&precond_reasons));
    }

    // Winning-margin distribution: how close the beaten runner-up came.
    let mut margins: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.alloc.as_ref())
        .filter_map(|a| a.runners_up.first().map(|r| a.gain - r.gain))
        .collect();
    if !margins.is_empty() {
        margins.sort_by(f64::total_cmp);
        println!(
            "\nallocation margins over the best runner-up ({} contested grants):",
            margins.len()
        );
        println!(
            "  mean {:.6}, p50 {:.6}, p95 {:.6}, max {:.6}",
            margins.iter().sum::<f64>() / margins.len() as f64,
            nearest_rank(&margins, 0.50),
            nearest_rank(&margins, 0.95),
            margins[margins.len() - 1],
        );
    }

    let mut rejections = 0u64;
    let (mut kprefix, mut aggregate, mut capacity) = (0u64, 0u64, 0u64);
    let mut placed = 0u64;
    let mut unplaced = 0u64;
    for rec in &recs {
        let Some(p) = &rec.place else { continue };
        if p.ps + p.workers > 0 {
            placed += 1;
        } else {
            unplaced += 1;
        }
        rejections += p.rejections;
        for r in &p.rejected {
            match r {
                PlaceReject::KPrefix { .. } => kprefix += 1,
                PlaceReject::AggregateEarlyExit { .. } => aggregate += 1,
                PlaceReject::Capacity { .. } => capacity += 1,
            }
        }
    }
    println!("\nplacement: {placed} placed, {unplaced} unplaced, {rejections} candidates rejected");
    if rejections > 0 {
        println!(
            "  retained rejection reasons: k-prefix ×{kprefix}, \
             aggregate early exit ×{aggregate}, capacity ×{capacity}"
        );
    }
}

// -- diff -------------------------------------------------------------

fn cmd_diff(args: &Args) -> ExitCode {
    // `--ignore NAME` (repeatable) drops an artifact from the
    // comparison. The intended use is cross-oracle diffs: a ledger
    // written from `Simulation::run_reference` has the production
    // run's decision artifacts byte for byte but its own accounting
    // counters in `trace.jsonl`, which a determinism check across the
    // two must not read as divergence.
    let ignored: Vec<&str> = args.values("--ignore").collect();
    let dirs = args.positionals();
    let load = |p: &str| ledger::load_run(Path::new(p));
    let (a, b) = match (load(&dirs[0]), load(&dirs[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return cli::fail(e);
        }
    };
    if a.manifest.schema_version != b.manifest.schema_version {
        eprintln!(
            "warning: runs were recorded with different trace schemas \
             (v{} vs v{})",
            a.manifest.schema_version, b.manifest.schema_version
        );
    }
    let mut diff = ledger::diff_runs(&a, &b);
    if !ignored.is_empty() {
        diff.differing.retain(|n| !ignored.contains(&n.as_str()));
        diff.only_in_one
            .retain(|(n, _)| !ignored.contains(&n.as_str()));
        diff.identical = diff.differing.is_empty() && diff.only_in_one.is_empty();
        if let Some(d) = &diff.divergence {
            if ignored.contains(&d.artifact.as_str()) {
                diff.divergence = None;
            }
        }
    }
    println!("diff: {} vs {}", a.dir.display(), b.dir.display());
    for name in &ignored {
        println!("  ~ {name} (ignored)");
    }
    for name in &diff.matching {
        println!("  = {name}");
    }
    for name in &diff.differing {
        println!("  ! {name}");
    }
    for (name, which) in &diff.only_in_one {
        println!("  ? {name} (only in run {which})");
    }
    if diff.identical {
        println!(
            "runs are identical ({} artifacts match)",
            diff.matching.len()
        );
        return ExitCode::SUCCESS;
    }
    // Artifact asymmetry with no shared artifact differing: there is no
    // line-by-line divergence to localize — one run simply recorded an
    // artifact the other did not (e.g. provenance.jsonl on one side
    // only). That is a comparability error, not a decision divergence.
    if diff.differing.is_empty() && !diff.only_in_one.is_empty() {
        for (name, which) in &diff.only_in_one {
            let (has, lacks) = match which {
                'a' => (&dirs[0], &dirs[1]),
                _ => (&dirs[1], &dirs[0]),
            };
            println!(
                "runs are not comparable: {has} recorded {name} but {lacks} did not \
                 (all {} shared artifacts match)",
                diff.matching.len()
            );
        }
        return ExitCode::from(2);
    }
    if let Some(d) = &diff.divergence {
        println!("\nfirst divergence: {}:{}", d.artifact, d.line);
        if let (Some(round), Some(t)) = (d.round, d.t) {
            println!("  round {round} at t = {t:.0} s");
        } else if let Some(t) = d.t {
            println!("  t = {t:.0} s");
        }
        if let Some(job) = d.job {
            println!("  job {job}");
        }
        println!("  A: {}", d.kind_a);
        println!("  B: {}", d.kind_b);
        println!("\n--- {}", a.dir.display());
        for line in &d.context_a {
            println!("  {line}");
        }
        println!("+++ {}", b.dir.display());
        for line in &d.context_b {
            println!("  {line}");
        }
        if !d.trace_context_a.is_empty() || !d.trace_context_b.is_empty() {
            println!("\ndecision trace at round {}:", d.round.unwrap_or(0));
            println!("--- {}", a.dir.display());
            for line in &d.trace_context_a {
                println!("  {line}");
            }
            println!("+++ {}", b.dir.display());
            for line in &d.trace_context_b {
                println!("  {line}");
            }
        }
    }
    ExitCode::from(1)
}

// -- check-bench ------------------------------------------------------

/// The trajectories `check-bench` reads when given no file.
const BENCH_FILES: [&str; 3] = ["BENCH_sched.json", "BENCH_fit.json", "BENCH_sim.json"];

/// The regression bound every point-metric pair is judged against.
const BENCH_BOUND: f64 = 0.10;

fn cmd_check_bench(args: &Args) -> ExitCode {
    let files: Vec<&str> = if args.positionals().is_empty() {
        BENCH_FILES.to_vec()
    } else {
        args.positionals().iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for path in files {
        match check_bench_file(path) {
            Ok(passed) => failed |= !passed,
            Err(e) => {
                return cli::fail(e);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Judges the newest entry of one trajectory against the latest earlier
/// entry from the same host, with the benchmark's median/quartile
/// verdict on every point-metric pair both carry. Returns whether the
/// file passes: no pair is worse past [`BENCH_BOUND`] and at least one
/// pair was judged.
fn check_bench_file(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let entries = value
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of bench entries"))?;
    // Entries without a host block predate the host-aware format and
    // are never compared.
    let hosted: Vec<Entry> = entries
        .iter()
        .filter(|e| e.get("host").is_some())
        .map(serde_json::from_value)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    let newest_hosted = entries.last().is_some_and(|e| e.get("host").is_some());
    let Some((newest, earlier)) = hosted.split_last().filter(|_| newest_hosted) else {
        println!("check-bench: {path}: FAIL: no entry, or the newest has no host block");
        return Ok(false);
    };
    let host = newest.host.line();
    let Some(base) = earlier
        .iter()
        .rev()
        .find(|e| same_host(&e.host, &newest.host))
    else {
        println!(
            "check-bench: {path}: FAIL: newest entry {:?} has no earlier entry on its {host}",
            newest.label
        );
        return Ok(false);
    };
    println!(
        "check-bench: {path}: newest {:?} vs {:?}, {host}",
        newest.label, base.label
    );
    let show = |s: &compare::Side| {
        let sig = compare::sig;
        format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3))
    };
    let (mut gated, mut worse) = (0usize, 0usize);
    for point in &newest.points {
        let base_point = base.points.iter().find(|p| p.key == point.key);
        for metric in &point.metrics {
            let Some(base_metric) =
                base_point.and_then(|p| p.metrics.iter().find(|m| m.name == metric.name))
            else {
                println!(
                    "check-bench: {path}: not gated, no same-host baseline: {} ({})",
                    point.key, metric.name
                );
                continue;
            };
            let (b, n) = (base_metric.side(), metric.side());
            let verdict = compare::verdict(metric.higher_is_better(), &b, &n, BENCH_BOUND);
            gated += 1;
            println!(
                "  {:<46} {:<28} {:>30} -> {:>30} {} {:>7.4}  {verdict}",
                point.key,
                metric.name,
                show(&b),
                show(&n),
                metric.unit,
                n.median / b.median,
            );
            if verdict == compare::Verdict::Worse {
                worse += 1;
                eprintln!(
                    "check-bench: {path}: WORSE at {}: {} median {} vs {} {}",
                    point.key,
                    metric.name,
                    compare::sig(n.median),
                    compare::sig(b.median),
                    metric.unit
                );
            }
        }
    }
    println!(
        "check-bench: {path}: {gated} point-metric pair(s) judged at a {:.0} % bound, \
         {worse} worse",
        BENCH_BOUND * 100.0
    );
    if gated == 0 {
        println!("check-bench: {path}: FAIL: nothing gated on {host}");
    }
    Ok(gated > 0 && worse == 0)
}
