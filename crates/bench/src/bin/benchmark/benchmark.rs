//! `benchmark` — the end-to-end benchmark of the Optimus reproduction.
//!
//! Five workloads (see `README.md` beside this file for why each
//! exists) are timed end to end; outputs are checked for correctness;
//! an optional traced run attributes wall time to the program's layers
//! by timing calls into them from this file's own spans.
//!
//! ```text
//! benchmark [--workloads LIST | --workload NAME] [--seed S]
//!           [--samples N | --seconds S] [--trace 0|1|DIR] [--json FILE]
//! benchmark --smoke
//! benchmark --compare BASE.json NEW.json [--bounds BENCHMARK.json]
//! ```
//!
//! Every sample runs in a fresh child process (this binary re-executed
//! with `--one NAME`), one at a time, with the workloads interleaved
//! round-robin so host drift spreads over all of them; each workload
//! first gets one discarded smoke-size warm-up. With one workload
//! selected, the last line of standard output is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, each the best of the run's timed samples, or with tracing
//! on the per-layer ones.
//!
//! Exit status: 0 when every correctness gate passed, 1 when one
//! failed, 2 on a usage error or an `OPTIMUS_*` variable in the
//! environment (they switch the simulator's code paths).

mod compare;
mod host;
mod layers;
mod stats;
mod workloads;

use host::Host;
use serde_json::Value;
use stats::{percentile, quartiles, tail_percentile};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Sample, Workload};

/// A metric's name, unit and direction.
struct Def {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured with tracing off.
const E2E: &[Def] = &[
    higher("sim_s_per_wall_s", "sim-s/s"),
    lower("decision_p50_ms", "ms"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run except `setup.*`,
/// `sched.decision_p99_ms` and the overheads, which come from timed
/// runs.
const LAYERS: &[Def] = &[
    lower("setup.generate_ms", "ms"),
    lower("setup.sim_new_ms", "ms"),
    lower("sim.run_ms", "ms"),
    lower("sim.engine_self_ms", "ms"),
    lower("sim.engine_share", "ratio"),
    lower("sim.us_per_event", "us"),
    lower("sim.waves", "count"),
    lower("sim.events_scheduled", "count"),
    lower("sim.rounds", "count"),
    lower("sim.rounds_empty", "count"),
    lower("refit.ms", "ms"),
    lower("refit.share", "ratio"),
    lower("refit.fits", "count"),
    higher("refit.fits_per_round", "count"),
    lower("refit.us_per_fit", "us"),
    higher("refit.dirty_skipped", "count"),
    lower("refit.nnls_solves_per_fit", "count"),
    higher("refit.warm_start_hit_ratio", "ratio"),
    lower("sched.decision_p99_ms", "ms"),
    lower("sched.round_ms", "ms"),
    lower("sched.share", "ratio"),
    lower("sched.self_ms", "ms"),
    lower("sched.views_per_round", "count"),
    lower("sched.dirty_share", "ratio"),
    higher("sched.skipped_rounds", "count"),
    higher("sched.replayed_grants_per_round", "count"),
    lower("sched.alloc_full_share", "ratio"),
    higher("sched.place_reused_share", "ratio"),
    lower("alloc.ms", "ms"),
    lower("alloc.gain_evals_per_round", "count"),
    lower("alloc.heap_pops_per_round", "count"),
    lower("alloc.stale_skip_ratio", "ratio"),
    lower("alloc.cert_fallbacks", "count"),
    lower("place.ms", "ms"),
    lower("place.index_updates_per_round", "count"),
    lower("place.packing_retries_per_round", "count"),
    lower("paa.rebalance_moves", "count"),
    lower("recorder.overhead_pct", "%"),
    lower("recorder.export_ms", "ms"),
    lower("recorder.why_records", "count"),
    lower("recorder.flight_snapshots", "count"),
    lower("recorder.trace_records", "count"),
    lower("trace.overhead_pct", "%"),
    lower("outcome.avg_jct_s", "s"),
    lower("outcome.makespan_s", "s"),
];

#[derive(Debug, PartialEq)]
enum Mode {
    Run(Plan),
    One {
        workload: Workload,
        seed: u64,
        smoke: bool,
        traced: bool,
        spans: Option<PathBuf>,
    },
    Compare {
        base: String,
        new: String,
        bounds: String,
    },
    Help,
}

#[derive(Debug, PartialEq)]
struct Plan {
    workloads: Vec<Workload>,
    seed: u64,
    smoke: bool,
    budget: Budget,
    trace: Trace,
    json: Option<PathBuf>,
}

/// How many timed samples each workload gets.
#[derive(Debug, PartialEq)]
enum Budget {
    Samples(usize),
    /// As many as fill this many seconds at the workload's nominal
    /// sample time (see [`Plan::samples`]).
    Seconds(f64),
}

/// A traced run's wall time, in nominal samples of its workload.
const TRACED_COST: f64 = 1.5;

impl Plan {
    /// Whether `testbed-dense` runs only beside `testbed-ledger`: the
    /// recorders' overhead compares the two, so with tracing on it gets
    /// as many samples as `testbed-ledger`.
    fn companion(&self) -> bool {
        self.trace != Trace::Off
            && self.workloads.contains(&Workload::TestbedLedger)
            && !self.workloads.contains(&Workload::TestbedDense)
    }

    /// Timed samples of `w`. `--seconds S` buys as many as fill S at the
    /// workload's nominal sample time, after the traced run and the
    /// companion's samples. The count depends neither on how fast the
    /// commit is nor on how busy the host is, so the best sample of one
    /// run compares like with like against another's. At least three
    /// samples, or one beside a traced run.
    fn samples(&self, w: Workload) -> usize {
        let seconds = match self.budget {
            Budget::Samples(n) => return n,
            Budget::Seconds(s) => s,
        };
        if self.companion() && w == Workload::TestbedDense {
            return self.samples(Workload::TestbedLedger);
        }
        let mut each = w.nominal_s();
        if self.companion() && w == Workload::TestbedLedger {
            each += Workload::TestbedDense.nominal_s();
        }
        let (left, least) = if self.trace == Trace::Off {
            (seconds, 3)
        } else {
            (seconds - TRACED_COST * w.nominal_s(), 1)
        };
        ((left / each) as usize).max(least)
    }
}

#[derive(Debug, PartialEq)]
enum Trace {
    Off,
    /// One traced run per workload; per-layer metrics only.
    On,
    /// As `On`, also writing spans and `layers.json` to the directory.
    Dir(PathBuf),
}

const USAGE: &str = "\
benchmark — end-to-end benchmark with per-layer attribution

USAGE:
  benchmark [--workloads LIST | --workload NAME] [--seed S]
            [--samples N | --seconds S] [--trace 0|1|DIR] [--json FILE]
  benchmark --smoke
  benchmark --compare BASE.json NEW.json [--bounds BENCHMARK.json]

  --workloads LIST  comma-separated: testbed-dense, testbed-ledger,
                    cluster-steady, sparse-quarter, sched-churn (default all)
  --seed S          workload seed (default 17)
  --samples N       timed samples per workload (default 5)
  --seconds S       instead: as many samples as fill S seconds at each
                    workload's nominal sample time, traced run included
  --trace 0|1|DIR   one extra traced run per workload; DIR also receives
                    <workload>.spans.jsonl and layers.json
  --json FILE       write every summary, layer table and the host block
  --smoke           every workload at a tenth of its size, all gates on
  --compare A B     verdict per workload and metric against the bounds";

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut seed = 17u64;
    let mut selected: Option<Vec<Workload>> = None;
    let (mut samples, mut seconds) = (None, None);
    let mut trace = None;
    let mut json = None;
    let (mut smoke, mut traced) = (false, false);
    let (mut one, mut spans, mut compare) = (None, None, None);
    let mut bounds = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        match flag {
            "--seed" => {
                let v = next_value(&mut it, flag)?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects a non-negative integer, got {v:?}"))?;
            }
            "--workloads" | "--workload" => {
                let list = next_value(&mut it, flag)?;
                selected = Some(
                    list.split(',')
                        .map(|s| parse_workload(s.trim()))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--samples" => {
                let v = next_value(&mut it, flag)?;
                samples =
                    Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--samples expects a positive integer, got {v:?}")
                    })?);
            }
            "--seconds" => {
                let v = next_value(&mut it, flag)?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("--seconds expects a positive number, got {v:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match next_value(&mut it, flag)? {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    dir => Trace::Dir(PathBuf::from(dir)),
                });
            }
            "--json" => json = Some(PathBuf::from(next_value(&mut it, flag)?)),
            "--smoke" => smoke = true,
            "--one" => one = Some(parse_workload(next_value(&mut it, flag)?)?),
            "--traced" => traced = true,
            "--spans" => spans = Some(PathBuf::from(next_value(&mut it, flag)?)),
            "--compare" => {
                let base = next_value(&mut it, flag)?.to_string();
                let new = next_value(&mut it, flag)?.to_string();
                compare = Some((base, new));
            }
            "--bounds" => bounds = next_value(&mut it, flag)?.to_string(),
            "-h" | "--help" => return Ok(Mode::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if samples.is_some() && seconds.is_some() {
        return Err("--samples and --seconds are exclusive".into());
    }
    if let Some((base, new)) = compare {
        return Ok(Mode::Compare { base, new, bounds });
    }
    if let Some(workload) = one {
        return Ok(Mode::One {
            workload,
            seed,
            smoke,
            traced,
            spans,
        });
    }
    let budget = match (samples, seconds) {
        (_, Some(s)) => Budget::Seconds(s),
        (Some(n), _) => Budget::Samples(n),
        (None, None) => Budget::Samples(if smoke { 2 } else { 5 }),
    };
    let trace = trace.unwrap_or(if smoke { Trace::On } else { Trace::Off });
    Ok(Mode::Run(Plan {
        workloads: selected.unwrap_or_else(|| Workload::ALL.to_vec()),
        seed,
        smoke,
        budget,
        trace,
        json,
    }))
}

/// Names of `OPTIMUS_*` variables among `vars`. `SimConfig::default()`
/// and the refit fan-out read several of them to switch code paths, so
/// a measurement under any of them would not be of the default program.
fn optimus_vars(vars: impl Iterator<Item = (OsString, OsString)>) -> Vec<String> {
    vars.filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OPTIMUS_"))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set = optimus_vars(std::env::vars_os());
    if !set.is_empty() {
        eprintln!(
            "error: unset {} first: the benchmark measures the default code paths",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Mode::One {
            workload,
            seed,
            smoke,
            traced,
            spans,
        } => child(workload, seed, smoke, traced, spans.as_deref()),
        Mode::Compare { base, new, bounds } => match compare::run(&base, &new, &bounds) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        Mode::Run(plan) => run(&plan),
    }
}

/// One sample, in this process; its summary is the last stdout line.
fn child(w: Workload, seed: u64, smoke: bool, traced: bool, spans: Option<&Path>) -> ExitCode {
    let (sample, tel) = workloads::run_one(w, seed, smoke, traced);
    if let Some(path) = spans {
        if let Err(e) = std::fs::write(path, layers::spans_jsonl(&tel.spans())) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&sample).expect("sample serializes")
    );
    ExitCode::SUCCESS
}

/// Runs one sample in a fresh child process and waits for it.
fn spawn(
    w: Workload,
    seed: u64,
    smoke: bool,
    traced: bool,
    spans: Option<&Path>,
) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--one", w.name(), "--seed", &seed.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--traced");
    }
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("{}: cannot start a sample: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{}: sample exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: sample printed nothing", w.name()))?;
    serde_json::from_str(line).map_err(|e| format!("{}: unreadable sample: {e}", w.name()))
}

/// Every sample of one invocation, plus what failed.
#[derive(Default)]
struct Collected {
    timed: BTreeMap<Workload, Vec<Sample>>,
    traced: BTreeMap<Workload, Sample>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Collected {
    fn attempt(&mut self, result: Result<Sample, String>) -> Option<Sample> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                self.failures.push(e);
            })
            .ok()
    }
}

fn collect(plan: &Plan) -> Collected {
    let mut set = plan.workloads.clone();
    if plan.companion() {
        set.push(Workload::TestbedDense);
    }
    let mut out = Collected::default();
    if !plan.smoke {
        for &w in &set {
            if let Err(e) = spawn(w, plan.seed, true, false, None) {
                out.failures.push(format!("warm-up {e}"));
            }
        }
    }
    // One sample of every workload still short of its count per pass.
    let mut runs: BTreeMap<Workload, usize> = BTreeMap::new();
    loop {
        let pending: Vec<Workload> = set
            .iter()
            .copied()
            .filter(|&w| runs.get(&w).copied().unwrap_or(0) < plan.samples(w))
            .collect();
        if pending.is_empty() {
            break;
        }
        for w in pending {
            *runs.entry(w).or_default() += 1;
            if let Some(sample) = out.attempt(spawn(w, plan.seed, plan.smoke, false, None)) {
                out.timed.entry(w).or_default().push(sample);
            }
        }
    }
    let dir = match &plan.trace {
        Trace::Off => return out,
        Trace::On => None,
        Trace::Dir(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                out.failures.push(format!("{}: {e}", dir.display()));
                return out;
            }
            Some(dir)
        }
    };
    for &w in &plan.workloads {
        let spans = dir.map(|d| d.join(format!("{}.spans.jsonl", w.name())));
        if let Some(sample) = out.attempt(spawn(w, plan.seed, plan.smoke, true, spans.as_deref())) {
            out.traced.insert(w, sample);
        }
    }
    out
}

/// Applies the correctness gates to every sample of `w`: the sample's
/// own checks, one determinism witness across all samples (timed and
/// traced), and `sparse-quarter`'s recorded makespan at seed 17.
fn gate(w: Workload, plan: &Plan, c: &mut Collected) {
    let samples: Vec<&Sample> = c
        .timed
        .get(&w)
        .into_iter()
        .flatten()
        .chain(c.traced.get(&w))
        .collect();
    let Some(first) = samples.first() else {
        c.failures
            .push(format!("{}: no sample completed", w.name()));
        return;
    };
    let anchor = first.witness.clone();
    let mut failed = 0;
    for s in &samples {
        let mut why: Vec<String> = s.gate_failures.clone();
        if s.witness != anchor {
            why.push("decisions differ between samples of one seed".into());
        }
        if w == Workload::SparseQuarter
            && plan.seed == 17
            && !plan.smoke
            && s.makespan_s.to_bits() != workloads::SPARSE_QUARTER_MAKESPAN_SEED17.to_bits()
        {
            why.push(format!(
                "makespan {} s differs from the recorded {} s",
                s.makespan_s,
                workloads::SPARSE_QUARTER_MAKESPAN_SEED17
            ));
        }
        if !why.is_empty() {
            failed += 1;
            for reason in why {
                let msg = format!("{}: {reason}", w.name());
                if !c.failures.contains(&msg) {
                    c.failures.push(msg);
                }
            }
        }
    }
    c.failed += failed;
}

/// An end-to-end metric over a workload's timed samples: one value per
/// sample, their quartiles, and the best of them.
struct Summary {
    def: &'static Def,
    /// What a run reports. Other tenants of a shared host only ever slow
    /// a sample down, in episodes of seconds to a minute that can cover
    /// half a run's samples: the median moves with them, the best of a
    /// fixed number of samples much less (see `README.md`, Baseline).
    best: f64,
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

/// Per-sample median scheduling decision, ms.
fn decision_p50_ms(s: &Sample) -> f64 {
    percentile(&pooled_decisions_ms(std::slice::from_ref(s)), 50.0)
}

/// All decisions of `samples`, ms, ascending.
fn pooled_decisions_ms(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.decisions_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// One workload's results.
struct Report {
    workload: Workload,
    summaries: Vec<Summary>,
    layers: Option<BTreeMap<String, f64>>,
}

fn summarize(samples: &[Sample]) -> Vec<Summary> {
    E2E.iter()
        .map(|def| {
            let value: fn(&Sample) -> f64 = match def.name {
                "sim_s_per_wall_s" => |s| s.sim_s / s.run_s,
                "decision_p50_ms" => decision_p50_ms,
                "setup_s" => |s| s.setup_s,
                "peak_rss_mb" => |s| s.peak_rss_mb,
                other => unreachable!("no summary for {other}"),
            };
            let values: Vec<f64> = samples.iter().map(value).collect();
            let (q1, median, q3) = quartiles(&values);
            let best = if def.higher_is_better {
                values.iter().copied().fold(f64::NAN, f64::max)
            } else {
                values.iter().copied().fold(f64::NAN, f64::min)
            };
            Summary {
                def,
                best,
                median,
                q1,
                q3,
                values,
            }
        })
        .collect()
}

/// The per-layer table of `w`: the traced sample's layers, plus what
/// compares timed samples and the simulated outcome. Tracing overhead
/// is the traced run against the median timed run. Recorder overhead
/// is `testbed-ledger`'s fastest run against `dense`'s (the
/// `testbed-dense` samples). Layers a workload does not run read 0.
fn layer_table(
    w: Workload,
    timed: &[Sample],
    traced: &Sample,
    dense: Option<&[Sample]>,
) -> BTreeMap<String, f64> {
    let med = |f: &dyn Fn(&Sample) -> f64| stats::median(&timed.iter().map(f).collect::<Vec<_>>());
    let fastest_run_s = |ss: &[Sample]| ss.iter().map(|s| s.run_s).fold(f64::INFINITY, f64::min);
    let mut m = traced.layers.clone();
    let run_s = med(&|s| s.run_s);
    let extra = [
        (
            "sched.decision_p99_ms",
            percentile(&pooled_decisions_ms(timed), 99.0),
        ),
        ("setup.generate_ms", med(&|s| s.inputs_s) * 1e3),
        ("setup.sim_new_ms", med(&|s| s.build_s) * 1e3),
        ("trace.overhead_pct", 100.0 * (traced.run_s / run_s - 1.0)),
        (
            "recorder.overhead_pct",
            match dense {
                Some(d) if w == Workload::TestbedLedger => {
                    100.0 * (fastest_run_s(timed) / fastest_run_s(d) - 1.0)
                }
                _ => 0.0,
            },
        ),
        ("outcome.avg_jct_s", traced.avg_jct_s),
        ("outcome.makespan_s", traced.makespan_s),
    ];
    for (k, v) in extra {
        m.insert(k.to_string(), v);
    }
    for def in LAYERS {
        m.entry(def.name.to_string()).or_insert(0.0);
    }
    m.retain(|k, _| LAYERS.iter().any(|d| d.name == k));
    m
}

fn run(plan: &Plan) -> ExitCode {
    let host = Host::probe();
    let budget = match plan.budget {
        Budget::Samples(n) => format!("{n} timed samples"),
        Budget::Seconds(s) => format!("{s} s of timed samples"),
    };
    println!(
        "benchmark: seed {}, {budget} per workload{}, one fresh process per sample",
        plan.seed,
        if plan.smoke {
            " at smoke size"
        } else {
            " after a smoke-size warm-up"
        }
    );
    println!("{}", host.line());

    let mut c = collect(plan);
    for &w in &plan.workloads {
        gate(w, plan, &mut c);
    }

    let mut reports = Vec::new();
    for &w in &plan.workloads {
        let timed = c.timed.get(&w).map_or(&[][..], Vec::as_slice);
        let summaries = summarize(timed);
        let layers = c.traced.get(&w).filter(|_| !timed.is_empty()).map(|t| {
            layer_table(
                w,
                timed,
                t,
                c.timed.get(&Workload::TestbedDense).map(Vec::as_slice),
            )
        });
        print_workload(w, timed, &summaries, layers.as_ref());
        reports.push(Report {
            workload: w,
            summaries,
            layers,
        });
    }

    let correct = c.failures.is_empty();
    if correct {
        println!("\ngates: all passed");
    } else {
        println!("\ngates: FAILED");
        for f in &c.failures {
            println!("  - {f}");
        }
    }

    if let Some(path) = &plan.json {
        let doc = json_report(plan, &host, &c, &reports);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    if let Trace::Dir(dir) = &plan.trace {
        let tables: Vec<(String, Value)> = reports
            .iter()
            .filter_map(|r| {
                let l = r.layers.as_ref()?;
                Some((r.workload.name().to_string(), layers_value(l)))
            })
            .collect();
        let doc = Value::Object(vec![
            (
                "note".into(),
                Value::Str(
                    "per-layer metrics of one traced run per workload; shares are of the \
                     traced wall (tracing adds trace.overhead_pct)"
                        .into(),
                ),
            ),
            ("workloads".into(), Value::Object(tables)),
        ]);
        let path = dir.join("layers.json");
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {} and one spans file per workload", path.display());
    }

    if let [Report {
        summaries, layers, ..
    }] = reports.as_slice()
    {
        let metrics: Vec<(String, Value)> = if plan.trace == Trace::Off {
            summaries
                .iter()
                .map(|s| (s.def.name.to_string(), metric_value(s.best, s.def.unit)))
                .collect()
        } else {
            LAYERS
                .iter()
                .filter_map(|d| {
                    let v = layers.as_ref()?.get(d.name)?;
                    Some((d.name.to_string(), metric_value(*v, d.unit)))
                })
                .collect()
        };
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Num(c.attempted as f64)),
            ("failed".into(), Value::Num(c.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        println!("{line}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn layers_value(layers: &BTreeMap<String, f64>) -> Value {
    Value::Object(
        LAYERS
            .iter()
            .map(|d| (d.name.to_string(), Value::Num(layers[d.name])))
            .collect(),
    )
}

fn print_workload(
    w: Workload,
    timed: &[Sample],
    summaries: &[Summary],
    layers: Option<&BTreeMap<String, f64>>,
) {
    use compare::sig;
    println!("\n== {} ({} timed samples) ==", w.name(), timed.len());
    println!(
        "  {:<18} {:<8} {:<7} {:>12} {:>12} {:>12} {:>12}",
        "metric", "unit", "better", "best", "median", "q1", "q3"
    );
    for s in summaries {
        println!(
            "  {:<18} {:<8} {:<7} {:>12} {:>12} {:>12} {:>12}",
            s.def.name,
            s.def.unit,
            if s.def.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            sig(s.best),
            sig(s.median),
            sig(s.q1),
            sig(s.q3),
        );
    }
    let pooled = pooled_decisions_ms(timed);
    let tail = tail_percentile(pooled.len());
    println!(
        "  decision tail: p{tail} = {} ms over {} pooled decisions (at least 10 beyond it)",
        sig(percentile(&pooled, tail)),
        pooled.len()
    );
    if let Some(s) = timed.first() {
        if w.simulated() {
            println!(
                "  outcome: {} jobs, {} unfinished, avg JCT {} s, makespan {} s",
                s.jobs,
                s.unfinished,
                sig(s.avg_jct_s),
                sig(s.makespan_s)
            );
        }
    }
    if let Some(l) = layers {
        println!(
            "  layers (one traced run; shares are of the traced wall, which tracing \
             lengthens by {} %):",
            sig(l["trace.overhead_pct"])
        );
        for d in LAYERS {
            println!("    {:<32} {:>14} {}", d.name, sig(l[d.name]), d.unit);
        }
    }
}

fn json_report(plan: &Plan, host: &Host, c: &Collected, reports: &[Report]) -> Value {
    let workloads = reports
        .iter()
        .map(|r| {
            let metrics = r
                .summaries
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.def.name.into())),
                        ("unit".into(), Value::Str(s.def.unit.into())),
                        (
                            "better".into(),
                            Value::Str(
                                if s.def.higher_is_better {
                                    "higher"
                                } else {
                                    "lower"
                                }
                                .into(),
                            ),
                        ),
                        ("best".into(), Value::Num(s.best)),
                        ("median".into(), Value::Num(s.median)),
                        ("q1".into(), Value::Num(s.q1)),
                        ("q3".into(), Value::Num(s.q3)),
                        (
                            "values".into(),
                            Value::Array(s.values.iter().map(|&v| Value::Num(v)).collect()),
                        ),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("name".into(), Value::Str(r.workload.name().into())),
                (
                    "samples".into(),
                    Value::Num(c.timed.get(&r.workload).map_or(0, Vec::len) as f64),
                ),
                ("metrics".into(), Value::Array(metrics)),
                (
                    "layers".into(),
                    r.layers.as_ref().map_or(Value::Null, layers_value),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("seed".into(), Value::Num(plan.seed as f64)),
        ("smoke".into(), Value::Bool(plan.smoke)),
        (
            "host".into(),
            serde_json::to_value(host).expect("host block serializes"),
        ),
        (
            "gates".into(),
            Value::Object(vec![
                ("passed".into(), Value::Bool(c.failures.is_empty())),
                (
                    "failures".into(),
                    Value::Array(c.failures.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
            ]),
        ),
        ("workloads".into(), Value::Array(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_parses_and_defaults() {
        let Ok(Mode::Run(plan)) = parse_args(&args(&["--seed", "42"])) else {
            panic!("a seed alone is a run");
        };
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.workloads, Workload::ALL.to_vec());
        assert_eq!(plan.budget, Budget::Samples(5));
        let Ok(Mode::Run(plan)) = parse_args(&[]) else {
            panic!("no arguments is a run");
        };
        assert_eq!(plan.seed, 17);
        for bad in ["-1", "x", "1.5", ""] {
            assert!(parse_args(&args(&["--seed", bad])).is_err(), "{bad:?}");
        }
        assert!(parse_args(&args(&["--seed"])).is_err());
    }

    #[test]
    fn contract_invocation_parses() {
        let Ok(Mode::Run(plan)) = parse_args(&args(&[
            "--workload",
            "sched-churn",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])) else {
            panic!("the contract invocation is a run");
        };
        assert_eq!(plan.workloads, vec![Workload::SchedChurn]);
        assert_eq!(plan.budget, Budget::Seconds(10.0));
        assert_eq!(plan.trace, Trace::On);
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--samples", "2", "--seconds", "3"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
    }

    fn contract_plan(workload: &str, seconds: &str, trace: &str) -> Plan {
        let list = [
            "--workload",
            workload,
            "--seconds",
            seconds,
            "--trace",
            trace,
        ];
        let Ok(Mode::Run(plan)) = parse_args(&args(&list)) else {
            panic!("the contract invocation is a run");
        };
        plan
    }

    #[test]
    fn seconds_buy_a_fixed_sample_count_that_fits_the_traced_run() {
        for w in Workload::ALL {
            let untraced = contract_plan(w.name(), "15", "0");
            assert_eq!(untraced.samples(w), (15.0 / w.nominal_s()) as usize);
            let traced = contract_plan(w.name(), "15", "1");
            let n = traced.samples(w);
            let companion = if traced.companion() {
                assert_eq!(traced.samples(Workload::TestbedDense), n);
                Workload::TestbedDense.nominal_s()
            } else {
                0.0
            };
            let nominal = n as f64 * (w.nominal_s() + companion) + TRACED_COST * w.nominal_s();
            assert!(n >= 1 && (n == 1 || nominal <= 15.0), "{}: {n}", w.name());
        }
        assert!(contract_plan("testbed-ledger", "15", "1").companion());
        assert!(!contract_plan("testbed-ledger", "15", "0").companion());
        assert_eq!(
            contract_plan("sched-churn", "0.5", "0").samples(Workload::SchedChurn),
            3
        );
    }

    /// The `[profile.release]` lines of a manifest, without comments.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or_default().trim())
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect()
    }

    /// This package builds with the release profile the workspace ships.
    #[test]
    fn release_profile_matches_the_workspace() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let profile = |path: PathBuf| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            release_profile(&text)
        };
        let ours = profile(dir.join("Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, profile(dir.join("../../../../../Cargo.toml")));
    }

    #[test]
    fn env_guard_names_optimus_variables_only() {
        let vars = [
            ("PATH", "/bin"),
            ("OPTIMUS_DELTA_ROUNDS", "0"),
            ("OPTIMUS_THREADS", "1"),
            ("NOT_OPTIMUS_X", "1"),
        ]
        .map(|(k, v)| (OsString::from(k), OsString::from(v)));
        assert_eq!(
            optimus_vars(vars.into_iter()),
            vec!["OPTIMUS_DELTA_ROUNDS", "OPTIMUS_THREADS"]
        );
        assert!(optimus_vars(std::iter::empty()).is_empty());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in E2E.iter().chain(LAYERS) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(
                d.name.len() <= 64
                    && d.name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(E2E.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
