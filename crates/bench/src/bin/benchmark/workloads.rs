//! The five workloads, and one sample of one of them: what a `--one`
//! child process runs and reports.
//!
//! Every input comes from the seed: it drives `WorkloadGenerator` and
//! `SimConfig::seed` for the simulated workloads and the churn LCG for
//! `sched-churn`. The program only ever sees the generated inputs.

use crate::{layers, stats};
use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::prelude::{CompositeScheduler, OptimusScheduler, SpeedModel};
use optimus_core::{
    DeltaStats, JobView, ReferenceOptimusAllocator, ReferenceOptimusPlacer, RoundDelta,
    RoundScratch, Schedule, Scheduler,
};
use optimus_ps::PsJobModel;
use optimus_simulator::{SimConfig, SimReport, Simulation};
use optimus_telemetry::ledger::fnv1a64;
use optimus_telemetry::{FlightConfig, Telemetry};
use optimus_workload::arrivals::calibrated_scale;
use optimus_workload::{
    ArrivalProcess, JobId, JobSpec, ModelKind, TrainingMode, WorkloadGenerator,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    TestbedDense,
    TestbedLedger,
    ClusterSteady,
    SparseQuarter,
    SchedChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TestbedDense,
        Workload::TestbedLedger,
        Workload::ClusterSteady,
        Workload::SparseQuarter,
        Workload::SchedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedDense => "testbed-dense",
            Workload::TestbedLedger => "testbed-ledger",
            Workload::ClusterSteady => "cluster-steady",
            Workload::SparseQuarter => "sparse-quarter",
            Workload::SchedChurn => "sched-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the simulator (all but `sched-churn`).
    pub fn simulated(self) -> bool {
        self != Workload::SchedChurn
    }

    /// Wall seconds of one timed sample, child process included, on the
    /// baseline host of `README.md` when it is not slowed by other
    /// tenants. `--seconds` sizes sample counts by it.
    pub fn nominal_s(self) -> f64 {
        match self {
            Workload::TestbedDense => 2.7,
            Workload::TestbedLedger => 3.9,
            Workload::ClusterSteady => 2.7,
            Workload::SparseQuarter => 2.1,
            Workload::SchedChurn => 1.1,
        }
    }
}

/// Simulated seconds one `sched-churn` round stands for: the paper's
/// scheduling interval, so its `sim_s_per_wall_s` reads as the cluster
/// time a decision-only scheduling loop keeps up with per wall second.
pub const INTERVAL_S: f64 = 600.0;

/// `bench_sim`'s recorded makespan of its 1000-job point at seed 17
/// (`BENCH_sim.json`), which `sparse-quarter` reproduces exactly.
pub const SPARSE_QUARTER_MAKESPAN_SEED17: f64 = 10_371_910.308_074_135;

/// What one child process measured. Times are seconds unless named
/// otherwise; the set-up times are medians of [`SETUPS`] set-ups.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Sample {
    /// Input generation: `WorkloadGenerator::generate`, or the churn
    /// view pool.
    pub inputs_s: f64,
    /// `Simulation::new`, or the churn workload's cold full round.
    pub build_s: f64,
    /// Inputs and build, timed as one interval.
    pub setup_s: f64,
    /// The measured work: `Simulation::run` (plus the artifact export
    /// on `testbed-ledger`), or the sum of churn decisions.
    pub run_s: f64,
    /// Simulated seconds covered by `run_s`.
    pub sim_s: f64,
    /// Wall time of every scheduling decision, nanoseconds.
    pub decisions_ns: Vec<u64>,
    pub tally: Tally,
    pub peak_rss_mb: f64,
    pub jobs: u64,
    pub unfinished: u64,
    pub avg_jct_s: f64,
    pub makespan_s: f64,
    /// Hash of everything the run decided (see `jct_witness`), equal
    /// across samples of one seed.
    pub witness: String,
    pub gate_failures: Vec<String>,
    /// Per-layer metrics; traced samples only.
    pub layers: BTreeMap<String, f64>,
}

/// What the scheduler reported across a run's decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tally {
    pub calls: u64,
    pub views: u64,
    pub dirty: u64,
    pub skipped: u64,
    pub replayed: u64,
    pub alloc_full: u64,
    pub place_reused: u64,
}

impl Tally {
    fn note(&mut self, views: usize, stats: &DeltaStats) {
        self.calls += 1;
        self.views += views as u64;
        self.dirty += stats.dirty_jobs;
        self.skipped += u64::from(stats.skipped_full);
        self.replayed += stats.replayed_grants;
        self.alloc_full += u64::from(stats.alloc_full);
        self.place_reused += u64::from(stats.place_reused);
    }
}

/// Decisions seen by a [`Timed`] scheduler.
#[derive(Debug, Default)]
pub struct DecisionLog {
    pub ns: Vec<u64>,
    pub tally: Tally,
}

/// Forwards every scheduling entry point to `inner` unchanged, timing
/// each call and tallying what it reported. With an enabled handle it
/// also opens a `bench.sched_round` span around the call, under which
/// the scheduler's own `sched.decision` spans nest.
pub struct Timed<S> {
    inner: S,
    tel: Telemetry,
    log: Rc<RefCell<DecisionLog>>,
}

impl<S: Scheduler> Timed<S> {
    pub fn new(inner: S, tel: Telemetry) -> (Self, Rc<RefCell<DecisionLog>>) {
        let log = Rc::new(RefCell::new(DecisionLog::default()));
        let timed = Timed {
            inner,
            tel,
            log: Rc::clone(&log),
        };
        (timed, log)
    }

    fn timed<R>(
        &self,
        views: usize,
        call: impl FnOnce() -> R,
        stats: impl Fn(&R) -> DeltaStats,
    ) -> R {
        let _span = self.tel.span("bench.sched_round");
        let start = Instant::now();
        let out = call();
        let ns = start.elapsed().as_nanos() as u64;
        let mut log = self.log.borrow_mut();
        log.ns.push(ns);
        log.tally.note(views, &stats(&out));
        out
    }
}

/// What a full-path call did, in `DeltaStats` terms.
fn full_round(views: usize) -> DeltaStats {
    DeltaStats {
        dirty_jobs: views as u64,
        alloc_full: true,
        ..DeltaStats::default()
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&self, jobs: &[JobView], cluster: &Cluster) -> Schedule {
        self.timed(
            jobs.len(),
            || self.inner.schedule(jobs, cluster),
            |_| full_round(jobs.len()),
        )
    }

    fn schedule_into(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) {
        self.timed(
            jobs.len(),
            || self.inner.schedule_into(jobs, cluster, scratch, out),
            |_| full_round(jobs.len()),
        )
    }

    fn schedule_delta(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        delta: &RoundDelta,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) -> DeltaStats {
        self.timed(
            jobs.len(),
            || {
                self.inner
                    .schedule_delta(jobs, cluster, delta, scratch, out)
            },
            |stats| *stats,
        )
    }
}

/// The shape of a simulated workload.
struct SimShape {
    cluster: Cluster,
    arrivals: ArrivalProcess,
    /// Median nominal job duration, seconds.
    job_s: f64,
    loss_every_s: f64,
    max_time_s: f64,
    /// Everything `optimus-sim --ledger` turns on: telemetry, decision
    /// provenance, the flight recorder and the event log, exported at
    /// the end.
    recorders: bool,
    /// Whether the jobs' shapes are [`balance`]d.
    balanced: bool,
}

/// Workload sizes. `smoke` shrinks each to about a tenth of its work.
fn sim_shape(w: Workload, smoke: bool) -> SimShape {
    let k = if smoke { 10 } else { 1 };
    match w {
        // Uniform arrivals at moderate load: a run's makespan is pinned
        // by the horizon and its work by the thousand balanced jobs.
        // Bursty or overloaded queues make the makespan, the queue
        // depth and the recorders' volume swing by 15–40 % from seed to
        // seed.
        Workload::TestbedDense | Workload::TestbedLedger => SimShape {
            cluster: Cluster::paper_testbed(),
            arrivals: ArrivalProcess::UniformRandom {
                count: 1_000 / k,
                horizon_s: 2_592_000.0 / k as f64,
            },
            job_s: 3_600.0,
            loss_every_s: 5.0,
            max_time_s: 2.0 * 2_592_000.0 / k as f64,
            recorders: w == Workload::TestbedLedger,
            balanced: true,
        },
        // 15 arrivals per 600 s interval over two days, as a Poisson
        // process conditioned on its count (uniform arrival times), so
        // every seed submits the same number of jobs.
        Workload::ClusterSteady => SimShape {
            cluster: Cluster::homogeneous(250 / k, ResourceVec::new(32.0, 0.0, 96.0, 1.0)),
            arrivals: ArrivalProcess::UniformRandom {
                count: 4_320 / k,
                horizon_s: 172_800.0,
            },
            job_s: 3_600.0,
            loss_every_s: 60.0,
            max_time_s: 2_592_000.0,
            recorders: false,
            balanced: true,
        },
        Workload::SparseQuarter => SimShape {
            cluster: Cluster::paper_testbed(),
            arrivals: ArrivalProcess::UniformRandom {
                count: 1_000 / k,
                horizon_s: 10_368_000.0 / k as f64,
            },
            job_s: 3_600.0,
            loss_every_s: 60.0,
            max_time_s: 15_552_000.0 / k as f64,
            recorders: false,
            // `bench_sim`'s inputs exactly, for the recorded makespan.
            balanced: false,
        },
        Workload::SchedChurn => unreachable!("sched-churn does not simulate"),
    }
}

/// Runs one sample of `w` in this process. A traced sample records the
/// benchmark's spans and the program's telemetry on one handle, which
/// is returned for the span export.
pub fn run_one(w: Workload, seed: u64, smoke: bool, traced: bool) -> (Sample, Telemetry) {
    let bench = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (mut sample, at_run) = if w.simulated() {
        run_sim(w, seed, smoke, &bench)
    } else {
        run_churn(seed, smoke, &bench)
    };
    sample.peak_rss_mb = peak_rss_mb();
    if traced {
        let counters = counters_since(&bench.counters(), &at_run);
        match layers::layer_metrics(&bench.spans(), &counters, &sample) {
            Ok(m) => sample.layers.extend(m),
            Err(e) => sample.gate_failures.push(e),
        }
    }
    (sample, bench)
}

/// A telemetry handle's counters, by name.
type Counters = Vec<(String, u64)>;

/// What the counters gained since `before`: the measured work's share,
/// without the set-ups' cold rounds.
fn counters_since(now: &[(String, u64)], before: &[(String, u64)]) -> Counters {
    now.iter()
        .map(|(name, v)| {
            let was = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, b)| b);
            (name.clone(), v - was)
        })
        .collect()
}

fn run_sim(w: Workload, seed: u64, smoke: bool, bench: &Telemetry) -> (Sample, Counters) {
    let shape = sim_shape(w, smoke);
    // The program's own telemetry is on where a user would have it on,
    // with the recorders, and in the traced run, where the benchmark's
    // spans share its handle so the program's spans nest under them.
    let tel = if bench.is_enabled() {
        bench.clone()
    } else if shape.recorders {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    if shape.recorders {
        tel.enable_provenance();
    }

    let setup_span = bench.span("bench.setup");
    let ((mut sim, log, jobs), setup) = repeated_setup(
        || {
            let mut specs = WorkloadGenerator::new(shape.arrivals, seed)
                .with_target_job_seconds(Some(shape.job_s))
                .generate();
            if shape.balanced {
                balance(&mut specs, seed, shape.job_s);
            }
            specs
        },
        |specs| {
            let jobs = specs.len() as u64;
            let (scheduler, log) = Timed::new(
                OptimusScheduler::build_with_telemetry(tel.clone()),
                bench.clone(),
            );
            let cfg = SimConfig {
                seed,
                record_events: shape.recorders,
                max_time_s: shape.max_time_s,
                loss_sample_every_s: shape.loss_every_s,
                telemetry: tel.clone(),
                flight: shape.recorders.then(FlightConfig::default),
                ..SimConfig::default()
            };
            let sim = Simulation::new(shape.cluster.clone(), specs, Box::new(scheduler), cfg);
            (sim, log, jobs)
        },
    );
    drop(setup_span);

    let at_run = bench.counters();
    let run_span = bench.span("bench.run");
    let start = Instant::now();
    let report = black_box(sim.run());
    let mut run_s = start.elapsed().as_secs_f64();
    drop(run_span);

    let mut witness = jct_witness(&report);
    if shape.recorders {
        let _span = bench.span("bench.export");
        let start = Instant::now();
        let artifacts = export_artifacts(&report, &tel);
        run_s += start.elapsed().as_secs_f64();
        witness = format!("{witness}:{:016x}", fnv1a64(artifacts.as_bytes()));
    }

    let mut sample = Sample {
        inputs_s: setup.inputs_s,
        build_s: setup.build_s,
        setup_s: setup.setup_s,
        run_s,
        sim_s: report.makespan,
        jobs,
        unfinished: report.unfinished_jobs as u64,
        avg_jct_s: report.avg_jct(),
        makespan_s: report.makespan,
        witness,
        ..Sample::default()
    };
    if report.unfinished_jobs > 0 {
        sample.gate_failures.push(format!(
            "{} of {jobs} jobs unfinished at the {} s cap",
            report.unfinished_jobs, shape.max_time_s
        ));
    }
    if bench.is_enabled() {
        let flight = report.flight.as_ref().map_or(0, |f| f.recorded);
        for (name, value) in [
            ("recorder.why_records", tel.why_count()),
            ("recorder.flight_snapshots", flight),
            ("recorder.trace_records", tel.records().len() as u64),
        ] {
            sample.layers.insert(name.to_string(), value as f64);
        }
    }
    let log = log.borrow();
    sample.decisions_ns.clone_from(&log.ns);
    sample.tally = log.tally;
    (sample, at_run)
}

/// Replaces the generator's independent per-job draws of model,
/// training mode and duration with a balanced design. Every seed gets
/// the same multiset of shapes: each model and both modes equally often,
/// and duration targets at evenly spaced points (in log) of the
/// generator's ×/÷ 9 range around `job_s`. The seed decides which job
/// gets which shape; arrival times and thresholds stay the generator's.
/// With independent draws, a thousand jobs' total work, and so a run's
/// memory, differs by several percent from seed to seed.
fn balance(specs: &mut [JobSpec], seed: u64, job_s: f64) {
    let n = specs.len();
    let kinds = ModelKind::ALL.len();
    let mut lcg = seed ^ 0xA076_1D64_78BD_642F;
    for (spec, k) in specs.iter_mut().zip(shuffled(n, &mut lcg)) {
        let model = ModelKind::ALL[k % kinds];
        let mode = if (k / kinds) % 2 == 0 {
            TrainingMode::Synchronous
        } else {
            TrainingMode::Asynchronous
        };
        let factor = 9f64.powf((2 * k + 1) as f64 / n as f64 - 1.0);
        let threshold = spec.convergence_threshold;
        *spec = JobSpec::new(spec.id, model, mode, threshold)
            .at(spec.submit_time)
            .scaled(calibrated_scale(model, mode, threshold, job_s * factor));
    }
}

/// `0..n` in an order drawn from `lcg` (Fisher–Yates).
fn shuffled(n: usize, lcg: &mut u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (lcg_next(lcg) % (i as u64 + 1)) as usize);
    }
    v
}

/// One step of Knuth's MMIX linear congruential generator; the high
/// bits are the usable ones.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Median set-up times of one sample, seconds.
struct SetupTimes {
    inputs_s: f64,
    build_s: f64,
    setup_s: f64,
}

/// Set-ups timed per sample: one set-up takes 1–20 ms, too little to
/// read steadily once.
const SETUPS: usize = 5;

/// Makes the inputs and builds the program state from them [`SETUPS`]
/// times, keeping the last state, and returns the median times.
fn repeated_setup<I, T>(
    mut inputs: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
) -> (T, SetupTimes) {
    let (mut ins, mut builds, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUPS {
        // Free the previous state outside the timed interval.
        drop(state.take());
        let start = Instant::now();
        let made = inputs();
        let mid = Instant::now();
        state = Some(build(made));
        let end = Instant::now();
        ins.push((mid - start).as_secs_f64());
        builds.push((end - mid).as_secs_f64());
        totals.push((end - start).as_secs_f64());
    }
    let times = SetupTimes {
        inputs_s: stats::median(&ins),
        build_s: stats::median(&builds),
        setup_s: stats::median(&totals),
    };
    (state.expect("at least one set-up"), times)
}

/// Determinism witness of a simulation: every job's JCT bit pattern in
/// job order, plus the makespan and the unfinished count.
fn jct_witness(report: &SimReport) -> String {
    let mut jct: Vec<(u64, u64)> = report
        .jct
        .iter()
        .map(|&(id, t)| (id.0, t.to_bits()))
        .collect();
    jct.sort_unstable();
    let mut bytes = Vec::with_capacity(16 * jct.len() + 16);
    for (id, bits) in jct {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&bits.to_le_bytes());
    }
    bytes.extend_from_slice(&report.makespan.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(report.unfinished_jobs as u64).to_le_bytes());
    format!("{:016x}", fnv1a64(&bytes))
}

/// The run-ledger artifacts `optimus-sim --ledger` writes (event log,
/// schedule stream, canonical trace, JCT decomposition, flight log,
/// provenance), rendered in memory and concatenated.
fn export_artifacts(report: &SimReport, tel: &Telemetry) -> String {
    let mut out = report.events.to_json_lines();
    out.push_str(&report.events.schedule_stream_json_lines());
    out.push_str(&tel.to_canonical_json_lines());
    for b in &report.breakdown {
        out.push_str(&serde_json::to_string(b).expect("JCT breakdown serializes"));
        out.push('\n');
    }
    if let Some(flight) = &report.flight {
        out.push_str(&flight.to_json_lines());
    }
    out.push_str(&tel.why_json_lines());
    out
}

/// Share of jobs dirtied per churn round, percent.
const CHURN_PCT: usize = 10;

/// Rounds between two full-path checks of the delta decision.
const CHECK_EVERY: usize = 100;

/// The decision-only workload: a cold full round over synchronous-mode
/// views on a cluster with certificate headroom, then rounds of 10 %
/// churn through `schedule_delta` with exact dirty lists.
fn run_churn(seed: u64, smoke: bool, bench: &Telemetry) -> (Sample, Counters) {
    // 2500 rounds take about half a second: short enough that a run
    // holds a dozen samples, so its best one has dodged the host's
    // interference.
    let (n_jobs, n_nodes, rounds) = if smoke {
        (100, 600, 300)
    } else {
        (1_000, 6_000, 2_500)
    };
    let mut gate_failures = Vec::new();

    let setup_span = bench.span("bench.setup");
    let ((mut jobs, cluster, scheduler, log, mut scratch, mut out), setup) = repeated_setup(
        || {
            let cluster = Cluster::homogeneous(n_nodes, ResourceVec::new(32.0, 4.0, 128.0, 10.0));
            (churn_views(n_jobs), cluster)
        },
        |(jobs, cluster)| {
            let (scheduler, log) = Timed::new(
                OptimusScheduler::build_with_telemetry(bench.clone()),
                bench.clone(),
            );
            let mut scratch = RoundScratch::default();
            let mut out = Schedule::default();
            let cold = RoundDelta {
                full: true,
                cluster_changed: false,
                dirty: Vec::new(),
            };
            scheduler.schedule_delta(&jobs, &cluster, &cold, &mut scratch, &mut out);
            (jobs, cluster, scheduler, log, scratch, out)
        },
    );
    drop(setup_span);
    *log.borrow_mut() = DecisionLog::default();
    let at_run = bench.counters();

    let reference = CompositeScheduler::new(
        "reference",
        Box::new(ReferenceOptimusAllocator::default()),
        Box::new(ReferenceOptimusPlacer),
    )
    .schedule(&jobs, &cluster);
    if !same_decision(&out, &reference) {
        gate_failures.push("cold round diverges from the reference scheduler".into());
    }

    let full = OptimusScheduler::build();
    let mut full_scratch = RoundScratch::default();
    let mut full_out = Schedule::default();
    let mut lcg = 0x9E37_79B9_7F4A_7C15 ^ seed;
    for _ in 0..rounds / CHECK_EVERY {
        {
            let _run = bench.span("bench.run");
            for _ in 0..CHECK_EVERY {
                let delta = RoundDelta {
                    full: false,
                    cluster_changed: false,
                    dirty: churn(&mut jobs, &mut lcg),
                };
                scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
            }
        }
        full.schedule_into(&jobs, &cluster, &mut full_scratch, &mut full_out);
        if !same_decision(&out, &full_out) {
            gate_failures.push("a delta round diverges from the full path".into());
            break;
        }
    }
    let log = log.borrow();
    if log.tally.replayed == 0 {
        gate_failures.push("no grant was replayed: the delta mechanism never ran".into());
    }
    let run_ns: u64 = log.ns.iter().sum();
    let witness = format!(
        "{:016x}",
        fnv1a64(format!("{:?}/{}", out.allocations(), log.tally.replayed).as_bytes())
    );
    let sample = Sample {
        inputs_s: setup.inputs_s,
        build_s: setup.build_s,
        setup_s: setup.setup_s,
        run_s: run_ns as f64 / 1e9,
        sim_s: log.ns.len() as f64 * INTERVAL_S,
        decisions_ns: log.ns.clone(),
        tally: log.tally,
        witness,
        gate_failures,
        ..Sample::default()
    };
    (sample, at_run)
}

fn same_decision(a: &Schedule, b: &Schedule) -> bool {
    a.allocations() == b.allocations() && a.placements() == b.placements()
}

/// `n` synchronous-mode views over a pool of six prefit speed models
/// (saturating curves, so solo climbs stop with headroom to spare and
/// the delta certificate holds).
pub fn churn_views(n: usize) -> Vec<JobView> {
    let mut pool = Vec::new();
    for kind in [ModelKind::ResNet50, ModelKind::Seq2Seq, ModelKind::CnnRand] {
        let profile = kind.profile();
        let truth = PsJobModel::new(profile, TrainingMode::Synchronous);
        let mut model = SpeedModel::new(TrainingMode::Synchronous, profile.batch_size as f64);
        for (p, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4)] {
            model.record(p, w, truth.speed(p, w));
        }
        model
            .refit()
            .expect("six profiled points fit the speed model");
        pool.push(model);
    }
    (0..n)
        .map(|i| JobView {
            id: JobId(i as u64),
            worker_profile: optimus_workload::job::default_container(),
            ps_profile: optimus_workload::job::default_container(),
            remaining_work: 1_000.0 + (i % 97) as f64 * 650.0,
            speed: pool[i % pool.len()].clone(),
            progress: (i % 10) as f64 / 10.0,
            requested_units: 8,
        })
        .collect()
}

/// Dirties [`CHURN_PCT`] % of `jobs` (at least one), picked by an LCG:
/// a tiny jitter on `remaining_work` changes each view's bits without
/// moving any solo-climb stop. Returns the sorted dirty indices.
pub fn churn(jobs: &mut [JobView], lcg: &mut u64) -> Vec<u32> {
    let want = (jobs.len() * CHURN_PCT / 100).max(1);
    let mut dirty = std::collections::BTreeSet::new();
    while dirty.len() < want {
        dirty.insert((lcg_next(lcg) as usize % jobs.len()) as u32);
    }
    for &i in &dirty {
        jobs[i as usize].remaining_work *= 1.000_001;
    }
    dirty.into_iter().collect()
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// Wrapping a scheduler in `Timed` changes no decision on any of
    /// the three entry points, and the wrapper sees every call.
    #[test]
    fn timing_wrapper_changes_no_decision() {
        // Six nodes per job, as in `sched-churn`: headroom for the
        // delta certificate, so grants replay.
        let cluster = Cluster::homogeneous(300, ResourceVec::new(32.0, 4.0, 128.0, 10.0));
        let mut jobs = churn_views(50);
        let plain = OptimusScheduler::build();
        let (timed, log) = Timed::new(OptimusScheduler::build(), Telemetry::enabled());

        assert!(same_decision(
            &plain.schedule(&jobs, &cluster),
            &timed.schedule(&jobs, &cluster)
        ));
        let (mut s1, mut s2) = (RoundScratch::default(), RoundScratch::default());
        let (mut o1, mut o2) = (Schedule::default(), Schedule::default());
        plain.schedule_into(&jobs, &cluster, &mut s1, &mut o1);
        timed.schedule_into(&jobs, &cluster, &mut s2, &mut o2);
        assert!(same_decision(&o1, &o2));

        let mut lcg = 7;
        let mut replayed = 0;
        for round in 0..20 {
            let delta = RoundDelta {
                full: round == 0,
                cluster_changed: false,
                dirty: if round == 0 {
                    Vec::new()
                } else {
                    churn(&mut jobs, &mut lcg)
                },
            };
            let a = plain.schedule_delta(&jobs, &cluster, &delta, &mut s1, &mut o1);
            let b = timed.schedule_delta(&jobs, &cluster, &delta, &mut s2, &mut o2);
            assert!(same_decision(&o1, &o2), "round {round} diverged");
            assert_eq!(a.replayed_grants, b.replayed_grants);
            replayed += b.replayed_grants;
        }
        let log = log.borrow();
        assert_eq!(log.ns.len(), 22);
        assert_eq!(log.tally.calls, 22);
        assert_eq!(log.tally.replayed, replayed);
        assert!(replayed > 0, "the delta path never replayed a grant");
    }

    #[test]
    fn churn_is_seed_deterministic_and_sized() {
        let (mut a, mut b) = (churn_views(50), churn_views(50));
        let (mut la, mut lb) = (3, 3);
        let da = churn(&mut a, &mut la);
        assert_eq!(da, churn(&mut b, &mut lb));
        assert_eq!(da.len(), 5);
        assert!(da.windows(2).all(|w| w[0] < w[1]));
    }

    /// Balanced jobs keep the generator's arrivals and thresholds, and
    /// every seed runs each model in each mode equally often.
    #[test]
    fn balanced_jobs_differ_between_seeds_only_in_order() {
        let shape = sim_shape(Workload::TestbedDense, false);
        let generate = |seed| {
            WorkloadGenerator::new(shape.arrivals, seed)
                .with_target_job_seconds(Some(shape.job_s))
                .generate()
        };
        let balanced = |seed| {
            let mut specs = generate(seed);
            balance(&mut specs, seed, shape.job_s);
            specs
        };
        let (a, b) = (balanced(1), balanced(2));
        assert_eq!(a, balanced(1));
        assert_ne!(a, b);
        for (job, raw) in a.iter().zip(generate(1)) {
            assert_eq!(job.submit_time, raw.submit_time);
            assert_eq!(job.convergence_threshold, raw.convergence_threshold);
        }
        let mix = |specs: &[JobSpec]| {
            let mut counts = BTreeMap::new();
            for s in specs {
                *counts
                    .entry(format!("{:?}/{:?}", s.model, s.mode))
                    .or_insert(0) += 1;
            }
            counts
        };
        assert_eq!(mix(&a), mix(&b));
        assert_eq!(mix(&a).len(), 2 * ModelKind::ALL.len());
        assert!(
            mix(&a).values().all(|&c| c == 55 || c == 56),
            "{:?}",
            mix(&a)
        );
    }

    #[test]
    fn counters_count_from_the_snapshot() {
        let before = [("a".to_string(), 3), ("b".to_string(), 1)];
        let now = [
            ("a".to_string(), 10),
            ("b".to_string(), 1),
            ("c".to_string(), 4),
        ];
        let since = counters_since(&now, &before);
        assert_eq!(
            since,
            vec![
                ("a".to_string(), 7),
                ("b".to_string(), 0),
                ("c".to_string(), 4)
            ]
        );
    }
}
