//! Byte-identity proofs for the simulator's production path.
//!
//! [`Simulation::run`] — the discrete-event engine with batched refits
//! fanned across threads and churn-proportional delta rounds — must
//! reproduce the plain tick-loop oracle [`Simulation::run_reference`]
//! byte for byte: the same events at the same timestamps and the same
//! serialized report. One parameterized comparison
//! ([`assert_matches_reference`]) checks every case across the Optimus,
//! DRF and Tetris schedulers, at 1/2/4/8 refit threads, and against the
//! full-rounds oracle (the Optimus composition without its delta
//! engine). The cases cover straggler injection, server failures,
//! stranded workloads, churn, every optional round branch at once, and
//! a grid of degenerate inputs. Because both drives share the round
//! code, one every-branch report is also pinned to a recorded hash.

use optimus_cluster::{Cluster, ResourceVec, ServerId};
use optimus_core::prelude::*;
use optimus_core::reference::{ReferenceOptimusAllocator, ReferenceOptimusPlacer};
use optimus_ps::StragglerPolicy;
use optimus_simulator::{
    AssignmentPolicy, BackgroundLoad, ErrorInjection, SimConfig, SimEventKind, SimReport,
    Simulation,
};
use optimus_telemetry::{FlightConfig, Telemetry};
use optimus_workload::{JobId, JobSpec, ModelKind, TrainingMode};

fn specs(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                ModelKind::CnnRand,
                if i % 2 == 0 {
                    TrainingMode::Synchronous
                } else {
                    TrainingMode::Asynchronous
                },
                0.03,
            )
            .at(i as f64 * 100.0)
            .scaled(0.3)
        })
        .collect()
}

fn base_config() -> SimConfig {
    SimConfig {
        interval_s: 120.0,
        max_time_s: 40_000.0,
        record_events: true,
        ..SimConfig::default()
    }
}

type Build = fn() -> CompositeScheduler;

/// `Simulation::run` or the `Simulation::run_reference` oracle.
type Drive = fn(&mut Simulation) -> SimReport;

/// The Optimus composition without the delta engine, every component
/// sharing `tel`: each round runs the full allocation and placement
/// passes. The oracle for delta rounds.
fn optimus_full_rounds_with_telemetry(tel: Telemetry) -> CompositeScheduler {
    CompositeScheduler::new(
        "Optimus",
        Box::new(OptimusAllocator::default().with_telemetry(tel.clone())),
        Box::new(OptimusPlacer::default().with_telemetry(tel.clone())),
    )
    .with_telemetry(tel)
}

fn optimus_full_rounds() -> CompositeScheduler {
    optimus_full_rounds_with_telemetry(Telemetry::disabled())
}

/// Every scheduler with its full-rounds oracle. The baselines have no
/// delta engine (`None`): their production build is its own oracle.
const SCHEDULERS: [(&str, Build, Option<Build>); 3] = [
    (
        "optimus",
        OptimusScheduler::build,
        Some(optimus_full_rounds),
    ),
    ("drf", DrfScheduler::build, None),
    ("tetris", TetrisScheduler::build, None),
];

/// One simulated scenario of the equivalence suite.
struct Case {
    label: &'static str,
    cluster: Cluster,
    specs: Vec<JobSpec>,
    cfg: SimConfig,
}

impl Case {
    /// `n` staggered jobs on the paper testbed under `cfg`.
    fn testbed(label: &'static str, n: u64, cfg: SimConfig) -> Self {
        Case {
            label,
            cluster: Cluster::paper_testbed(),
            specs: specs(n),
            cfg,
        }
    }
}

/// Runs one simulation of `case` through `drive` and returns `(event
/// log bytes, report bytes)`.
fn run_serialized(case: &Case, build: Build, drive: Drive, threads: usize) -> (String, String) {
    let mut cfg = case.cfg.clone();
    cfg.refit_threads = Some(threads);
    let mut sim = Simulation::new(
        case.cluster.clone(),
        case.specs.clone(),
        Box::new(build()),
        cfg,
    );
    let report = drive(&mut sim);
    let log = report.events.to_json_lines();
    let json = serde_json::to_string(&report).expect("report serializes");
    (log, json)
}

/// For every scheduler, the reference is [`Simulation::run_reference`]
/// with serial refits. [`Simulation::run`] at 1/2/4/8 refit threads and
/// [`Simulation::run`] with the full-rounds oracle must match it byte
/// for byte.
fn assert_matches_reference(case: &Case) {
    for (name, build, full_rounds) in SCHEDULERS {
        let reference = run_serialized(case, build, Simulation::run_reference, 1);
        let mut candidates = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let run = run_serialized(case, build, Simulation::run, threads);
            candidates.push((format!("{threads} refit threads"), run));
        }
        if let Some(full) = full_rounds {
            let run = run_serialized(case, full, Simulation::run, 1);
            candidates.push(("full rounds".to_string(), run));
        }
        for (candidate, (log, report)) in candidates {
            assert_eq!(
                reference.0, log,
                "{} ({name}): event log diverged from the reference ({candidate})",
                case.label
            );
            assert_eq!(
                reference.1, report,
                "{} ({name}): report diverged from the reference ({candidate})",
                case.label
            );
        }
    }
}

#[test]
fn production_matches_reference_on_the_testbed() {
    assert_matches_reference(&Case::testbed("testbed", 4, base_config()));
}

#[test]
fn production_matches_reference_under_straggler_injection() {
    let mut cfg = base_config();
    cfg.straggler = StragglerPolicy::with_injection(0.002);
    assert_matches_reference(&Case::testbed("stragglers", 3, cfg));
}

#[test]
fn production_matches_reference_under_server_failures() {
    let mut cfg = base_config();
    cfg.server_failures = vec![
        (500.0, ServerId(0)),
        (500.0, ServerId(1)),
        (900.0, ServerId(7)),
        (900.0, ServerId(8)),
    ];
    assert_matches_reference(&Case::testbed("server failures", 3, cfg));
}

#[test]
fn production_matches_reference_when_the_cap_strands_jobs() {
    // Every server dies at t = 300 s: the rest of the run is one long
    // idle span that the event engine crosses without a single wave.
    let mut cfg = base_config();
    cfg.max_time_s = 5_000.0;
    cfg.server_failures = (0..13).map(|i| (300.0, ServerId(i))).collect();
    assert_matches_reference(&Case::testbed("stranded", 2, cfg));
}

/// Churn-heavy dynamics for the delta engine: staggered arrivals,
/// straggler injection, a server failure, pinned-job reservations and
/// the all-quiescent tail after the last completion.
#[test]
fn production_matches_reference_under_churn() {
    let mut cfg = base_config();
    cfg.straggler = StragglerPolicy::with_injection(0.002);
    cfg.server_failures = vec![(900.0, ServerId(7))];
    cfg.min_rescale_interval_s = 300.0;
    assert_matches_reference(&Case::testbed("churn", 5, cfg));
}

/// Every optional branch of a scheduling round at once: background
/// load, Fig-15 error injection, MXNet's default parameter assignment,
/// fidelity sampling, pinned jobs, a server failure and straggler
/// injection.
fn every_branch_case() -> Case {
    let cfg = SimConfig {
        background: Some(BackgroundLoad {
            period_s: 3_600.0,
            peak_fraction: 0.3,
        }),
        inject: Some(ErrorInjection {
            convergence_error: 0.2,
            speed_error: 0.2,
        }),
        assignment: AssignmentPolicy::MxnetDefault,
        track_fidelity: true,
        min_rescale_interval_s: 300.0,
        server_failures: vec![(900.0, ServerId(7))],
        straggler: StragglerPolicy::with_injection(0.002),
        ..base_config()
    };
    Case::testbed("every round branch", 5, cfg)
}

#[test]
fn production_matches_reference_on_every_round_branch() {
    assert_matches_reference(&every_branch_case());
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `run` and `run_reference` share the round code, so drift inside a
/// round moves both alike and the equivalence cases cannot see it. This
/// pins the every-branch run's serialized report (telemetry off, event
/// log included) to the hash recorded before the simulator was split
/// into components. A change meant to move a decision updates it.
#[test]
fn every_branch_report_matches_its_pinned_hash() {
    const PINNED: u64 = 0x9fce_d911_e132_4db1;
    let case = every_branch_case();
    let mut sim = Simulation::new(
        case.cluster.clone(),
        case.specs.clone(),
        Box::new(OptimusScheduler::build()),
        case.cfg.clone(),
    );
    let report = sim.run();
    assert_eq!(report.unfinished_jobs, 0);
    assert!(!report.fidelity.is_empty(), "fidelity sampling ran");
    assert!(
        report.straggler_replacements > 0,
        "stragglers were injected"
    );
    let json = serde_json::to_string(&report).expect("report serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        PINNED,
        "every-branch report drifted"
    );
}

/// The edge-case grid: degenerate workloads, clusters and timings.
#[test]
fn production_matches_reference_on_degenerate_inputs() {
    let testbed_gpu_server = ResourceVec::new(16.0, 2.0, 48.0, 1.0);
    let cpu_only_server = ResourceVec::new(32.0, 0.0, 80.0, 1.0);
    let cases = [
        Case::testbed("empty workload", 0, base_config()),
        Case {
            cluster: Cluster::homogeneous(1, testbed_gpu_server),
            ..Case::testbed("single server", 3, base_config())
        },
        Case {
            cluster: Cluster::homogeneous(4, cpu_only_server),
            ..Case::testbed("zero-GPU cluster", 3, base_config())
        },
        Case::testbed(
            "every server failed at t = 0",
            3,
            SimConfig {
                max_time_s: 5_000.0,
                server_failures: (0..13).map(|i| (0.0, ServerId(i))).collect(),
                ..base_config()
            },
        ),
        // A round on every tick: kept short, since each round refits.
        Case::testbed(
            "interval shorter than a tick",
            2,
            SimConfig {
                interval_s: 0.4,
                max_time_s: 600.0,
                ..base_config()
            },
        ),
        Case::testbed("one job", 1, base_config()),
        Case::testbed(
            "noise-free profiling",
            3,
            SimConfig {
                profile_noise: 0.0,
                ..base_config()
            },
        ),
        Case::testbed(
            "NaN profiling noise",
            3,
            SimConfig {
                profile_noise: f64::NAN,
                ..base_config()
            },
        ),
        Case::testbed(
            "infinite profiling noise",
            3,
            SimConfig {
                profile_noise: f64::INFINITY,
                ..base_config()
            },
        ),
        Case {
            specs: specs(3).into_iter().map(|s| s.scaled(0.0)).collect(),
            ..Case::testbed("zero-work jobs", 0, base_config())
        },
    ];
    for case in &cases {
        assert_matches_reference(case);
    }
}

/// The reference §4.1/§4.2 implementations driving a whole simulation
/// must be indistinguishable from the optimized lazy-heap scheduler:
/// same events at the same timestamps, same report, byte for byte.
/// This pins the PR-4 tie-break change — both sides key candidates on
/// (gain, job id), so the heap order and the naive argmax agree even
/// through multi-round sim dynamics (rescales, pauses, completions).
#[test]
fn reference_scheduler_simulation_is_byte_identical() {
    fn build_reference() -> CompositeScheduler {
        CompositeScheduler::new(
            "Optimus",
            Box::new(ReferenceOptimusAllocator::default()),
            Box::new(ReferenceOptimusPlacer),
        )
    }
    let case = Case::testbed("reference scheduler", 4, base_config());
    let optimized = run_serialized(&case, OptimusScheduler::build, Simulation::run, 1);
    let reference = run_serialized(&case, build_reference, Simulation::run, 1);
    assert_eq!(
        optimized.0, reference.0,
        "event log diverged between optimized and reference schedulers"
    );
    assert_eq!(
        optimized.1, reference.1,
        "report diverged between optimized and reference schedulers"
    );
}

/// Whole-cluster failure strands every job: after the one
/// cluster-changed round, every remaining round's inputs are provably
/// unchanged, so the delta engine must skip them outright — and the
/// flight recorder must label those rounds quiescent with zero churn.
#[test]
fn delta_engine_skips_quiescent_rounds() {
    let tel = Telemetry::enabled();
    let mut cfg = base_config();
    cfg.max_time_s = 10_000.0;
    cfg.telemetry = tel.clone();
    cfg.flight = Some(FlightConfig { capacity: 4096 });
    cfg.server_failures = (0..13).map(|i| (300.0, ServerId(i))).collect();
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs(2),
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    assert!(
        tel.counter("round.skipped_full") > 0,
        "stranded spans must skip whole rounds"
    );
    let flight = report.flight.expect("flight configured");
    assert!(
        flight
            .snapshots
            .iter()
            .any(|s| s.quiescent && s.delta_jobs == 0),
        "flight must label quiescent rounds"
    );
    assert!(
        flight.snapshots.iter().any(|s| s.delta_jobs > 0),
        "arrivals and the failure round must show churn"
    );
}

/// Churn telemetry does not depend on the scheduler: the simulator
/// diffs rounds whether or not the scheduler has a delta engine to
/// consume the result, so `round.delta_jobs` must agree with the
/// full-rounds oracle (running jobs produce fresh speed observations
/// every interval, so they count as churn — the sim-level delta win is
/// the quiescent spans and the paused tail).
#[test]
fn churn_counter_is_scheduler_independent() {
    let run = |build: Build| {
        let tel = Telemetry::enabled();
        let mut cfg = base_config();
        cfg.telemetry = tel.clone();
        let mut sim = Simulation::new(Cluster::paper_testbed(), specs(4), Box::new(build()), cfg);
        sim.run();
        tel.counter("round.delta_jobs")
    };
    let full = run(optimus_full_rounds);
    let delta = run(OptimusScheduler::build);
    assert!(full > 0, "a live run must show churn");
    assert_eq!(full, delta, "churn accounting diverged from full rounds");
}

/// Runs one Optimus simulation of 4 jobs and returns the full report.
fn run_report(cfg: SimConfig) -> SimReport {
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs(4),
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    sim.run()
}

/// The flight recorder is a pure observer: with it on — at a roomy
/// capacity and at a tiny one that forces ring eviction — the event
/// log, the schedule stream, and the JCT decomposition must be byte
/// for byte what the recorder-off run produces.
#[test]
fn flight_recorder_is_decision_invariant() {
    let off = run_report(base_config());
    assert!(off.flight.is_none(), "no recorder configured, no log");
    for capacity in [4096usize, 2] {
        let mut cfg = base_config();
        cfg.flight = Some(FlightConfig { capacity });
        let on = run_report(cfg);
        assert_eq!(
            off.events.to_json_lines(),
            on.events.to_json_lines(),
            "event log diverged with recorder on (capacity {capacity})"
        );
        assert_eq!(
            off.events.schedule_stream_json_lines(),
            on.events.schedule_stream_json_lines(),
            "schedule stream diverged with recorder on (capacity {capacity})"
        );
        let (a, b) = (
            serde_json::to_string(&off.breakdown).unwrap(),
            serde_json::to_string(&on.breakdown).unwrap(),
        );
        assert_eq!(a, b, "JCT decomposition diverged (capacity {capacity})");
        let flight = on.flight.expect("recorder configured, log returned");
        assert!(flight.recorded > 0, "recorder saw rounds");
        assert!(
            flight.snapshots.len() <= capacity,
            "ring bounded by its capacity"
        );
        if capacity == 2 {
            assert!(flight.dropped > 0, "a 2-slot ring must evict");
        }
    }
}

/// Flight snapshots describe the physical testbed: pool capacities sum
/// to the paper's 13 servers, utilizations stay in [0, 1], and the
/// event counter is monotone over rounds. It counts every logged
/// event up to its round: all events before the round's time, plus
/// the round's own admissions, grants, pauses and rebalances (the
/// finishes and straggler replacements of the round's tick come after
/// the snapshot).
#[test]
fn flight_snapshots_are_physically_sane() {
    let mut cfg = base_config();
    cfg.record_events = true;
    cfg.straggler = StragglerPolicy::with_injection(0.002);
    cfg.flight = Some(FlightConfig::default());
    let report = run_report(cfg);
    let events = report.events.all();
    let log = report.flight.expect("flight log");
    assert!(log.recorded > 0 && log.dropped == 0);
    let mut prev_events = 0u64;
    let mut saw_load = false;
    for snap in &log.snapshots {
        // paper_testbed(): 7 cpu-class servers of 32 CPUs + 6 gpu-class
        // servers of 16 CPUs.
        let total_cpu: f64 = snap.pools.iter().map(|p| p.cpu_total).sum();
        assert_eq!(total_cpu, 7.0 * 32.0 + 6.0 * 16.0);
        let total_gpu: f64 = snap.pools.iter().map(|p| p.gpu_total).sum();
        assert_eq!(total_gpu, 6.0 * 2.0);
        for pool in &snap.pools {
            assert!(
                pool.cpu_used >= 0.0 && pool.cpu_used <= pool.cpu_total + 1e-9,
                "pool {} cpu {} of {}",
                pool.pool,
                pool.cpu_used,
                pool.cpu_total
            );
            let util = pool.cpu_util();
            assert!((-1e-9..=1.0 + 1e-9).contains(&util));
        }
        assert!((0.0..=1.0).contains(&snap.fragmentation));
        assert!(snap.events_total >= prev_events, "event counter monotone");
        let up_to_round = events
            .iter()
            .filter(|e| {
                e.t < snap.t_s
                    || e.t == snap.t_s
                        && matches!(
                            e.kind,
                            SimEventKind::JobAdmitted { .. }
                                | SimEventKind::JobScheduled { .. }
                                | SimEventKind::JobPaused { .. }
                                | SimEventKind::ChunksRebalanced { .. }
                        )
            })
            .count();
        assert_eq!(
            snap.events_total, up_to_round as u64,
            "events_total at round {}",
            snap.round
        );
        prev_events = snap.events_total;
        saw_load |= snap.cpu_util() > 0.0;
    }
    assert!(saw_load, "a 4-job run must show nonzero utilization");
}

/// Decision provenance is a pure observer: with why-records on, the
/// event log, the schedule stream, the JCT decomposition *and the
/// trace counters* must be byte for byte what the provenance-off run
/// produces — through the production engine and the tick-loop oracle,
/// with delta rounds and with the full-rounds oracle (DESIGN §14).
#[test]
fn provenance_is_decision_invariant() {
    let mut cfg = base_config();
    cfg.straggler = StragglerPolicy::with_injection(0.002);
    let drives: [(&str, Drive); 2] = [
        ("run", Simulation::run),
        ("run_reference", Simulation::run_reference),
    ];
    for (drive_name, drive) in drives {
        for delta in [false, true] {
            let run = |provenance: bool| {
                let tel = Telemetry::enabled();
                if provenance {
                    tel.enable_provenance();
                }
                let scheduler = if delta {
                    OptimusScheduler::build_with_telemetry(tel.clone())
                } else {
                    optimus_full_rounds_with_telemetry(tel.clone())
                };
                let mut run_cfg = cfg.clone();
                run_cfg.telemetry = tel.clone();
                let mut sim = Simulation::new(
                    Cluster::paper_testbed(),
                    specs(4),
                    Box::new(scheduler),
                    run_cfg,
                );
                (drive(&mut sim), tel)
            };
            let (off, off_tel) = run(false);
            let (on, on_tel) = run(true);
            assert_eq!(off_tel.why_count(), 0, "provenance off records nothing");
            assert!(on_tel.why_count() > 0, "provenance on records why-records");
            let label = format!("{drive_name}, delta={delta}");
            assert_eq!(
                off.events.to_json_lines(),
                on.events.to_json_lines(),
                "event log diverged with provenance on ({label})"
            );
            assert_eq!(
                off.events.schedule_stream_json_lines(),
                on.events.schedule_stream_json_lines(),
                "schedule stream diverged with provenance on ({label})"
            );
            assert_eq!(
                serde_json::to_string(&off.breakdown).unwrap(),
                serde_json::to_string(&on.breakdown).unwrap(),
                "JCT decomposition diverged with provenance on ({label})"
            );
            assert_eq!(
                off_tel.to_canonical_json_lines(),
                on_tel.to_canonical_json_lines(),
                "canonical trace diverged with provenance on ({label})"
            );
        }
    }
}

/// Every configuration the simulator actually grants must leave a
/// complete why-record trail: for each `JobScheduled` event there is a
/// provenance record for that job whose grant row and placement story
/// match the granted configuration, and every record carries the
/// current schema version.
#[test]
fn every_scheduled_job_has_a_complete_why_record() {
    let tel = Telemetry::enabled();
    tel.enable_provenance();
    let mut cfg = base_config();
    cfg.telemetry = tel.clone();
    cfg.straggler = StragglerPolicy::with_injection(0.002);
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs(5),
        Box::new(OptimusScheduler::build_with_telemetry(tel.clone())),
        cfg,
    );
    let report = sim.run();
    assert_eq!(report.unfinished_jobs, 0);
    let records = tel.why_records();
    assert!(!records.is_empty(), "a live run must record provenance");
    for rec in &records {
        assert_eq!(
            rec.v,
            Some(optimus_telemetry::SCHEMA_VERSION),
            "why-records are stamped with the ledger schema version"
        );
        assert!(rec.round >= 1, "rounds are 1-based");
    }
    let mut scheduled = 0usize;
    for event in report.events.all() {
        if let SimEventKind::JobScheduled {
            job, ps, workers, ..
        } = event.kind
        {
            scheduled += 1;
            // The event reports the *placed* configuration (possibly
            // shed below the grant); that story lives in the record's
            // placement section — the top-level row keeps the
            // requested grant.
            assert!(
                records.iter().any(|r| r.job == job.0
                    && r.place
                        .as_ref()
                        .is_some_and(|p| p.ps == ps && p.workers == workers)),
                "job {} placed as ({ps} ps, {workers} workers) at t={} has no \
                 matching why-record",
                job.0,
                event.t
            );
        }
    }
    assert!(scheduled > 0, "the run must schedule jobs");
}

/// Three jobs that arrive only after a 1000 s idle warm-up — the span
/// the event engine must skip rather than walk.
fn late_specs() -> Vec<JobSpec> {
    specs(3)
        .into_iter()
        .map(|s| {
            let at = s.submit_time + 1_000.0;
            s.at(at)
        })
        .collect()
}

#[test]
fn event_engine_cost_is_events_not_ticks() {
    let tel = Telemetry::enabled();
    let mut cfg = base_config();
    cfg.telemetry = tel.clone();
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        late_specs(),
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    assert_eq!(report.unfinished_jobs, 0);
    let scheduled = tel.counter("sim.events_scheduled");
    let waves = tel.counter("sim.waves");
    assert!(scheduled > 0, "the calendar scheduled events");
    assert!(waves > 0, "running jobs advanced through progress waves");
    // The whole point: calendar entries and waves are both far fewer
    // than the 40 000 grid ticks the reference loop walks.
    let max_ticks = base_config().max_time_s as u64; // one-second ticks
    assert!(
        scheduled < max_ticks / 2,
        "scheduled {scheduled} events for a {max_ticks}-tick horizon"
    );
    assert!(waves < max_ticks / 2, "{waves} waves for {max_ticks} ticks");
}
