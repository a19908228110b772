//! Admission through the arrival index, on inputs the workload
//! generators never produce: unsorted and tied submit times, a negative
//! one, `+∞` and NaN arrivals, and a job submitted after the time cap.
//!
//! Admission must behave exactly like a scan over every job: each job
//! is admitted at the first round tick `t` with `submit_time <= t`, an
//! arrival that can never be admitted (NaN, `+∞`, past the cap) stays
//! pending without holding back the jobs behind it, and both engines
//! replay the same bytes.

use optimus_cluster::Cluster;
use optimus_core::prelude::*;
use optimus_simulator::{JobStatus, SimConfig, SimEngine, SimEventKind, Simulation};
use optimus_workload::{JobId, JobSpec, ModelKind, TrainingMode};

const INTERVAL_S: f64 = 120.0;
const MAX_TIME_S: f64 = 40_000.0;

/// Submit times in job-index order. Unsorted, with ties at 250 s and at
/// the 120 s round tick; NaN and `+∞` sit in the middle of the index
/// range so later jobs must get past them. The NaN is negative: a total
/// order sorts it before every number, where a cursor would stall on it.
const SUBMIT: [f64; 10] = [
    250.0,
    0.0,
    f64::INFINITY,
    250.0,
    -f64::NAN,
    120.0,
    50_000.0,
    10.0,
    -30.0,
    130.0,
];

fn specs() -> Vec<JobSpec> {
    SUBMIT
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            JobSpec::new(
                JobId(i as u64),
                ModelKind::CnnRand,
                if i % 2 == 0 {
                    TrainingMode::Synchronous
                } else {
                    TrainingMode::Asynchronous
                },
                0.03,
            )
            .at(at)
            .scaled(0.3)
        })
        .collect()
}

/// Whether a job with this submit time can ever be admitted.
fn admissible(at: f64) -> bool {
    at <= MAX_TIME_S
}

fn run(engine: SimEngine) -> (Simulation, optimus_simulator::SimReport) {
    let cfg = SimConfig {
        interval_s: INTERVAL_S,
        max_time_s: MAX_TIME_S,
        record_events: true,
        engine,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        specs(),
        Box::new(OptimusScheduler::build()),
        cfg,
    );
    let report = sim.run();
    (sim, report)
}

#[test]
fn each_job_is_admitted_at_its_first_eligible_round() {
    let (_, report) = run(SimEngine::Event);
    let mut admitted_at = vec![None; SUBMIT.len()];
    for event in report.events.all() {
        if let SimEventKind::JobAdmitted { job, .. } = event.kind {
            let slot = &mut admitted_at[job.0 as usize];
            assert!(slot.is_none(), "job {} admitted twice", job.0);
            *slot = Some(event.t);
        }
    }
    for (i, &at) in SUBMIT.iter().enumerate() {
        let expected = admissible(at).then(|| (at / INTERVAL_S).ceil().max(0.0) * INTERVAL_S);
        assert_eq!(
            admitted_at[i], expected,
            "job {i} (submit {at}) admitted at the wrong round"
        );
    }
}

#[test]
fn unreachable_arrivals_stay_pending_and_the_rest_finish() {
    let (sim, report) = run(SimEngine::Event);
    for (job, &at) in sim.jobs().iter().zip(&SUBMIT) {
        if admissible(at) {
            assert_eq!(
                job.status,
                JobStatus::Finished,
                "job {} (submit {at}) must finish",
                job.spec.id.0
            );
        } else {
            assert_eq!(
                job.status,
                JobStatus::Pending,
                "job {} (submit {at}) must never be admitted",
                job.spec.id.0
            );
        }
    }
    let unreachable = SUBMIT.iter().filter(|&&at| !admissible(at)).count();
    assert_eq!(report.unfinished_jobs, unreachable);
}

#[test]
fn both_engines_replay_the_same_bytes() {
    let (_, tick) = run(SimEngine::Tick);
    let (_, event) = run(SimEngine::Event);
    assert_eq!(
        tick.events.to_json_lines(),
        event.events.to_json_lines(),
        "event log diverged between engines"
    );
    assert_eq!(
        serde_json::to_string(&tick).expect("report serializes"),
        serde_json::to_string(&event).expect("report serializes"),
        "report diverged between engines"
    );
}
