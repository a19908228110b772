//! End-to-end integration tests spanning all crates.

use optimus::prelude::*;

fn paper_workload(n: usize, seed: u64) -> Vec<JobSpec> {
    WorkloadGenerator::new(
        ArrivalProcess::UniformRandom {
            count: n,
            horizon_s: 4_000.0,
        },
        seed,
    )
    .with_target_job_seconds(Some(2_400.0))
    .generate()
}

fn quick_config(seed: u64) -> SimConfig {
    SimConfig {
        interval_s: 300.0,
        max_time_s: 120_000.0,
        seed,
        ..SimConfig::default()
    }
}

#[test]
fn every_scheduler_completes_the_workload() {
    for build in [
        OptimusScheduler::build as fn() -> CompositeScheduler,
        DrfScheduler::build,
        TetrisScheduler::build,
    ] {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            paper_workload(5, 3),
            Box::new(build()),
            quick_config(3),
        );
        let report = sim.run();
        assert_eq!(report.unfinished_jobs, 0, "{}", report.scheduler);
        assert_eq!(report.jct.len(), 5);
        // Makespan bounds every individual JCT.
        for &(id, jct) in &report.jct {
            assert!(jct > 0.0, "{id:?}");
            assert!(jct <= report.makespan + 1e-6);
        }
    }
}

#[test]
fn simulations_are_deterministic() {
    let run = || {
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            paper_workload(4, 9),
            Box::new(OptimusScheduler::build()),
            quick_config(9),
        );
        sim.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.jct, b.jct);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.scale_events, b.scale_events);
    assert_eq!(a.chunks_moved, b.chunks_moved);
}

#[test]
fn optimus_beats_both_baselines_on_the_headline_workload() {
    // The paper's central claim, averaged over three seeds so one
    // unlucky draw cannot flip it.
    let seeds = [17u64, 23, 31];
    let mut totals = std::collections::HashMap::new();
    for &seed in &seeds {
        let jobs = WorkloadGenerator::new(ArrivalProcess::paper_default(9), seed)
            .with_target_job_seconds(Some(7_200.0))
            .generate();
        for (name, build, assignment) in [
            (
                "Optimus",
                OptimusScheduler::build as fn() -> CompositeScheduler,
                AssignmentPolicy::Paa,
            ),
            ("DRF", DrfScheduler::build, AssignmentPolicy::MxnetDefault),
            (
                "Tetris",
                TetrisScheduler::build,
                AssignmentPolicy::MxnetDefault,
            ),
        ] {
            let cfg = SimConfig {
                assignment,
                seed,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(
                Cluster::paper_testbed(),
                jobs.clone(),
                Box::new(build()),
                cfg,
            );
            let report = sim.run();
            assert_eq!(report.unfinished_jobs, 0, "{name} seed {seed}");
            let entry = totals.entry(name).or_insert((0.0, 0.0));
            entry.0 += report.avg_jct();
            entry.1 += report.makespan;
        }
    }
    let optimus = totals["Optimus"];
    for name in ["DRF", "Tetris"] {
        let other = totals[name];
        assert!(
            other.0 > 1.2 * optimus.0,
            "{name} JCT {:.0} should exceed Optimus {:.0} by ≥ 20 %",
            other.0,
            optimus.0
        );
        assert!(
            other.1 > 1.1 * optimus.1,
            "{name} makespan {:.0} should exceed Optimus {:.0} by ≥ 10 %",
            other.1,
            optimus.1
        );
    }
}

#[test]
fn online_estimates_drive_scheduling_not_ground_truth() {
    // The simulator's scheduler view must come from the fitted models:
    // after a run, every job's convergence estimator holds a model whose
    // prediction is close to (but not exactly) the hidden truth.
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        paper_workload(3, 21),
        Box::new(OptimusScheduler::build()),
        quick_config(21),
    );
    let _ = sim.run();
    // Jobs that finish within their first scheduling interval never get
    // a refit — every longer-lived job must have an accurate model. A
    // finished job has dropped its sample histories and still predicts.
    let mut fitted = 0;
    for job in sim.jobs() {
        assert!(job.finish_time.is_some(), "{} finished", job.spec.id);
        assert_eq!(job.convergence.sample_count(), 0, "{}", job.spec.id);
        assert_eq!(job.speed_model.sample_count(), 0, "{}", job.spec.id);
        assert!(job.speed_model.is_fit(), "{}", job.spec.id);
        assert!(job.speed_model.predict(4, 4) > 0.0, "{}", job.spec.id);
        if let Some(pred) = job.convergence.predict() {
            let truth = job.true_total_steps;
            let rel = (pred.total_steps as f64 - truth as f64).abs() / truth as f64;
            assert!(
                rel < 0.5,
                "{}: predicted {} vs true {truth}",
                job.spec.id,
                pred.total_steps
            );
            fitted += 1;
        }
    }
    assert!(fitted >= 2, "most jobs live long enough to be fitted");
}

#[test]
fn paa_assignment_accelerates_the_same_workload() {
    // The same jobs under the same scheduler, PAA vs stock MXNet block
    // assignment: PAA must not be slower overall (§5.3 / Fig 20).
    let run = |assignment| {
        let cfg = SimConfig {
            assignment,
            ..quick_config(33)
        };
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            paper_workload(5, 33),
            Box::new(OptimusScheduler::build()),
            cfg,
        );
        sim.run()
    };
    let paa = run(AssignmentPolicy::Paa);
    let mxnet = run(AssignmentPolicy::MxnetDefault);
    assert_eq!(paa.unfinished_jobs, 0);
    assert_eq!(mxnet.unfinished_jobs, 0);
    assert!(
        paa.makespan <= mxnet.makespan * 1.02,
        "PAA {:.0} vs MXNet {:.0}",
        paa.makespan,
        mxnet.makespan
    );
}

#[test]
fn straggler_mitigation_limits_damage() {
    use optimus::ps::StragglerPolicy;
    // With injection on, the monitor's detection/replacement must keep
    // the slowdown bounded relative to a run with detection disabled.
    let run = |detect: bool| {
        let mut policy = StragglerPolicy::with_injection(0.0015);
        if !detect {
            policy.detection_ratio = 0.0; // never replace
        }
        let cfg = SimConfig {
            straggler: policy,
            ..quick_config(55)
        };
        let mut sim = Simulation::new(
            Cluster::paper_testbed(),
            paper_workload(4, 55),
            Box::new(OptimusScheduler::build()),
            cfg,
        );
        sim.run()
    };
    let with_detection = run(true);
    let without = run(false);
    assert_eq!(with_detection.unfinished_jobs, 0);
    assert!(with_detection.straggler_replacements > 0);
    assert_eq!(without.straggler_replacements, 0);
    // Detection should not be (much) worse than letting stragglers run.
    assert!(
        with_detection.avg_jct() < without.avg_jct() * 1.15,
        "detection {:.0} vs none {:.0}",
        with_detection.avg_jct(),
        without.avg_jct()
    );
}

#[test]
fn orchestrator_runs_the_same_scheduler_decisions() {
    use optimus::core::JobView;
    use optimus::orchestrator::{ApiServer, NodeRecord, SchedulerPod};

    // The §5.5 deployment and the library scheduler must agree on task
    // counts for the same cluster and jobs.
    let cluster = Cluster::paper_testbed();
    let api = ApiServer::new();
    for server in cluster.servers() {
        api.create_node(&NodeRecord::ready(
            format!("node-{:02}", server.id().0),
            server.capacity(),
        ))
        .expect("fresh node");
    }

    let profile = ModelKind::Seq2Seq.profile();
    let truth = PsJobModel::new(profile, TrainingMode::Synchronous);
    let mut speed = SpeedModel::new(TrainingMode::Synchronous, profile.batch_size as f64);
    for (p, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8)] {
        speed.record(p, w, truth.speed(p, w));
    }
    speed.refit().expect("profiled");
    let jobs = vec![JobView {
        id: JobId(0),
        worker_profile: optimus::workload::job::default_container(),
        ps_profile: optimus::workload::job::default_container(),
        remaining_work: 10_000.0,
        speed,
        progress: 0.5,
        requested_units: 4,
    }];

    let direct = OptimusScheduler::build().schedule(&jobs, &cluster);
    let direct_tasks = direct.total_tasks();

    let mut pod = SchedulerPod::launch(api.clone(), Box::new(OptimusScheduler::build()));
    let out = pod.reconcile(&jobs).expect("healthy cluster");
    assert_eq!(out.pods_created as u64, direct_tasks);
}
