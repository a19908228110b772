//! Run-ledger integration tests: identical configurations must produce
//! byte-identical (hash-identical) ledgers, and two runs that differ
//! only by an injected server failure must be triaged by
//! [`optimus::ledger::diff_runs`] to the exact first divergent line —
//! the same line a direct comparison of the event logs finds. The
//! production path's ledger must also hash like its oracles': the
//! tick-loop oracle's on every artifact but the trace, and the
//! full-rounds oracle's on every decision artifact.

use optimus::ledger::{
    self, LoadedRun, EVENTS_ARTIFACT, JCT_ARTIFACT, SCHEDULE_ARTIFACT, TRACE_ARTIFACT,
};
use optimus::prelude::*;
use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optimus-ledger-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One small telemetered run, written as a ledger to `dir` and loaded
/// back (which re-verifies every artifact hash).
fn run_ledgered(dir: &Path, failure: Option<(f64, ServerId)>) -> LoadedRun {
    run_ledgered_with(
        dir,
        failure,
        false,
        OptimusScheduler::build_with_telemetry,
        Simulation::run,
    )
}

/// [`run_ledgered`] with decision provenance optionally recorded, a
/// chosen scheduler, and a chosen entry point (`Simulation::run` or the
/// `Simulation::run_reference` oracle).
fn run_ledgered_with(
    dir: &Path,
    failure: Option<(f64, ServerId)>,
    provenance: bool,
    scheduler: fn(Telemetry) -> CompositeScheduler,
    drive: fn(&mut Simulation) -> SimReport,
) -> LoadedRun {
    let jobs = WorkloadGenerator::new(ArrivalProcess::paper_default(4), 7)
        .with_target_job_seconds(Some(1_800.0))
        .generate();
    let tel = Telemetry::enabled();
    if provenance {
        tel.enable_provenance();
    }
    let cfg = SimConfig {
        interval_s: 120.0,
        seed: 7,
        assignment: AssignmentPolicy::Paa,
        record_events: true,
        telemetry: tel.clone(),
        server_failures: failure.into_iter().collect(),
        flight: Some(FlightConfig::default()),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        Cluster::paper_testbed(),
        jobs,
        Box::new(scheduler(tel.clone())),
        cfg,
    );
    let report = drive(&mut sim);
    ledger::sim_run_ledger(&report, &tel, "ledger-test", 7, serde_json::Value::Null)
        .write(dir)
        .expect("ledger writes");
    ledger::load_run(dir).expect("ledger loads back")
}

#[test]
fn identical_configs_produce_identical_ledgers() {
    let (dir_a, dir_b) = (scratch_dir("same-a"), scratch_dir("same-b"));
    let a = run_ledgered(&dir_a, None);
    let b = run_ledgered(&dir_b, None);

    for rec in &a.manifest.artifacts {
        let other = b.manifest.artifact(&rec.name).expect("artifact in both");
        assert_eq!(rec.hash, other.hash, "{} hashes differ", rec.name);
    }
    let diff = ledger::diff_runs(&a, &b);
    assert!(diff.identical, "self-diff must be empty: {diff:?}");
    assert_eq!(diff.matching.len(), 5);
    assert!(diff.divergence.is_none());

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn injected_failure_is_localized_to_the_first_divergent_line() {
    let (dir_clean, dir_failed) = (scratch_dir("clean"), scratch_dir("failed"));
    let clean = run_ledgered(&dir_clean, None);
    let failed = run_ledgered(&dir_failed, Some((500.0, ServerId(0))));

    let diff = ledger::diff_runs(&clean, &failed);
    assert!(!diff.identical, "a server failure must change the run");
    let d = diff.divergence.as_ref().expect("divergence localized");
    assert_eq!(d.artifact, EVENTS_ARTIFACT, "event log triaged first");

    // Cross-check against a direct line-by-line comparison of the two
    // event logs: diff_runs must point at the very same line.
    let log_a: Vec<&str> = clean.artifacts[EVENTS_ARTIFACT].lines().collect();
    let log_b: Vec<&str> = failed.artifacts[EVENTS_ARTIFACT].lines().collect();
    let first_diff = (0..log_a.len().max(log_b.len()))
        .find(|&i| log_a.get(i) != log_b.get(i))
        .expect("logs differ");
    assert_eq!(d.line, first_diff + 1, "1-based first divergent line");

    // The divergent event decodes: the failure fires at t = 500 s, so
    // nothing before that can differ and the round must resolve.
    let t = d.t.expect("divergent event carries a time");
    assert!(t >= 500.0, "divergence at t = {t}, before the failure");
    assert!(d.round.is_some(), "round resolved from the trace");
    assert!(!d.context_a.is_empty() && !d.context_b.is_empty());
    assert_ne!(d.kind_a, "", "kind decoded on side A");

    let _ = std::fs::remove_dir_all(&dir_clean);
    let _ = std::fs::remove_dir_all(&dir_failed);
}

/// The Optimus composition without the delta engine, every component
/// sharing `tel`: each round runs the full allocation and placement
/// passes.
fn optimus_full_rounds(tel: Telemetry) -> CompositeScheduler {
    CompositeScheduler::new(
        "Optimus",
        Box::new(OptimusAllocator::default().with_telemetry(tel.clone())),
        Box::new(OptimusPlacer::default().with_telemetry(tel.clone())),
    )
    .with_telemetry(tel)
}

/// Asserts that `a` and `b` hash equal on exactly the artifacts `same`
/// selects by name, and that both ledgers list the same artifacts.
fn assert_hashes_match(a: &LoadedRun, b: &LoadedRun, same: impl Fn(&str) -> bool) {
    let names = |run: &LoadedRun| -> Vec<String> {
        run.manifest
            .artifacts
            .iter()
            .map(|r| r.name.clone())
            .collect()
    };
    assert_eq!(names(a), names(b), "artifact lists differ");
    for rec in a.manifest.artifacts.iter().filter(|r| same(&r.name)) {
        let other = b.manifest.artifact(&rec.name).expect("artifact in both");
        assert_eq!(rec.hash, other.hash, "{} hashes differ", rec.name);
    }
}

/// The tick-loop oracle reproduces every artifact of the production
/// run except `trace.jsonl`, which carries each engine's own counters.
#[test]
fn production_ledger_matches_the_tick_loop_oracle() {
    let (dir_run, dir_ref) = (scratch_dir("oracle-run"), scratch_dir("oracle-ref"));
    let build = OptimusScheduler::build_with_telemetry;
    let run = run_ledgered_with(&dir_run, None, true, build, Simulation::run);
    let reference = run_ledgered_with(&dir_ref, None, true, build, Simulation::run_reference);
    assert_hashes_match(&run, &reference, |name| name != TRACE_ARTIFACT);
    assert_eq!(run.manifest.artifacts.len(), 6, "provenance recorded");

    let _ = std::fs::remove_dir_all(&dir_run);
    let _ = std::fs::remove_dir_all(&dir_ref);
}

/// Delta rounds make the same decisions as full rounds. Only the
/// decision artifacts are compared: replayed work emits different
/// telemetry (trace and flight counters) and why-records narrate the
/// delta path taken (provenance).
#[test]
fn production_ledger_matches_the_full_rounds_oracle() {
    let (dir_delta, dir_full) = (scratch_dir("delta"), scratch_dir("full-rounds"));
    let delta = run_ledgered_with(
        &dir_delta,
        None,
        true,
        OptimusScheduler::build_with_telemetry,
        Simulation::run,
    );
    let full = run_ledgered_with(&dir_full, None, true, optimus_full_rounds, Simulation::run);
    assert_hashes_match(&delta, &full, |name| {
        [EVENTS_ARTIFACT, SCHEDULE_ARTIFACT, JCT_ARTIFACT].contains(&name)
    });

    let _ = std::fs::remove_dir_all(&dir_delta);
    let _ = std::fs::remove_dir_all(&dir_full);
}

/// `value::render` of `x`'s `Value` tree: the tree path every artifact
/// record took before records were written straight into strings.
fn rendered<T: serde::Serialize>(x: &T) -> String {
    serde::value::render(&x.to_value(), None, 0)
}

/// Each rendered record followed by a newline.
fn rendered_lines<'a, T: serde::Serialize + 'a>(items: impl IntoIterator<Item = &'a T>) -> String {
    items.into_iter().map(|x| rendered(x) + "\n").collect()
}

/// The artifact exporters write records straight into one string
/// (`Serialize::write_json` and the streaming trace writer). On a run
/// with stragglers, chunk rebalances and a server failure, every
/// record of every artifact must come out as its `Value` tree renders,
/// and the canonical trace must equal `canonical_lines` of the full
/// export, rendered line by line.
#[test]
fn streamed_artifacts_match_their_value_trees() {
    use optimus::ps::StragglerPolicy;
    use optimus::simulator::{SimEvent, SimEventKind};
    use optimus::telemetry::trace::canonical_lines;
    use optimus::telemetry::TraceLine;

    let jobs = WorkloadGenerator::new(ArrivalProcess::paper_default(8), 11)
        .with_target_job_seconds(Some(1_800.0))
        .generate();
    let tel = Telemetry::enabled();
    tel.enable_provenance();
    let cfg = SimConfig {
        interval_s: 120.0,
        seed: 11,
        assignment: AssignmentPolicy::Paa,
        straggler: StragglerPolicy::with_injection(0.002),
        server_failures: vec![(600.0, ServerId(3))],
        record_events: true,
        telemetry: tel.clone(),
        flight: Some(FlightConfig::default()),
        ..SimConfig::default()
    };
    let report = Simulation::new(
        Cluster::paper_testbed(),
        jobs,
        Box::new(OptimusScheduler::build_with_telemetry(tel.clone())),
        cfg,
    )
    .run();
    assert!(report.straggler_replacements > 0, "stragglers replaced");
    assert!(report.chunks_moved > 0, "chunks rebalanced");
    assert!(
        report.events.all().last().is_some_and(|e| e.t > 600.0),
        "the run outlives the server failure"
    );

    // events.jsonl and schedule.jsonl: newline-joined, no final newline.
    let joined = |events: Vec<&SimEvent>| -> String {
        events
            .into_iter()
            .map(rendered)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let events = report.events.all();
    assert_eq!(
        report.events.to_json_lines(),
        joined(events.iter().collect())
    );
    let schedule = events.iter().filter(|e| {
        matches!(
            e.kind,
            SimEventKind::JobScheduled { .. }
                | SimEventKind::JobPaused { .. }
                | SimEventKind::ChunksRebalanced { .. }
        )
    });
    assert_eq!(
        report.events.schedule_stream_json_lines(),
        joined(schedule.collect())
    );

    // jct.jsonl, flight.jsonl and provenance.jsonl.
    for b in &report.breakdown {
        assert_eq!(serde_json::to_string(b).unwrap(), rendered(b));
    }
    let flight = report.flight.as_ref().expect("flight recorder on");
    assert!(!flight.snapshots.is_empty());
    assert_eq!(flight.to_json_lines(), rendered_lines(&flight.snapshots));
    let why = tel.why_records();
    assert!(!why.is_empty());
    assert_eq!(tel.why_json_lines(), rendered_lines(&why));

    // trace.jsonl: the full export line by line, holding exactly the
    // recorded decisions, then its canonical form.
    let full = tel.to_json_lines();
    let snapshot: Vec<TraceLine> = full
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line parses"))
        .collect();
    assert_eq!(full, rendered_lines(&snapshot));
    let recorded: Vec<(u64, u64)> = tel.records().iter().map(|r| (r.seq, r.t_us)).collect();
    let exported: Vec<(u64, u64)> = snapshot
        .iter()
        .filter_map(|l| match l {
            TraceLine::Event { seq, t_us, .. } => Some((*seq, *t_us)),
            _ => None,
        })
        .collect();
    assert_eq!(exported, recorded);
    assert_eq!(
        tel.to_canonical_json_lines(),
        rendered_lines(&canonical_lines(&snapshot))
    );

    // And the whole report, which nests every shape above.
    assert_eq!(serde_json::to_string(&report).unwrap(), rendered(&report));
}
