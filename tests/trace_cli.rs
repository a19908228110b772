//! `optimus-trace` on edge-case inputs: malformed-but-valid ledgers
//! (inputs that parse and pass the manifest hash check must produce a
//! report, never a panic) and bench histories `check-bench` cannot
//! gate.

use optimus::ledger::PROVENANCE_ARTIFACT;
use optimus::telemetry::ledger::RunLedger;
use std::process::Command;

/// A grant whose gain and runner-up gain both overflow to `+∞` makes
/// its winning margin `∞ − ∞ = NaN`. The `why --summary` margin
/// distribution must still sort it against a finite margin and print.
#[test]
fn why_summary_survives_infinite_gains() {
    let dir = std::env::temp_dir().join(format!("optimus-why-inf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = |job: u64, gain: &str, rival_gain: &str| {
        format!(
            r#"{{"v":4,"round":1,"job":{job},"ps":1,"workers":1,"alloc":{{"gain":{gain},"action":"worker","dom_worker":5,"dom_ps":5,"young":false,"priority_factor":1,"runners_up":[{{"job":{},"gain":{rival_gain},"action":"worker"}}]}},"place":null,"delta":{{"path":"Full"}}}}"#,
            1 - job
        ) + "\n"
    };
    let mut ledger = RunLedger::new("sim", "why-inf");
    ledger.add_artifact(
        PROVENANCE_ARTIFACT,
        record(0, "1e999", "1e999") + &record(1, "2", "1"),
    );
    ledger.write(&dir).expect("ledger writes");

    let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
        .arg("why")
        .arg(&dir)
        .arg("--summary")
        .output()
        .expect("optimus-trace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "optimus-trace panicked: {stderr}"
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 contested grants"),
        "margin section missing: {stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A newest bench entry whose grid points no prior entry measured
/// gates nothing: `check-bench` still passes, but names the point it
/// could not compare instead of passing silently.
#[test]
fn check_bench_names_points_without_a_baseline() {
    let dir = std::env::temp_dir().join(format!("optimus-check-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sched = dir.join("BENCH_sched.json");
    std::fs::write(
        &sched,
        r#"[
  {"label": "old", "points": [{"jobs": 250, "nodes": 500, "mean_ns": 1000}]},
  {"label": "new", "points": [{"jobs": 1000, "nodes": 6000, "churn_pct": 10, "delta": 1, "mean_ns": 5000}]}
]"#,
    )
    .expect("history writes");

    let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
        .arg("check-bench")
        .arg("--sched")
        .arg(&sched)
        .args(["--fit", "absent-fit.json", "--sim", "absent-sim.json"])
        .current_dir(&dir)
        .output()
        .expect("optimus-trace runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains("0 point-metric pairs checked"),
        "summary missing: {stdout}"
    );
    assert!(
        stdout.contains(
            "not gated, no prior baseline: jobs=1000 nodes=6000 churn_pct=10 delta=1 (mean_ns)"
        ),
        "ungated point not named: {stdout}"
    );
    assert!(
        !stdout.contains("jobs=250"),
        "gated-side point listed: {stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A line nested far past the JSON parser's 128-level limit is one more
/// unparseable line: `optimus-trace FILE` reports it and exits 1,
/// where unbounded recursion used to abort on a stack overflow.
#[test]
fn deeply_nested_trace_line_is_an_error_not_a_crash() {
    let path = std::env::temp_dir().join(format!("optimus-deep-{}.jsonl", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000) + "\n").expect("trace writes");

    let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
        .arg(&path)
        .output()
        .expect("optimus-trace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("no parseable trace lines (1 unparseable)"),
        "stderr: {stderr}"
    );

    let _ = std::fs::remove_file(&path);
}
