//! `optimus-trace` on edge-case inputs: malformed-but-valid ledgers
//! (inputs that parse and pass the manifest hash check must produce a
//! report, never a panic) and the `check-bench` regression judge.

use optimus::ledger::PROVENANCE_ARTIFACT;
use optimus::telemetry::ledger::RunLedger;
use optimus_bench::trajectory::Metric;
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

/// One `BENCH_*.json` entry in the trajectory format: one point `key`
/// with one lower-is-better `ns` metric over `ns`, under a host block
/// naming `cpu` (none when `cpu` is `None`).
fn bench_entry(label: &str, cpu: Option<&str>, key: &str, ns: &[f64]) -> String {
    let host = cpu.map_or(String::new(), |cpu| {
        format!(
            r#""host": {{"cpu_model": "{cpu}", "nproc": 2, "avx512f": true, "rustc": "rustc 1.0.0",
              "git": "abc1234", "refit_threads": 2, "calibration_ms": 10.0}},"#
        )
    });
    let metric = serde_json::to_string(&Metric::new("ns", false, "ns", ns.to_vec())).unwrap();
    format!(
        r#"{{"label": "{label}", {host} "points": [{{"key": "{key}", "metrics": [{metric}]}}]}}"#
    )
}

/// Writes `entries` as a trajectory file in a fresh directory named
/// after `test`, and runs `check-bench` on it.
fn check_bench(test: &str, entries: &[String]) -> (std::process::Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("optimus-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("BENCH_sched.json");
    std::fs::write(&file, format!("[{}]", entries.join(",\n"))).expect("history writes");
    let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
        .arg("check-bench")
        .arg(&file)
        .output()
        .expect("optimus-trace runs");
    let _ = std::fs::remove_dir_all(&dir);
    (out, file)
}

const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

/// Same host, medians 2 % apart: the pair is judged and passes, and the
/// report names both labels and the host.
#[test]
fn check_bench_passes_a_same_host_entry_within_the_bound() {
    let near = STEADY.map(|v| v * 1.02);
    let (out, _) = check_bench(
        "bench-within",
        &[
            bench_entry("base", Some("cpu-a"), "jobs=250", &STEADY),
            bench_entry("new", Some("cpu-a"), "jobs=250", &near),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.contains(r#"newest "new" vs "base", host: cpu-a"#),
        "labels or host missing: {stdout}"
    );
    assert!(
        stdout.contains("1 point-metric pair(s) judged at a 10 % bound, 0 worse"),
        "{stdout}"
    );
}

/// A median 30 % slower than the same-host base, every sample beyond
/// the base's range, fails and names the file, the point and the metric.
#[test]
fn check_bench_fails_a_worse_separated_median() {
    let slow = STEADY.map(|v| v * 1.3);
    let (out, file) = check_bench(
        "bench-worse",
        &[
            bench_entry("base", Some("cpu-a"), "jobs=250", &STEADY),
            bench_entry("new", Some("cpu-a"), "jobs=250", &slow),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("{}: WORSE at jobs=250: ns", file.display())),
        "file, point or metric not named: {stderr}"
    );
}

/// A newest entry whose host no earlier entry shares gates nothing,
/// which fails and names the host.
#[test]
fn check_bench_fails_without_a_same_host_predecessor() {
    let (out, _) = check_bench(
        "bench-no-host",
        &[
            bench_entry("base", Some("cpu-b"), "jobs=250", &STEADY),
            bench_entry("new", Some("cpu-a"), "jobs=250", &STEADY),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains(r#"newest entry "new" has no earlier entry on its host: cpu-a"#),
        "host not named: {stdout}"
    );
}

/// Later entries from another host, and old entries without a host
/// block, are passed over for the latest same-host one.
#[test]
fn check_bench_skips_other_host_and_hostless_entries() {
    let awful = STEADY.map(|v| v * 0.5);
    let (out, _) = check_bench(
        "bench-skip",
        &[
            bench_entry("base", Some("cpu-a"), "jobs=250", &STEADY),
            bench_entry("hostless", None, "jobs=250", &awful),
            bench_entry("elsewhere", Some("cpu-b"), "jobs=250", &awful),
            bench_entry("new", Some("cpu-a"), "jobs=250", &STEADY),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains(r#"newest "new" vs "base""#), "{stdout}");
}

/// A newest bench entry whose points no same-host entry measured gates
/// nothing: `check-bench` names the point it could not compare and
/// fails rather than passing silently.
#[test]
fn check_bench_names_points_without_a_baseline() {
    let (out, _) = check_bench(
        "bench-ungated",
        &[
            bench_entry("old", Some("cpu-a"), "jobs=250 nodes=500", &STEADY),
            bench_entry(
                "new",
                Some("cpu-a"),
                "jobs=1000 nodes=6000 path=delta",
                &STEADY,
            ),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("not gated, no same-host baseline: jobs=1000 nodes=6000 path=delta (ns)"),
        "ungated point not named: {stdout}"
    );
    assert!(
        stdout.contains("FAIL: nothing gated on host: cpu-a"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("jobs=250"),
        "base-only point listed: {stdout}"
    );
}

/// A missing or unparseable trajectory is an input error: exit 2.
#[test]
fn check_bench_rejects_missing_or_unparseable_files() {
    let path = std::env::temp_dir().join(format!("optimus-bench-bad-{}.json", std::process::id()));
    std::fs::write(&path, "[{").expect("file writes");
    let missing = path.with_extension("absent");
    for args in [
        vec![path.to_str().unwrap()],
        vec![missing.to_str().unwrap()],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
            .arg("check-bench")
            .args(&args)
            .output()
            .expect("optimus-trace runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A line nested far past the JSON parser's 128-level limit is one more
/// unparseable line: `optimus-trace FILE` reports it and exits 2 (an
/// invalid input), where unbounded recursion used to abort on a stack
/// overflow.
#[test]
fn deeply_nested_trace_line_is_an_error_not_a_crash() {
    let path = std::env::temp_dir().join(format!("optimus-deep-{}.jsonl", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000) + "\n").expect("trace writes");

    let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
        .arg(&path)
        .output()
        .expect("optimus-trace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("no parseable trace lines (1 unparseable)"),
        "stderr: {stderr}"
    );

    let _ = std::fs::remove_file(&path);
}

/// Every mode rejects an unknown flag, a value flag with no value and an
/// extra positional argument with `error: …` and exit 2, before it reads
/// any input (`check-bench` has no value flag and takes any number of
/// files, so only the unknown flag applies to it).
#[test]
fn every_mode_rejects_bad_arguments_with_exit_2() {
    const RUN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/ledger-smoke");
    let cases: [(&[&str], &str); 13] = [
        (&[RUN, "--model"], "unknown flag for optimus-trace: --model"),
        (&[RUN, "--top"], "--top requires a value"),
        (&[RUN, RUN], "unexpected argument for optimus-trace: "),
        (
            &["timeline", RUN, "--widht", "40"],
            "unknown flag for timeline: --widht",
        ),
        (&["timeline", RUN, "--width"], "--width requires a value"),
        (
            &["timeline", RUN, RUN],
            "unexpected argument for timeline: ",
        ),
        (
            &["why", "1", RUN, "--rounds", "3"],
            "unknown flag for why: --rounds",
        ),
        (&["why", "1", RUN, "--round"], "--round requires a value"),
        (
            &["why", "1", RUN, "extra"],
            "unexpected argument for why: extra",
        ),
        (
            &["diff", RUN, RUN, "--ignored", "x"],
            "unknown flag for diff: --ignored",
        ),
        (&["diff", RUN, RUN, "--ignore"], "--ignore requires a value"),
        (&["diff", RUN, RUN, RUN], "unexpected argument for diff: "),
        (
            &["check-bench", "--tolerance", "0.1"],
            "unknown flag for check-bench: --tolerance",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_optimus-trace"))
            .args(args)
            .output()
            .expect("optimus-trace runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} did some work");
    }
}
