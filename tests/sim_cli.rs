//! `optimus-sim` on input it cannot honour: an unknown flag or
//! subcommand, a flag with no value, an extra argument, a value that
//! does not parse, an interval or target duration that is not a
//! positive finite number, or an input file it cannot read must print
//! `error: …` and exit 2 — the bad-argument code every tool of the
//! workspace shares — instead of running something else.

use std::process::Command;

/// Runs `optimus-sim` with `args`; returns its exit code and stderr.
fn sim(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_optimus-sim"))
        .args(args)
        .output()
        .expect("optimus-sim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts that `args` is rejected with exit 2 and an `error:` line
/// containing `message`.
fn rejects(args: &[&str], message: &str) {
    let (code, stderr) = sim(args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "{args:?}: stderr {stderr}"
    );
}

#[test]
fn invalid_jobs_value_exits_2() {
    rejects(&["run", "--jobs", "x"], "invalid value for --jobs: x");
}

#[test]
fn unknown_flags_are_rejected() {
    let cases: [(&[&str], &str); 11] = [
        (&["run", "--job", "2"], "unknown flag for run: --job"),
        (
            &["run", "--jobs", "2", "extra"],
            "unexpected argument for run: extra",
        ),
        (&["run", "--jobs"], "--jobs requires a value"),
        (&["run", "--trace", "--json"], "--trace requires a value"),
        (
            &["run", "--scheduler", "srtf"],
            "invalid value for --scheduler: srtf",
        ),
        (
            &["run", "--trace-in", "/nonexistent/trace.json"],
            "/nonexistent/trace.json",
        ),
        (&["batch", "--seed", "3"], "unknown flag for batch: --seed"),
        (
            &["batch", "--schedulers", "drf,srtf"],
            "invalid value for --schedulers: srtf",
        ),
        (
            &["generate", "--interval", "60"],
            "unknown flag for generate: --interval",
        ),
        (&["models", "--json"], "unknown flag for models: --json"),
        (&["simulate"], "unknown subcommand: simulate"),
    ];
    for (args, message) in cases {
        rejects(args, message);
    }
}

#[test]
fn non_positive_or_non_finite_interval_is_rejected() {
    for bad in ["-5", "0", "NaN", "inf"] {
        rejects(
            &["run", "--jobs", "2", "--interval", bad],
            "invalid value for --interval",
        );
        rejects(
            &["batch", "--jobs", "2", "--interval", bad],
            "invalid value for --interval",
        );
    }
}

#[test]
fn non_positive_or_non_finite_target_hours_is_rejected() {
    for bad in ["NaN", "-1", "0", "inf"] {
        for cmd in ["run", "generate", "batch"] {
            rejects(
                &[cmd, "--jobs", "2", "--target-hours", bad],
                "invalid value for --target-hours",
            );
        }
    }
}

/// Every flag `generate` documents still parses.
#[test]
fn known_flags_still_run() {
    let (code, stderr) = sim(&[
        "generate",
        "--jobs",
        "2",
        "--seed",
        "3",
        "--target-hours",
        "0.5",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}
