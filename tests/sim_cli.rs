//! `optimus-sim` on input it cannot honour: an unknown flag, or an
//! interval or target duration that is not a positive finite number,
//! must print `error: …` and exit 1 — the exit code an unparsable
//! `--jobs` value gets — instead of running something else.

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

/// Asserts that `args` is rejected with exit 1 and an `error:` line
/// containing `message`.
fn rejects(args: &[&str], message: &str) {
    let (code, stderr) = sim(args);
    assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "{args:?}: stderr {stderr}"
    );
}

#[test]
fn invalid_jobs_value_exits_1() {
    rejects(&["run", "--jobs", "x"], "invalid value for --jobs: x");
}

#[test]
fn unknown_flags_are_rejected() {
    rejects(&["run", "--job", "2"], "unknown flag for run: --job");
    rejects(
        &["run", "--jobs", "2", "extra"],
        "unknown argument for run: extra",
    );
    rejects(&["batch", "--seed", "3"], "unknown flag for batch: --seed");
    rejects(
        &["generate", "--interval", "60"],
        "unknown flag for generate: --interval",
    );
    rejects(&["models", "--json"], "unknown flag for models: --json");
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
