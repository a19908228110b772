//! The `bench_*` harnesses on a bad command line: an unknown flag, a
//! value flag with no value, an extra positional argument and a
//! `--points` job count no grid point has must print `error: …` and exit
//! 2 before anything is timed, and so before the table header reaches
//! stdout.

use std::process::Command;

#[test]
fn every_bench_rejects_bad_arguments_with_exit_2() {
    let benches = [
        ("bench_sched", env!("CARGO_BIN_EXE_bench_sched")),
        ("bench_fit", env!("CARGO_BIN_EXE_bench_fit")),
        ("bench_sim", env!("CARGO_BIN_EXE_bench_sim")),
    ];
    for (name, exe) in benches {
        let cases: [(&[&str], String); 6] = [
            (
                &["--sample", "1"],
                format!("unknown flag for {name}: --sample"),
            ),
            (
                &["--ledger", "out"],
                format!("unknown flag for {name}: --ledger"),
            ),
            (&["--samples"], "--samples requires a value".into()),
            (
                &["--out", "--samples", "1"],
                "--out requires a value".into(),
            ),
            (&["extra"], format!("unexpected argument for {name}: extra")),
            (&["--points", "3"], "--points: no 3-job grid point".into()),
        ];
        for (args, message) in cases {
            let out = Command::new(exe).args(args).output().expect("bench runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("error: {message}")),
                "{name} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{name} {args:?} started timing");
        }
    }
}
