//! The one argument parser of every command-line tool: `optimus-sim`,
//! `optimus-trace` and the `bench_*` harnesses.
//!
//! A command declares the flags that take a value, its switches, and
//! how many positional arguments it takes ([`Spec`]). Parsing is
//! strict: an unknown flag, a value flag with no value and an extra or
//! missing positional are errors, reported as `error: …` on stderr
//! with exit code 2 before the command does any work. `--help` and
//! `-h` print the command's usage to stdout and exit 0. Flags and
//! positionals may come in any order; a value flag given twice keeps
//! the last value ([`Args::value`]) unless the command reads them all
//! ([`Args::values`]).
//!
//! [`Bench`] holds what the three `bench_*` harnesses share: the
//! `--samples`, `--label`, `--out` and `--points` flags, and appending
//! the run's entry to the `--out` trajectory.

use crate::trajectory::append_trajectory;
use serde::Serialize;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;

/// Prints `error: {message}` and returns exit code 2, the code every
/// tool gives a bad argument or an input it cannot read or use.
pub fn fail(message: impl Display) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}

/// One command's command-line grammar.
pub struct Spec<'a> {
    /// The command as its errors name it (`run`, `timeline`,
    /// `bench_fit`).
    pub name: &'a str,
    /// Printed to stdout on `--help` or `-h`.
    pub usage: &'a str,
    /// Flags followed by a value.
    pub values: &'a [&'a str],
    /// Flags that stand alone.
    pub switches: &'a [&'a str],
    /// How many positional arguments the command takes.
    pub positionals: RangeInclusive<usize>,
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Spec<'_> {
    /// Parses `args` (the command line after the command's name). `Err`
    /// carries the code to exit with at once: 0 after printing the
    /// usage for `--help`, 2 after printing the error.
    pub fn parse(&self, args: &[String]) -> Result<Args, ExitCode> {
        match self.try_parse(args) {
            Ok(Some(parsed)) => Ok(parsed),
            Ok(None) => {
                print!("{}", self.usage);
                Err(ExitCode::SUCCESS)
            }
            Err(e) => Err(fail(e)),
        }
    }

    /// [`Spec::parse`] without the printing: `Ok(None)` asks for the
    /// usage, `Err` is the error message.
    fn try_parse(&self, args: &[String]) -> Result<Option<Args>, String> {
        let name = self.name;
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if self.values.contains(&arg.as_str()) {
                match it.next() {
                    Some(value) if !value.starts_with("--") => {
                        parsed.values.push((arg.clone(), value.clone()));
                    }
                    _ => return Err(format!("{arg} requires a value")),
                }
            } else if self.switches.contains(&arg.as_str()) {
                parsed.switches.push(arg.clone());
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(format!("unknown flag for {name}: {arg}"));
            } else if parsed.positionals.len() == *self.positionals.end() {
                return Err(format!("unexpected argument for {name}: {arg}"));
            } else {
                parsed.positionals.push(arg.clone());
            }
        }
        if parsed.positionals.len() < *self.positionals.start() {
            return Err(format!("missing argument for {name} (see --help)"));
        }
        Ok(Some(parsed))
    }
}

impl Args {
    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of the last `name` flag.
    pub fn value(&self, name: &str) -> Option<&str> {
        let last = self.values.iter().rev().find(|(n, _)| n == name);
        last.map(|(_, v)| v.as_str())
    }

    /// Every value of the `name` flag, in command-line order.
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s str> {
        let given = self.values.iter().filter(move |(n, _)| n == name);
        given.map(|(_, v)| v.as_str())
    }

    /// The positional arguments, in command-line order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of `name` parsed as a `T`, if the flag was given.
    pub fn parse<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name).map(|raw| parse_one(name, raw)).transpose()
    }

    /// [`Args::parse`], with `default` when the flag is absent.
    pub fn parse_or<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parse(name)?.unwrap_or(default))
    }

    /// The value of `name` as a comma-separated list of `T`s (`none`
    /// is the empty list), if the flag was given.
    pub fn list<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<Vec<T>>, String> {
        let Some(raw) = self.value(name) else {
            return Ok(None);
        };
        if raw == "none" {
            return Ok(Some(Vec::new()));
        }
        raw.split(',')
            .map(|item| parse_one(name, item.trim()))
            .collect::<Result<_, _>>()
            .map(Some)
    }
}

fn parse_one<T: FromStr<Err: Display>>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|e| format!("invalid value for {name}: {raw} ({e})"))
}

/// What every `bench_*` harness reads from its command line, and where
/// it records its entry.
pub struct Bench {
    /// Timed samples per point (`--samples`, at least 1).
    pub samples: u32,
    /// The entry's label (`--label`, default `current`).
    pub label: String,
    /// The trajectory file to append to (`--out`).
    out: Option<String>,
    /// The job counts `--points` keeps; `None` keeps every point.
    points: Option<Vec<usize>>,
    /// The whole command line, for the harness's own flags.
    pub args: Args,
}

/// The flags [`Bench`] reads.
const BENCH_VALUES: [&str; 4] = ["--samples", "--label", "--out", "--points"];

impl Bench {
    /// Parses a harness's command line: the shared flags plus its own
    /// `values` and `switches`, no positionals. A `--points` job count
    /// that no point of `grid` (the job count of every grid point) has
    /// is an error.
    pub fn parse(
        name: &str,
        usage: &str,
        values: &[&str],
        switches: &[&str],
        default_samples: u32,
        grid: &[usize],
    ) -> Result<Bench, ExitCode> {
        let values = [&BENCH_VALUES[..], values].concat();
        let args = Spec {
            name,
            usage,
            values: &values,
            switches,
            positionals: 0..=0,
        }
        .parse(&std::env::args().skip(1).collect::<Vec<_>>())?;
        let samples = args.parse_or("--samples", default_samples).map_err(fail)?;
        let points = job_counts(&args, "--points", grid).map_err(fail)?;
        Ok(Bench {
            samples: samples.max(1),
            label: args.value("--label").unwrap_or("current").to_string(),
            out: args.value("--out").map(str::to_string),
            points,
            args,
        })
    }

    /// Whether `--points` keeps a grid point of `jobs` jobs.
    pub fn keeps(&self, jobs: usize) -> bool {
        self.points.as_ref().is_none_or(|p| p.contains(&jobs))
    }

    /// Appends `entry` to the `--out` trajectory, if one was given, and
    /// says so. Exit code 2 when the file cannot be read, is not a JSON
    /// array or cannot be written.
    pub fn record<T: Serialize>(&self, entry: &T) -> ExitCode {
        let Some(path) = &self.out else {
            return ExitCode::SUCCESS;
        };
        match append_trajectory(path, entry) {
            Ok(()) => {
                println!("\nappended entry '{}' to {path}", self.label);
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        }
    }
}

/// `args`' `flag` as a comma list of job counts ([`Args::list`]), each
/// of which some point of `grid` (the job count of every grid point)
/// must have.
pub fn job_counts(args: &Args, flag: &str, grid: &[usize]) -> Result<Option<Vec<usize>>, String> {
    let wanted = args.list::<usize>(flag)?;
    if let Some(unknown) = wanted.iter().flatten().find(|j| !grid.contains(j)) {
        let mut known = grid.to_vec();
        known.sort_unstable();
        known.dedup();
        return Err(format!(
            "{flag}: no {unknown}-job grid point (known: {known:?})"
        ));
    }
    Ok(wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "demo",
        usage: "usage: demo\n",
        values: &["--top", "--ignore"],
        switches: &["--spans"],
        positionals: 1..=2,
    };

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        SPEC.try_parse(&args)
    }

    #[test]
    fn rejects_what_the_command_does_not_declare() {
        let cases: [(&[&str], &str); 6] = [
            (&["a", "--model"], "unknown flag for demo: --model"),
            (&["a", "-x"], "unknown flag for demo: -x"),
            (&["a", "--top"], "--top requires a value"),
            (&["a", "--top", "--spans"], "--top requires a value"),
            (&["a", "b", "c"], "unexpected argument for demo: c"),
            (&["--spans"], "missing argument for demo (see --help)"),
        ];
        for (args, message) in cases {
            assert_eq!(parse(args).unwrap_err(), message, "{args:?}");
        }
    }

    #[test]
    fn reads_values_switches_positionals_and_help() {
        let a = parse(&[
            "--top", "3", "a", "--spans", "--ignore", "x", "--ignore", "y",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(a.positionals(), ["a"]);
        assert!(a.has("--spans"));
        assert_eq!(a.parse_or::<usize>("--top", 10), Ok(3));
        assert_eq!(a.value("--ignore"), Some("y"));
        assert_eq!(a.values("--ignore").collect::<Vec<_>>(), ["x", "y"]);
        assert!(parse(&["a", "--top", "-5"]).unwrap().is_some());
        assert!(parse(&["a", "--model", "-h"]).is_err());
        assert!(parse(&["a", "-h", "--model"]).unwrap().is_none());
        assert!(parse(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn parses_numbers_and_comma_lists() {
        let a = parse(&["a", "--top", "x"]).unwrap().unwrap();
        let err = a.parse::<usize>("--top").unwrap_err();
        assert!(err.starts_with("invalid value for --top: x ("), "{err}");
        let a = parse(&["a", "--ignore", "1, 2,3"]).unwrap().unwrap();
        assert_eq!(a.list::<u32>("--ignore"), Ok(Some(vec![1, 2, 3])));
        assert_eq!(a.list::<u32>("--top"), Ok(None));
        let a = parse(&["a", "--ignore", "none"]).unwrap().unwrap();
        assert_eq!(a.list::<u32>("--ignore"), Ok(Some(vec![])));
        let a = parse(&["a", "--ignore", "1,x"]).unwrap().unwrap();
        assert!(a.list::<u32>("--ignore").is_err());
    }

    #[test]
    fn job_counts_must_name_grid_points() {
        let counts = |args: &[&str]| {
            let a = parse(args).unwrap().unwrap();
            job_counts(&a, "--ignore", &[2, 1, 2])
        };
        assert_eq!(counts(&["a"]), Ok(None));
        assert_eq!(counts(&["a", "--ignore", "2,1"]), Ok(Some(vec![2, 1])));
        assert_eq!(
            counts(&["a", "--ignore", "3"]),
            Err("--ignore: no 3-job grid point (known: [1, 2])".into())
        );
    }
}
