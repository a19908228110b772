//! The committed `BENCH_*.json` timing trajectories: what `bench_sched`,
//! `bench_fit` and `bench_sim` append, and what
//! `optimus-trace check-bench` reads back.
//!
//! A file holds a JSON array of entries, oldest first. Every entry
//! carries the [`Host`] it ran on and a list of points; a point names
//! itself with a `key` string and lists its gated [`Metric`]s, each
//! with its direction, its raw per-sample values and their quartiles
//! ([`crate::stats::quartiles`]), the inputs of
//! [`crate::compare::verdict`]. A bench adds its own informational
//! fields beside `key` and `metrics`; the reader ignores them. Entries
//! without a `host` block predate this format: they stay in the files
//! and are never compared.

use crate::compare::Side;
use crate::host::Host;
use crate::stats::quartiles;
use serde::{Deserialize, Serialize};

/// One gated metric of a trajectory point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    /// `"higher"` or `"lower"`: the direction that is better.
    pub better: String,
    pub unit: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// One value per timed sample, in sampling order.
    pub values: Vec<f64>,
}

impl Metric {
    /// A metric over `values` (at least one), with its quartiles.
    pub fn new(name: &str, higher_is_better: bool, unit: &str, values: Vec<f64>) -> Metric {
        let (q1, median, q3) = quartiles(&values);
        Metric {
            name: name.into(),
            better: if higher_is_better { "higher" } else { "lower" }.into(),
            unit: unit.into(),
            median,
            q1,
            q3,
            values,
        }
    }

    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }

    /// This metric as one side of [`crate::compare::verdict`].
    pub fn side(&self) -> Side {
        Side {
            median: self.median,
            q1: self.q1,
            q3: self.q3,
            values: self.values.clone(),
        }
    }
}

/// A point as the reader sees it.
#[derive(Debug, Clone, Deserialize)]
pub struct Point {
    pub key: String,
    pub metrics: Vec<Metric>,
}

/// An entry as the reader sees it.
#[derive(Debug, Clone, Deserialize)]
pub struct Entry {
    pub label: String,
    pub host: Host,
    pub points: Vec<Point>,
}

/// Whether two hosts may be compared: the same CPU model, core count,
/// AVX-512 path, compiler and refit thread cap. The git revision and
/// the calibration time are what a comparison measures or tolerates,
/// so they do not count.
pub fn same_host(a: &Host, b: &Host) -> bool {
    a.cpu_model == b.cpu_model
        && a.nproc == b.nproc
        && a.avx512f == b.avx512f
        && a.rustc == b.rustc
        && a.refit_threads == b.refit_threads
}

/// Appends one entry to a committed `BENCH_*.json` trajectory: the
/// file holds a JSON array (a missing file starts an empty one) and is
/// rewritten pretty-printed with a trailing newline. Fails, naming
/// `path`, when the file is not a JSON array or cannot be read or
/// written.
pub fn append_trajectory<T: Serialize>(path: &str, entry: &T) -> Result<(), String> {
    let mut entries: Vec<serde_json::Value> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str(&text) {
            Ok(serde_json::Value::Array(v)) => v,
            Ok(_) | Err(_) => return Err(format!("{path} exists but is not a JSON array")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    entries.push(serde_json::to_value(entry).expect("entry serializes"));
    let json = serde_json::to_string_pretty(&serde_json::Value::Array(entries))
        .expect("entries serialize");
    std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_appends_to_an_array_and_rejects_anything_else() {
        let path = std::env::temp_dir().join(format!("bench-traj-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path").to_string();
        let _ = std::fs::remove_file(&path);
        append_trajectory(&path, &vec![1u32]).expect("creates the file");
        append_trajectory(&path, &vec![2u32]).expect("appends");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("]\n"), "{text}");
        match serde_json::from_str(&text) {
            Ok(serde_json::Value::Array(v)) => assert_eq!(v.len(), 2),
            other => panic!("not an array: {other:?}"),
        }
        std::fs::write(&path, "{}").unwrap();
        let err = append_trajectory(&path, &1u32).unwrap_err();
        assert_eq!(err, format!("{path} exists but is not a JSON array"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn written_metrics_read_back_as_verdict_sides() {
        let m = Metric::new("ns", false, "ns", vec![3.0, 1.0, 2.0]);
        assert_eq!((m.q1, m.median, m.q3), (1.0, 2.0, 3.0));
        let text = serde_json::to_string(&m).unwrap();
        let back: Metric = serde_json::from_str(&text).unwrap();
        assert!(!back.higher_is_better());
        assert_eq!(back.side(), m.side());
        assert_eq!(back.values, [3.0, 1.0, 2.0]);
    }
}
