//! `--compare BASE.json NEW.json`: per workload and end-to-end metric,
//! both sides' medians and quartiles, the ratio to the base, and a
//! verdict against the metric's bound in `BENCHMARK.json`.
//!
//! * **worse**: the median moved the wrong way by more than the bound,
//!   and the runs are either steady enough to tell (spread within the
//!   bound) or fully separated;
//! * **unresolved**: a side's quartile spread is wider than the bound
//!   and the runs are not separated, so the data cannot say;
//! * **better**: the median moved the right way by more than the base's
//!   own spread;
//! * **within**: none of the above.

use serde_json::Value;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a comparison: a metric's summary from one result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Side {
    fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }

    fn range(&self) -> (f64, f64) {
        let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

pub fn verdict(higher_is_better: bool, base: &Side, new: &Side, bound: f64) -> Verdict {
    if base.median == 0.0 || !base.median.is_finite() || !new.median.is_finite() {
        return Verdict::Unresolved;
    }
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    // Positive is an improvement, as a share of the base median.
    let change = sign * (new.median - base.median) / base.median.abs();
    let ((b_lo, b_hi), (n_lo, n_hi)) = (base.range(), new.range());
    let (all_better, all_worse) = if higher_is_better {
        (n_lo > b_hi, n_hi < b_lo)
    } else {
        (n_hi < b_lo, n_lo > b_hi)
    };
    let noisy = base.spread().max(new.spread()) > bound;
    if change < -bound {
        return if noisy && !all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        };
    }
    if noisy && !all_better {
        return Verdict::Unresolved;
    }
    if change > 0.0 && change > base.spread() {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(metric: &Value) -> Option<Side> {
    Some(Side {
        median: metric["median"].as_f64()?,
        q1: metric["q1"].as_f64()?,
        q3: metric["q3"].as_f64()?,
        values: metric["values"]
            .as_array()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

/// Prints the comparison; returns whether any pairing is worse.
pub fn run(base_path: &str, new_path: &str, bounds_path: &str) -> Result<bool, String> {
    let (base, new, bounds) = (load(base_path)?, load(new_path)?, load(bounds_path)?);
    let bound_of = |name: &str| {
        bounds["end_to_end"]
            .as_array()
            .and_then(|ms| ms.iter().find(|m| m["name"].as_str() == Some(name)))
            .and_then(|m| m["bound"].as_f64())
    };
    for (label, v) in [("base", &base), ("new", &new)] {
        if let Some(h) = v["host"].as_object() {
            let get = |k: &str| {
                h.iter()
                    .find(|(n, _)| n == k)
                    .map(|(_, v)| match (v.as_f64(), v.as_str()) {
                        (Some(x), _) => sig(x),
                        (_, Some(s)) => s.to_string(),
                        _ => v.to_string(),
                    })
            };
            println!(
                "{label:>4}: {} | git {} | calibration {} ms",
                get("cpu_model").unwrap_or_default(),
                get("git").unwrap_or_default(),
                get("calibration_ms").unwrap_or_default()
            );
        }
    }
    println!(
        "{:<15} {:<17} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "new/base", "bound"
    );
    let mut any_worse = false;
    let workloads = base["workloads"].as_array().unwrap_or_default();
    for w in workloads {
        let name = w["name"].as_str().unwrap_or("?");
        let Some(other) = new["workloads"]
            .as_array()
            .and_then(|ws| ws.iter().find(|o| o["name"].as_str() == Some(name)))
        else {
            println!("{name:<15} (absent from {new_path})");
            continue;
        };
        for m in w["metrics"].as_array().unwrap_or_default() {
            let metric = m["name"].as_str().unwrap_or("?");
            let counterpart = other["metrics"]
                .as_array()
                .and_then(|ms| ms.iter().find(|o| o["name"].as_str() == Some(metric)));
            let (Some(b), Some(n), Some(bound)) =
                (side(m), counterpart.and_then(side), bound_of(metric))
            else {
                println!("{name:<15} {metric:<17} (missing on one side or in {bounds_path})");
                continue;
            };
            let higher = m["better"].as_str() == Some("higher");
            let v = verdict(higher, &b, &n, bound);
            any_worse |= v == Verdict::Worse;
            let unit = m["unit"].as_str().unwrap_or("");
            let fmt_side =
                |s: &Side| format!("{} [{}, {}] {unit}", sig(s.median), sig(s.q1), sig(s.q3));
            println!(
                "{name:<15} {metric:<17} {:>34} {:>34} {:>8.4} {:>6}  {v}",
                fmt_side(&b),
                fmt_side(&n),
                n.median / b.median,
                bound
            );
        }
    }
    Ok(any_worse)
}

/// Five significant digits.
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let (q1, median, q3) = crate::stats::quartiles(values);
        Side {
            median,
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_separation() {
        let base = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Lower is better: +20 % is worse, −20 % better, +2 % within.
        let worse = side(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let better = side(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let same = side(&[102.0, 103.0, 101.0, 102.5, 101.5]);
        assert_eq!(verdict(false, &base, &worse, 0.1), Verdict::Worse);
        assert_eq!(verdict(false, &base, &better, 0.1), Verdict::Better);
        assert_eq!(verdict(false, &base, &same, 0.1), Verdict::Within);
        // The same numbers read the other way round when higher is better.
        assert_eq!(verdict(true, &base, &worse, 0.1), Verdict::Better);
        assert_eq!(verdict(true, &base, &better, 0.1), Verdict::Worse);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved() {
        let base = side(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        let new = side(&[70.0, 115.0, 160.0, 90.0, 140.0]);
        assert_eq!(verdict(false, &base, &new, 0.1), Verdict::Unresolved);
        // Fully separated runs decide even when each side is wide.
        let far = side(&[200.0, 260.0, 320.0, 230.0, 290.0]);
        assert_eq!(verdict(false, &base, &far, 0.1), Verdict::Worse);
    }

    #[test]
    fn significant_digits() {
        assert_eq!(sig(1234.5678), "1234.6");
        assert_eq!(sig(0.012345678), "0.012346");
        assert_eq!(sig(123456.0), "123456");
    }
}
