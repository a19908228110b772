//! Per-layer attribution of a traced run's wall time.
//!
//! The benchmark opens its own spans on the program's telemetry handle
//! (`bench.setup`, `bench.run`, `bench.sched_round`, `bench.export`), so
//! the program's existing spans (`sched.refit`, `sched.decision`,
//! `alloc.allocate`, `place.place`) nest under them. A span's self time
//! is its duration minus the durations of its children. Each layer's
//! time is the self time of its spans inside `bench.run`; whatever no
//! layer claims is the engine's unattributed remainder, so the layers
//! and the remainder add up to `bench.run`.

use crate::workloads::Sample;
use optimus_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// The layer a span's self time belongs to. Spans the benchmark does
/// not know fall into the engine's remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    Engine,
    Refit,
    Sched,
    Alloc,
    Place,
}

fn layer_of(name: &str) -> Layer {
    match name {
        "sched.refit" => Layer::Refit,
        "bench.sched_round" | "sched.decision" => Layer::Sched,
        "alloc.allocate" => Layer::Alloc,
        "place.place" => Layer::Place,
        _ => Layer::Engine,
    }
}

/// Self time of every span, µs, by span id: its duration minus its
/// children's (floored at zero).
fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_default() += s.dur_us;
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.dur_us
                    .saturating_sub(covered.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// The outermost ancestor of every span, by span id. Fails on a span
/// whose parent was never recorded (still open, or from another
/// handle) and on a top-level span the benchmark did not open: its
/// time would be counted by no layer.
fn roots(spans: &[SpanRecord]) -> Result<HashMap<u64, u64>, String> {
    let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut out = HashMap::with_capacity(spans.len());
    for s in spans {
        let mut id = s.id;
        while let Some(p) = parent[&id] {
            if !parent.contains_key(&p) {
                return Err(format!("span {} has unrecorded parent {p}", s.name));
            }
            id = p;
        }
        out.insert(s.id, id);
    }
    for s in spans {
        if s.parent.is_none() && !s.name.starts_with("bench.") {
            return Err(format!("span {} is outside every benchmark span", s.name));
        }
    }
    Ok(out)
}

/// The per-layer metrics of one traced sample. Fails when the spans do
/// not nest under the benchmark's, or when the layers and the engine's
/// remainder miss `bench.run` by more than 1 %.
pub fn layer_metrics(
    spans: &[SpanRecord],
    counters: &[(String, u64)],
    sample: &Sample,
) -> Result<BTreeMap<String, f64>, String> {
    let selfs = self_times(spans);
    let roots = roots(spans)?;
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name.as_str())).collect();
    let in_run = |s: &SpanRecord| names[&roots[&s.id]] == "bench.run";

    let mut run_us = 0u64;
    let mut by_layer: BTreeMap<Layer, u64> = BTreeMap::new();
    let (mut refits, mut decisions, mut sched_round_us) = (0u64, 0u64, 0u64);
    let mut export_us = 0u64;
    for s in spans {
        if s.name == "bench.export" {
            export_us += s.dur_us;
        }
        if !in_run(s) {
            continue;
        }
        *by_layer.entry(layer_of(&s.name)).or_default() += selfs[&s.id];
        match s.name.as_str() {
            "bench.run" => run_us += s.dur_us,
            "sched.refit" => refits += 1,
            "bench.sched_round" => {
                decisions += 1;
                sched_round_us += s.dur_us;
            }
            _ => {}
        }
    }
    let attributed: u64 = by_layer.values().sum();
    if run_us == 0 {
        return Err("traced run recorded no bench.run span".into());
    }
    let miss = (attributed as f64 - run_us as f64).abs() / run_us as f64;
    if miss > 0.01 {
        return Err(format!(
            "layer self times sum to {attributed} µs but bench.run is {run_us} µs ({:.2} % apart)",
            100.0 * miss
        ));
    }

    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ms = |us: u64| us as f64 / 1e3;
    let layer_us = |l: Layer| by_layer.get(&l).copied().unwrap_or(0);
    // Simulated workloads open one refit span per scheduling interval;
    // the decision-only workload's rounds are its decisions.
    let rounds = if refits > 0 { refits } else { decisions } as f64;
    let engine_us = layer_us(Layer::Engine);
    let refit_us = layer_us(Layer::Refit);
    let fits = counter("loss_curve.fits");
    let events = counter("sim.events_scheduled");
    let calls = sample.tally.calls as f64;
    let t = &sample.tally;

    let metrics = [
        ("sim.run_ms", ms(run_us)),
        ("sim.engine_self_ms", ms(engine_us)),
        ("sim.engine_share", ratio(engine_us as f64, run_us as f64)),
        ("sim.us_per_event", ratio(engine_us as f64, events)),
        ("sim.waves", counter("sim.waves")),
        ("sim.events_scheduled", events),
        ("sim.rounds", rounds),
        ("sim.rounds_empty", rounds - decisions as f64),
        ("refit.ms", ms(refit_us)),
        ("refit.share", ratio(refit_us as f64, run_us as f64)),
        ("refit.fits", fits),
        ("refit.fits_per_round", ratio(fits, refits as f64)),
        ("refit.us_per_fit", ratio(refit_us as f64, fits)),
        ("refit.dirty_skipped", counter("fit.dirty_skipped")),
        (
            "refit.nnls_solves_per_fit",
            ratio(counter("nnls.solves"), fits),
        ),
        (
            "refit.warm_start_hit_ratio",
            ratio(counter("fit.warm_start_hits"), fits),
        ),
        ("sched.round_ms", ms(sched_round_us)),
        ("sched.share", ratio(sched_round_us as f64, run_us as f64)),
        ("sched.self_ms", ms(layer_us(Layer::Sched))),
        ("sched.views_per_round", ratio(t.views as f64, calls)),
        ("sched.dirty_share", ratio(t.dirty as f64, t.views as f64)),
        ("sched.skipped_rounds", t.skipped as f64),
        (
            "sched.replayed_grants_per_round",
            ratio(t.replayed as f64, calls),
        ),
        ("sched.alloc_full_share", ratio(t.alloc_full as f64, calls)),
        (
            "sched.place_reused_share",
            ratio(t.place_reused as f64, calls),
        ),
        ("alloc.ms", ms(layer_us(Layer::Alloc))),
        (
            "alloc.gain_evals_per_round",
            ratio(counter("alloc.marginal_gain_evals"), calls),
        ),
        (
            "alloc.heap_pops_per_round",
            ratio(counter("alloc.heap_pops"), calls),
        ),
        (
            "alloc.stale_skip_ratio",
            ratio(counter("alloc.stale_skips"), counter("alloc.heap_pops")),
        ),
        ("alloc.cert_fallbacks", counter("alloc.cert_fallbacks")),
        ("place.ms", ms(layer_us(Layer::Place))),
        (
            "place.index_updates_per_round",
            ratio(counter("placement.index_updates"), calls),
        ),
        (
            "place.packing_retries_per_round",
            ratio(counter("placement.packing_retries"), calls),
        ),
        ("paa.rebalance_moves", counter("paa.rebalance_moves")),
        ("recorder.export_ms", ms(export_us)),
    ];
    Ok(metrics
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect())
}

/// The spans as JSON lines, each with its self time and the round it
/// belongs to. Rounds are numbered by the spans that open them
/// (`sched.refit` in a simulation, `bench.sched_round` otherwise);
/// spans outside `bench.run` are round 0.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let selfs = self_times(spans);
    let roots = roots(spans).unwrap_or_default();
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name.as_str())).collect();
    let opener = if spans.iter().any(|s| s.name == "sched.refit") {
        "sched.refit"
    } else {
        "bench.sched_round"
    };
    let mut opens: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == opener)
        .map(|s| s.start_us)
        .collect();
    opens.sort_unstable();
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_us, s.id));
    let mut out = String::new();
    for s in ordered {
        let in_run = roots.get(&s.id).is_some_and(|r| names[r] == "bench.run");
        let round = if in_run {
            opens.partition_point(|&t| t <= s.start_us)
        } else {
            0
        };
        let line = serde_json::Value::Object(vec![
            ("id".into(), num(s.id as f64)),
            (
                "parent".into(),
                s.parent.map_or(serde_json::Value::Null, |p| num(p as f64)),
            ),
            ("name".into(), serde_json::Value::Str(s.name.clone())),
            ("round".into(), num(round as f64)),
            ("start_us".into(), num(s.start_us as f64)),
            ("dur_us".into(), num(s.dur_us as f64)),
            ("self_us".into(), num(selfs[&s.id] as f64)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

fn num(v: f64) -> serde_json::Value {
    serde_json::Value::Num(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start_us,
            dur_us,
        }
    }

    /// One simulated round: 100 µs of run holding a 30 µs refit and a
    /// 50 µs scheduler round, whose 45 µs decision holds 20 µs of
    /// allocation and 15 µs of placement.
    fn one_round() -> Vec<SpanRecord> {
        vec![
            span(0, None, "bench.setup", 0, 5),
            span(2, Some(1), "sched.refit", 10, 30),
            span(5, Some(4), "alloc.allocate", 42, 20),
            span(6, Some(4), "place.place", 62, 15),
            span(4, Some(3), "sched.decision", 41, 45),
            span(3, Some(1), "bench.sched_round", 40, 50),
            span(1, None, "bench.run", 5, 100),
        ]
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let selfs = self_times(&one_round());
        assert_eq!(selfs[&1], 20); // 100 − 30 − 50
        assert_eq!(selfs[&3], 5); // 50 − 45
        assert_eq!(selfs[&4], 10); // 45 − 20 − 15
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&0], 5);
    }

    #[test]
    fn layers_and_remainder_sum_to_the_run() {
        let mut sample = Sample::default();
        sample.tally.calls = 1;
        let m = layer_metrics(&one_round(), &[("loss_curve.fits".into(), 3)], &sample)
            .expect("nested spans attribute cleanly");
        assert_eq!(m["sim.run_ms"], 0.1);
        assert_eq!(m["sim.engine_self_ms"], 0.02);
        assert_eq!(m["refit.ms"], 0.03);
        assert_eq!(m["sched.self_ms"], 0.015);
        assert_eq!(m["alloc.ms"], 0.02);
        assert_eq!(m["place.ms"], 0.015);
        assert_eq!(m["sched.round_ms"], 0.05);
        assert_eq!(m["refit.us_per_fit"], 10.0);
        assert_eq!(m["sim.rounds"], 1.0);
        assert_eq!(m["sim.rounds_empty"], 0.0);
        let parts = [
            "sim.engine_self_ms",
            "refit.ms",
            "sched.self_ms",
            "alloc.ms",
            "place.ms",
        ];
        let sum: f64 = parts.iter().map(|k| m[*k]).sum();
        assert!((sum - m["sim.run_ms"]).abs() < 1e-12);
    }

    #[test]
    fn children_longer_than_their_parent_fail_the_check() {
        let mut spans = one_round();
        spans[1].dur_us = 90; // the refit now overruns the run
        assert!(layer_metrics(&spans, &[], &Sample::default()).is_err());
    }

    #[test]
    fn spans_outside_the_benchmark_fail_the_check() {
        let mut spans = one_round();
        spans.push(span(7, None, "sched.refit", 200, 3));
        let err = layer_metrics(&spans, &[], &Sample::default()).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn span_lines_carry_round_and_self_time() {
        let text = spans_jsonl(&one_round());
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("span line parses"))
            .collect();
        assert_eq!(lines.len(), 7);
        let by_name = |n: &str| {
            lines
                .iter()
                .find(|l| l["name"].as_str() == Some(n))
                .expect("span present")
        };
        assert_eq!(by_name("bench.setup")["round"].as_f64(), Some(0.0));
        assert_eq!(by_name("place.place")["round"].as_f64(), Some(1.0));
        assert_eq!(by_name("sched.decision")["self_us"].as_f64(), Some(10.0));
    }
}
