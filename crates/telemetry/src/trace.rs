//! Typed trace records (model fits, rounds, job edges, estimator
//! samples) and the JSONL / Chrome export formats.
//!
//! A JSONL export is a sequence of [`TraceLine`]s, one per line, tagged
//! by `"type"` so downstream tools (the `optimus-trace` CLI, `jq`,
//! pandas) can filter without a schema: [`TraceLine::Event`]s and
//! [`TraceLine::Span`]s first, then the final metric snapshot as
//! `Counter`/`Gauge`/`Histogram` lines. Why a job got its grant and
//! placement is not here: that is the job's
//! [`crate::provenance::WhyRecord`].

use crate::metrics::Histogram;
use crate::span::SpanRecord;
use crate::State;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Version of the JSONL trace schema. Every exported [`TraceLine`]
/// carries it as `"v"`, so tools can detect traces written by an
/// older or newer build. Bump on any incompatible line-shape change.
///
/// History: 1 = PR 1 (no version field; reads back as `None`),
/// 2 = adds `v`, [`TraceEvent::EstimatorSample`], and histogram
/// overflow counts in summaries,
/// 3 = adds histogram `underflow` counts to [`TraceLine::Histogram`]
/// and summaries; the flight-recorder snapshot stream ships alongside
/// as its own `flight.jsonl` artifact,
/// 4 = this version (no trace line-shape change; decision-provenance
/// [`crate::provenance::WhyRecord`]s ship alongside as their own
/// `provenance.jsonl` artifact, each line carrying this version).
/// Earlier v4 builds also wrote an event per greedy grant, per
/// allocation pass and per placed job, which the why-records supersede;
/// this build writes none, and `optimus-trace` skips them as
/// unparseable lines.
/// Older traces still parse: `underflow` reads back as `None` —
/// unknown, not zero — and `optimus-trace` warns on the legacy
/// versions.
pub const SCHEMA_VERSION: u32 = 4;

/// A run event worth explaining later: a model fit or fit failure, a
/// completed round, a job lifecycle edge or an estimator-audit sample.
/// The §4.1 grants and §4.2 placements themselves are explained by the
/// per-job [`crate::provenance::WhyRecord`]s, not by trace events. Job
/// ids are raw `u64`s (this crate sits below the workload layer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event")]
pub enum TraceEvent {
    /// A §3.1 convergence-curve fit.
    ConvergenceFit {
        /// The fitted job.
        job: u64,
        /// `[β₀, β₁, β₂]` of `l(k) = 1/(β₀k + β₁) + β₂`.
        coeffs: Vec<f64>,
        /// Residual sum of squares (normalized loss space).
        residual: f64,
        /// Samples behind the fit.
        samples: usize,
    },
    /// A §3.2 speed-model fit.
    SpeedFit {
        /// The fitted job.
        job: u64,
        /// The θ coefficients of Eqn 3/4.
        coeffs: Vec<f64>,
        /// Residual sum of squares (inverted-speed space).
        residual: f64,
        /// Samples behind the fit.
        samples: usize,
    },
    /// A model fit failed (the previous model, if any, stays in use).
    FitFailure {
        /// The job whose fit failed (0 when unknown).
        job: u64,
        /// What was being fit (`"speed"`, `"convergence"`, `"nnls"`).
        what: String,
        /// The error, stringified.
        reason: String,
    },
    /// One simulator scheduling round completed.
    Round {
        /// Round index (1-based).
        round: u64,
        /// Simulation time, seconds.
        t_s: f64,
        /// Active (admitted, unfinished) jobs.
        active_jobs: usize,
        /// Wall-clock time the round took, microseconds.
        wall_us: u64,
    },
    /// A job lifecycle edge, for per-job timelines.
    JobEvent {
        /// Simulation time, seconds.
        t_s: f64,
        /// The job.
        job: u64,
        /// What happened (`"admitted"`, `"scheduled 4x8"`, `"paused"`,
        /// `"finished"`, `"straggler-replaced"`, `"chunks-rebalanced"`).
        what: String,
    },
    /// One estimator-audit sample: a model prediction scored against
    /// what actually happened. For `model = "speed"`, `predicted` is
    /// the speed the §3.2 model promised for the configuration the
    /// scheduler deployed, and `realized` is the speed the following
    /// interval actually delivered (steps/s). For
    /// `model = "convergence"`, `predicted` is the §3.1 estimate of
    /// remaining epochs and `realized` the ground-truth remainder at
    /// the same instant.
    EstimatorSample {
        /// Scheduling round the sample was scored at (1-based).
        round: u64,
        /// The job.
        job: u64,
        /// `"speed"` or `"convergence"`.
        model: String,
        /// The model's prediction.
        predicted: f64,
        /// The realized value.
        realized: f64,
        /// Signed relative error `(predicted − realized)/|realized|`.
        rel_err: f64,
    },
}

impl TraceEvent {
    /// The variant's name (stable across versions; used as the Chrome
    /// trace event name and in diff output).
    pub fn name(&self) -> &'static str {
        event_name(self)
    }
}

/// One sequenced trace record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Monotonic sequence number within the handle.
    pub seq: u64,
    /// Wall-clock time, microseconds since the handle was created.
    pub t_us: u64,
    /// The event.
    pub event: TraceEvent,
}

/// One line of a JSONL trace export.
///
/// Every variant carries the schema version as `v`
/// ([`SCHEMA_VERSION`]). The field is `Option` so version-1 traces
/// (written before the field existed) still deserialize — they read
/// back as `None`, which `optimus-trace` reports as a legacy trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum TraceLine {
    /// A trace record.
    Event {
        /// Trace schema version.
        v: Option<u32>,
        /// Sequence number.
        seq: u64,
        /// Wall-clock microseconds since handle creation.
        t_us: u64,
        /// The event.
        event: TraceEvent,
    },
    /// A closed span.
    Span {
        /// Trace schema version.
        v: Option<u32>,
        /// Span id.
        id: u64,
        /// Parent span id, if nested.
        parent: Option<u64>,
        /// Span name.
        name: String,
        /// Start offset, microseconds.
        start_us: u64,
        /// Duration, microseconds.
        dur_us: u64,
    },
    /// A counter's final value.
    Counter {
        /// Trace schema version.
        v: Option<u32>,
        /// Counter name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// A gauge's final value.
    Gauge {
        /// Trace schema version.
        v: Option<u32>,
        /// Gauge name.
        name: String,
        /// Final value.
        value: f64,
    },
    /// A histogram's final state.
    Histogram {
        /// Trace schema version.
        v: Option<u32>,
        /// Histogram name.
        name: String,
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts (one extra overflow bucket).
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation (0 when empty).
        min: f64,
        /// Largest observation (0 when empty).
        max: f64,
        /// Observations strictly below the lowest bound (`None` in
        /// traces written before schema 3).
        underflow: Option<u64>,
    },
}

impl TraceLine {
    /// The schema version the line was written with (`None` for
    /// pre-versioning traces).
    pub fn version(&self) -> Option<u32> {
        match self {
            TraceLine::Event { v, .. }
            | TraceLine::Span { v, .. }
            | TraceLine::Counter { v, .. }
            | TraceLine::Gauge { v, .. }
            | TraceLine::Histogram { v, .. } => *v,
        }
    }

    fn from_span(s: &SpanRecord) -> TraceLine {
        TraceLine::Span {
            v: Some(SCHEMA_VERSION),
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            start_us: s.start_us,
            dur_us: s.dur_us,
        }
    }

    fn from_histogram(name: &str, h: &Histogram) -> TraceLine {
        TraceLine::Histogram {
            v: Some(SCHEMA_VERSION),
            name: name.to_string(),
            bounds: h.bounds.clone(),
            counts: h.counts.clone(),
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0.0 } else { h.min },
            max: if h.count == 0 { 0.0 } else { h.max },
            underflow: Some(h.underflow()),
        }
    }
}

/// Flattens the current state into export lines.
pub(crate) fn snapshot_lines(state: &mut State) -> Vec<TraceLine> {
    let mut lines = Vec::with_capacity(
        state.records.len()
            + state.spans.len()
            + state.counters.len()
            + state.gauges.len()
            + state.histograms.len(),
    );
    for r in &state.records {
        lines.push(TraceLine::Event {
            v: Some(SCHEMA_VERSION),
            seq: r.seq,
            t_us: r.t_us,
            event: r.event.clone(),
        });
    }
    lines.extend(state.spans.iter().map(TraceLine::from_span));
    lines.extend(metric_lines(state));
    lines
}

/// The counter, gauge and histogram lines, in that order, each kind
/// name-sorted.
fn metric_lines(state: &State) -> impl Iterator<Item = TraceLine> + '_ {
    let counters = state
        .counters
        .iter()
        .map(|(name, &value)| TraceLine::Counter {
            v: Some(SCHEMA_VERSION),
            name: name.clone(),
            value,
        });
    let gauges = state.gauges.iter().map(|(name, &value)| TraceLine::Gauge {
        v: Some(SCHEMA_VERSION),
        name: name.clone(),
        value,
    });
    let histograms = state
        .histograms
        .iter()
        .map(|(name, h)| TraceLine::from_histogram(name, h));
    counters.chain(gauges).chain(histograms)
}

/// Appends [`snapshot_lines`] as JSON lines, or only their canonical
/// form (`canonical_line`) when `canonical` is set: the same bytes as
/// serializing each (canonicalized) snapshot line and a newline, but
/// written straight from the recorder's state, with no copy of its
/// decision records.
pub(crate) fn write_json_lines(state: &State, canonical: bool, out: &mut String) {
    fn as_is(line: Line<'_>) -> Option<Line<'_>> {
        Some(line)
    }
    let rule: fn(Line<'_>) -> Option<Line<'_>> = if canonical { canonical_line } else { as_is };
    for r in &state.records {
        let line = Line::Event {
            v: Some(SCHEMA_VERSION),
            seq: r.seq,
            t_us: r.t_us,
            event: Cow::Borrowed(&r.event),
        };
        if let Some(Line::Event {
            v,
            seq,
            t_us,
            event,
        }) = rule(line)
        {
            write_event_line(v, seq, t_us, &event, out);
        }
    }
    if rule(Line::Span).is_some() {
        for s in &state.spans {
            push_line(&TraceLine::from_span(s), out);
        }
    }
    for line in metric_lines(state) {
        if rule(line.borrowed()).is_some() {
            push_line(&line, out);
        }
    }
}

/// Appends one line of JSON and its newline.
fn push_line(line: &TraceLine, out: &mut String) {
    line.write_json(out);
    out.push('\n');
}

/// Appends the JSON line [`TraceLine::Event`] serializes to, from the
/// record's parts (`trace::tests` pins the two to the same bytes).
fn write_event_line(v: Option<u32>, seq: u64, t_us: u64, event: &TraceEvent, out: &mut String) {
    out.push_str("{\"type\":\"Event\",\"v\":");
    v.write_json(out);
    out.push_str(",\"seq\":");
    seq.write_json(out);
    out.push_str(",\"t_us\":");
    t_us.write_json(out);
    out.push_str(",\"event\":");
    event.write_json(out);
    out.push_str("}\n");
}

/// One export line as `canonical_line` sees it: a decision record by
/// its parts, borrowed from wherever it lives, or another line by kind
/// (and, for a metric, its name).
enum Line<'a> {
    /// A [`TraceLine::Event`].
    Event {
        v: Option<u32>,
        seq: u64,
        t_us: u64,
        event: Cow<'a, TraceEvent>,
    },
    /// A [`TraceLine::Span`].
    Span,
    /// A counter, gauge or histogram line, by name.
    Metric(&'a str),
}

impl TraceLine {
    fn borrowed(&self) -> Line<'_> {
        match self {
            TraceLine::Event {
                v,
                seq,
                t_us,
                event,
            } => Line::Event {
                v: *v,
                seq: *seq,
                t_us: *t_us,
                event: Cow::Borrowed(event),
            },
            TraceLine::Span { .. } => Line::Span,
            TraceLine::Counter { name, .. }
            | TraceLine::Gauge { name, .. }
            | TraceLine::Histogram { name, .. } => Line::Metric(name),
        }
    }
}

/// The canonicalization rule, one line at a time, shared by
/// [`canonical_lines`] and [`crate::Telemetry::to_canonical_json_lines`]:
/// spans are dropped (their timings are nondeterministic by nature), as
/// are metrics whose name contains `"wall"`; an event keeps its
/// sequence number, with its timestamp and a `Round`'s wall field
/// zeroed; every other line is kept as it is.
fn canonical_line(line: Line<'_>) -> Option<Line<'_>> {
    match line {
        Line::Span => None,
        Line::Metric(name) if name.contains("wall") => None,
        Line::Event { v, seq, event, .. } => {
            let event = match event.as_ref() {
                &TraceEvent::Round {
                    round,
                    t_s,
                    active_jobs,
                    ..
                } => Cow::Owned(TraceEvent::Round {
                    round,
                    t_s,
                    active_jobs,
                    wall_us: 0,
                }),
                _ => event,
            };
            Some(Line::Event {
                v,
                seq,
                t_us: 0,
                event,
            })
        }
        metric => Some(metric),
    }
}

/// Strips everything wall-clock-dependent from export lines so two
/// identical-config runs canonicalize to identical bytes: spans are
/// dropped, event timestamps and the `Round` wall field are zeroed, and
/// metrics whose name contains `"wall"` are removed. What survives is
/// exactly the *decision* content of the run — the stream the run
/// ledger hashes and `optimus-trace diff` walks. The rule is the one
/// [`crate::Telemetry::to_canonical_json_lines`] applies as it writes.
pub fn canonical_lines(lines: &[TraceLine]) -> Vec<TraceLine> {
    lines
        .iter()
        .filter_map(|line| match canonical_line(line.borrowed())? {
            Line::Event {
                v,
                seq,
                t_us,
                event,
            } => Some(TraceLine::Event {
                v,
                seq,
                t_us,
                event: event.into_owned(),
            }),
            Line::Span | Line::Metric(_) => Some(line.clone()),
        })
        .collect()
}

/// Renders export lines as a Chrome `trace_event` JSON document: spans
/// become complete (`"ph": "X"`) events, decision records become
/// instants (`"ph": "i"`), counters become counter (`"ph": "C"`)
/// samples at the end of the timeline.
pub(crate) fn chrome_trace(lines: &[TraceLine]) -> String {
    use serde_json::Value;
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let mut events = Vec::new();
    let mut end_us = 0u64;
    for line in lines {
        match line {
            TraceLine::Span {
                name,
                start_us,
                dur_us,
                ..
            } => {
                end_us = end_us.max(start_us + dur_us);
                events.push(obj(vec![
                    ("name", Value::Str(name.clone())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(*start_us as f64)),
                    ("dur", Value::Num(*dur_us as f64)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                ]));
            }
            TraceLine::Event { t_us, event, .. } => {
                end_us = end_us.max(*t_us);
                events.push(obj(vec![
                    ("name", Value::Str(event_name(event).into())),
                    ("ph", Value::Str("i".into())),
                    ("ts", Value::Num(*t_us as f64)),
                    ("s", Value::Str("g".into())),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    ("args", event.to_value()),
                ]));
            }
            _ => {}
        }
    }
    for line in lines {
        if let TraceLine::Counter { name, value, .. } = line {
            events.push(obj(vec![
                ("name", Value::Str(name.clone())),
                ("ph", Value::Str("C".into())),
                ("ts", Value::Num(end_us as f64)),
                ("pid", Value::Num(1.0)),
                ("args", obj(vec![("value", Value::Num(*value as f64))])),
            ]));
        }
    }
    let doc = obj(vec![("traceEvents", Value::Array(events))]);
    serde_json::to_string(&doc).expect("chrome trace serializes")
}

fn event_name(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::ConvergenceFit { .. } => "ConvergenceFit",
        TraceEvent::SpeedFit { .. } => "SpeedFit",
        TraceEvent::FitFailure { .. } => "FitFailure",
        TraceEvent::Round { .. } => "Round",
        TraceEvent::JobEvent { .. } => "JobEvent",
        TraceEvent::EstimatorSample { .. } => "EstimatorSample",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// One event of every kind, with floats, escapes and empty vectors.
    fn every_event() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ConvergenceFit {
                job: 2,
                coeffs: vec![1e-5, 0.5, f64::NAN],
                residual: 3.0,
                samples: 12,
            },
            TraceEvent::SpeedFit {
                job: 2,
                coeffs: vec![],
                residual: -0.0,
                samples: 0,
            },
            TraceEvent::FitFailure {
                job: 0,
                what: "nnls".into(),
                reason: "bad \"row\"\n\u{1}é".into(),
            },
            TraceEvent::Round {
                round: 7,
                t_s: 4200.5,
                active_jobs: 3,
                wall_us: 1234,
            },
            TraceEvent::JobEvent {
                t_s: 60.0,
                job: 5,
                what: "scheduled 4x8".into(),
            },
            TraceEvent::EstimatorSample {
                round: 2,
                job: 5,
                model: "speed".into(),
                predicted: f64::INFINITY,
                realized: 1.5,
                rel_err: 9.0e15,
            },
        ]
    }

    #[test]
    fn event_lines_write_like_the_derived_trace_line() {
        for (seq, event) in every_event().into_iter().enumerate() {
            for v in [Some(SCHEMA_VERSION), None] {
                let line = TraceLine::Event {
                    v,
                    seq: seq as u64,
                    t_us: 99 + seq as u64,
                    event: event.clone(),
                };
                let mut direct = String::new();
                write_event_line(v, seq as u64, 99 + seq as u64, &event, &mut direct);
                let expected = serde::value::render(&line.to_value(), None, 0) + "\n";
                assert_eq!(direct, expected);
            }
        }
    }

    #[test]
    fn streaming_export_matches_the_snapshot_line_by_line() {
        let tel = Telemetry::enabled();
        for event in every_event() {
            tel.span("sim.round").end();
            tel.record(event);
        }
        tel.add("alloc.rounds", 3);
        tel.add("sim.wall_total_us", 77);
        tel.gauge("audit.speed.calibration", 0.875);
        tel.gauge("sim.wall_rate", 1.5);
        tel.observe("nnls.iterations", 4.0);
        tel.observe("sim.round_wall_us", 1234.0);

        let render = |lines: &[TraceLine]| -> String {
            lines
                .iter()
                .map(|l| serde::value::render(&l.to_value(), None, 0) + "\n")
                .collect()
        };
        let snapshot = tel.with_state(snapshot_lines).unwrap();
        assert_eq!(tel.to_json_lines(), render(&snapshot));
        let canonical = canonical_lines(&snapshot);
        assert_eq!(tel.to_canonical_json_lines(), render(&canonical));

        // The rule did what it says: no spans or wall metrics, and no
        // timestamps or round wall times.
        assert_eq!(canonical.len(), every_event().len() + 3);
        let text = tel.to_canonical_json_lines();
        assert!(!text.contains("Span") && !text.contains("_wall") && !text.contains("1234"));
        assert_eq!(render(&canonical_lines(&canonical)), text, "idempotent");
    }
}
