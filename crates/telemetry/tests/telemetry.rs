//! Integration tests for the telemetry crate: histogram bucket
//! semantics, span nesting and timing, JSONL round-trips, and the
//! no-op guarantee of a disabled handle.

use optimus_telemetry::metrics::{default_buckets, signed_error_buckets, Histogram};
use optimus_telemetry::trace::{canonical_lines, TraceEvent};
use optimus_telemetry::{Telemetry, TraceLine, SCHEMA_VERSION};
use proptest::prelude::*;

// -- histogram --------------------------------------------------------

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
    let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
    // A value exactly on a bound lands in that bound's bucket (`le`
    // semantics), one ulp above lands in the next.
    h.observe(1.0);
    h.observe(1.000001);
    h.observe(10.0);
    h.observe(100.0);
    h.observe(100.5); // overflow bucket
    assert_eq!(h.counts, vec![1, 2, 1, 1]);
    assert_eq!(h.count, 5);
    assert_eq!(h.bucket_index(0.0), 0);
    assert_eq!(h.bucket_index(10.0), 1);
    assert_eq!(h.bucket_index(10.1), 2);
    assert_eq!(h.bucket_index(1e9), 3);
}

#[test]
fn histogram_ignores_non_finite_and_sorts_bounds() {
    let mut h = Histogram::new(&[100.0, 1.0, f64::NAN, 10.0, 1.0]);
    assert_eq!(h.bounds, vec![1.0, 10.0, 100.0]);
    h.observe(f64::NAN);
    h.observe(f64::INFINITY);
    assert_eq!(h.count, 0);
}

#[test]
fn histogram_quantiles_track_bucket_bounds() {
    let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
    for _ in 0..90 {
        h.observe(1.5); // ≤ 2.0 bucket
    }
    for _ in 0..10 {
        h.observe(7.0); // ≤ 8.0 bucket
    }
    assert_eq!(h.quantile(0.5), 2.0);
    assert_eq!(h.quantile(0.95), 7.0); // bound 8.0 clamped to max 7.0
    assert_eq!(h.quantile(0.0), 2.0); // rank floor is 1
    assert_eq!(h.mean(), (90.0 * 1.5 + 10.0 * 7.0) / 100.0);
}

#[test]
fn histogram_empty_is_all_zero() {
    let h = Histogram::new(&default_buckets());
    assert_eq!(h.quantile(0.5), 0.0);
    assert_eq!(h.mean(), 0.0);
    assert_eq!(h.count, 0);
}

#[test]
fn default_buckets_cover_iteration_counts_and_latencies() {
    let b = default_buckets();
    assert_eq!(b.len(), 30);
    assert!(b.windows(2).all(|w| w[0] < w[1]), "bounds strictly sorted");
    assert_eq!(b[0], 1.0);
    assert!(*b.last().unwrap() >= 1e9);
}

// -- spans ------------------------------------------------------------

#[test]
fn span_nesting_builds_a_tree() {
    let tel = Telemetry::enabled();
    {
        let outer = tel.span("outer");
        let outer_id = outer.id().unwrap();
        {
            let inner = tel.span("inner");
            assert_ne!(inner.id(), outer.id());
            let leaf = tel.span("leaf");
            leaf.end();
            inner.end();
        }
        let sibling = tel.span("sibling");
        assert_eq!(sibling.id(), Some(3));
        drop(sibling);
        drop(outer);
        let _ = outer_id;
    }
    let spans = tel.spans();
    assert_eq!(spans.len(), 4);
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
    assert_eq!(by_name("outer").parent, None);
    assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
    assert_eq!(by_name("leaf").parent, Some(by_name("inner").id));
    assert_eq!(by_name("sibling").parent, Some(by_name("outer").id));
}

#[test]
fn span_ids_and_starts_are_monotonic_and_contain_children() {
    let tel = Telemetry::enabled();
    {
        let _a = tel.span("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _b = tel.span("b");
    }
    let spans = tel.spans();
    let a = spans.iter().find(|s| s.name == "a").unwrap();
    let b = spans.iter().find(|s| s.name == "b").unwrap();
    assert!(a.id < b.id);
    assert!(a.start_us <= b.start_us, "ids are assigned in start order");
    // The child's interval sits inside the parent's.
    assert!(b.start_us >= a.start_us);
    assert!(b.start_us + b.dur_us <= a.start_us + a.dur_us);
}

// -- JSONL round-trip -------------------------------------------------

#[test]
fn jsonl_round_trips_every_line_kind() {
    let tel = Telemetry::enabled();
    tel.incr("alloc.rounds");
    tel.add("alloc.marginal_gain_evals", 12);
    tel.gauge("cluster.load", 0.75);
    tel.observe("sim.round_wall_us", 1234.0);
    tel.record(TraceEvent::ConvergenceFit {
        job: 7,
        coeffs: vec![0.25, 2.0, 0.5],
        residual: 0.125,
        samples: 3,
    });
    tel.record(TraceEvent::JobEvent {
        t_s: 60.0,
        job: 7,
        what: "admitted".into(),
    });
    tel.span("round").end();

    let jsonl = tel.to_json_lines();
    let lines: Vec<TraceLine> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).expect("line parses"))
        .collect();
    // 2 events + 1 span + 2 counters + 1 gauge + 1 histogram.
    assert_eq!(lines.len(), 7);

    // Round-trip: re-serializing each parsed line gives the same JSON.
    for (raw, parsed) in jsonl.lines().zip(&lines) {
        assert_eq!(raw, serde_json::to_string(parsed).unwrap());
    }

    // Events come first and keep their sequence order.
    let seqs: Vec<u64> = lines
        .iter()
        .filter_map(|l| match l {
            TraceLine::Event { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(seqs, vec![0, 1]);
    assert!(matches!(&lines[0], TraceLine::Event { .. }));
    assert!(lines.iter().any(|l| matches!(
        l,
        TraceLine::Counter { name, value: 12, .. } if name == "alloc.marginal_gain_evals"
    )));
}

#[test]
fn summary_digest_matches_observations() {
    let tel = Telemetry::enabled();
    for v in [100.0, 200.0, 300.0] {
        tel.observe("nnls.iterations", v);
    }
    tel.incr("nnls.fit_failures");
    let summary = tel.summary();
    assert_eq!(summary.counters, vec![("nnls.fit_failures".into(), 1)]);
    let h = &summary.histograms[0];
    assert_eq!(h.name, "nnls.iterations");
    assert_eq!(h.count, 3);
    assert_eq!(h.sum, 600.0);
    assert_eq!(h.min, 100.0);
    assert_eq!(h.max, 300.0);
    assert!(h.p50 >= 100.0 && h.p99 <= 300.0);
}

// -- schema version ---------------------------------------------------

#[test]
fn every_exported_line_carries_the_schema_version() {
    let tel = Telemetry::enabled();
    tel.incr("alloc.rounds");
    tel.gauge("cluster.load", 0.5);
    tel.observe("sim.round_wall_us", 10.0);
    tel.record(TraceEvent::JobEvent {
        t_s: 0.0,
        job: 1,
        what: "admitted".into(),
    });
    tel.span("round").end();
    for raw in tel.to_json_lines().lines() {
        let line: TraceLine = serde_json::from_str(raw).expect("parses");
        assert_eq!(line.version(), Some(SCHEMA_VERSION), "{raw}");
        assert!(raw.contains(&format!("\"v\":{SCHEMA_VERSION}")), "{raw}");
    }
}

#[test]
fn legacy_unversioned_lines_still_parse() {
    // A PR-1 era line: no `v` field at all.
    let raw = r#"{"type":"Counter","name":"alloc.rounds","value":3}"#;
    let line: TraceLine = serde_json::from_str(raw).expect("legacy line parses");
    assert_eq!(line.version(), None);
    assert!(matches!(line, TraceLine::Counter { value: 3, .. }));
}

// -- saturation -------------------------------------------------------

#[test]
fn histogram_overflow_flags_saturation() {
    let mut h = Histogram::new(&[1.0, 10.0]);
    h.observe(5.0);
    assert_eq!(h.overflow(), 0);
    h.observe(11.0);
    h.observe(1e9);
    assert_eq!(h.overflow(), 2);

    let tel = Telemetry::enabled();
    tel.register_histogram("x", &[1.0, 10.0]);
    tel.observe("x", 99.0);
    let summary = tel.summary();
    let hs = &summary.histograms[0];
    assert_eq!(hs.overflow, 1);
    assert!(hs.saturated());
    // And the exported Histogram line carries the same overflow count.
    let lines = tel.to_json_lines();
    let hist_line = lines
        .lines()
        .find(|l| l.contains("\"type\":\"Histogram\""))
        .expect("histogram exported");
    let parsed: TraceLine = serde_json::from_str(hist_line).unwrap();
    if let TraceLine::Histogram { counts, .. } = parsed {
        assert_eq!(*counts.last().unwrap(), 1);
    } else {
        panic!("expected histogram line");
    }
}

#[test]
fn signed_error_buckets_are_symmetric_around_zero() {
    let b = signed_error_buckets();
    assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
    assert!(b.contains(&0.0));
    for &bound in &b {
        assert!(b.contains(&-bound), "missing mirror of {bound}");
    }
    // A signed error histogram keeps under- and over-prediction apart.
    let mut h = Histogram::new(&b);
    h.observe(-0.3);
    h.observe(0.3);
    assert_ne!(h.bucket_index(-0.3), h.bucket_index(0.3));
}

// -- canonical export -------------------------------------------------

#[test]
fn canonical_lines_strip_wall_clock_content() {
    let tel = Telemetry::enabled();
    tel.span("sim.round").end();
    tel.observe("sim.round_wall_us", 1234.0);
    tel.observe("nnls.iterations", 7.0);
    tel.incr("alloc.rounds");
    tel.record(TraceEvent::Round {
        round: 1,
        t_s: 600.0,
        active_jobs: 2,
        wall_us: 999,
    });
    let jsonl = tel.to_canonical_json_lines();
    assert!(!jsonl.contains("\"type\":\"Span\""), "spans dropped");
    assert!(!jsonl.contains("wall_us\":999"), "round wall zeroed");
    assert!(!jsonl.contains("sim.round_wall_us"), "wall metrics dropped");
    assert!(jsonl.contains("nnls.iterations"), "decision metrics kept");
    assert!(jsonl.contains("\"round\":1"));
    for raw in jsonl.lines() {
        let line: TraceLine = serde_json::from_str(raw).expect("parses");
        if let TraceLine::Event { t_us, .. } = line {
            assert_eq!(t_us, 0, "timestamps zeroed");
        }
    }
    // Canonicalization is idempotent.
    let lines: Vec<TraceLine> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(canonical_lines(&lines), lines);
}

#[test]
fn chrome_trace_contains_spans_and_counters() {
    let tel = Telemetry::enabled();
    tel.span("sim.round").end();
    tel.incr("alloc.rounds");
    tel.record(TraceEvent::Round {
        round: 1,
        t_s: 10.0,
        active_jobs: 4,
        wall_us: 532,
    });
    let doc = tel.to_chrome_trace();
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert!(doc.contains("\"ph\":\"X\""), "complete event for the span");
    assert!(doc.contains("\"ph\":\"i\""), "instant event for the record");
    assert!(doc.contains("\"ph\":\"C\""), "counter sample");
    assert!(doc.contains("\"name\":\"sim.round\""));
}

proptest! {
    /// Random open/close/record programs: the chrome export must always
    /// be valid JSON whose `X` events mirror the *closed* span tree
    /// exactly, with open (unclosed) spans omitted without corrupting
    /// the document — and included once they finally close.
    #[test]
    fn chrome_trace_mirrors_the_span_tree(
        ops in proptest::collection::vec(0u8..3, 0..60),
    ) {
        let tel = Telemetry::enabled();
        let mut stack = Vec::new();
        let mut recorded = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => stack.push(tel.span(if i % 2 == 0 { "even" } else { "odd" })),
                1 => {
                    stack.pop(); // closes the innermost open span
                }
                _ => {
                    tel.record(TraceEvent::JobEvent {
                        t_s: i as f64,
                        job: i as u64,
                        what: "tick".into(),
                    });
                    recorded += 1;
                }
            }
        }

        // Export while `stack` spans are still open.
        let open = stack.len();
        let doc = tel.to_chrome_trace();
        let value: serde_json::Value =
            serde_json::from_str(&doc).expect("chrome trace is valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array")
            .to_vec();
        let ph = |e: &serde_json::Value| e.get("ph").and_then(|p| p.as_str()).unwrap_or_default().to_string();
        let num = |e: &serde_json::Value, k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap_or(-1.0);
        let xs: Vec<serde_json::Value> =
            events.iter().filter(|e| ph(e) == "X").cloned().collect();
        let instants = events.iter().filter(|e| ph(e) == "i").count() as u64;
        prop_assert_eq!(instants, recorded);

        // One X event per *closed* span, in the same order, with
        // matching name/start/duration.
        let closed = tel.spans();
        prop_assert_eq!(xs.len(), closed.len());
        for (x, s) in xs.iter().zip(&closed) {
            prop_assert_eq!(
                x.get("name").and_then(|v| v.as_str()).unwrap_or_default(),
                s.name.as_str()
            );
            prop_assert_eq!(num(x, "ts") as u64, s.start_us);
            prop_assert_eq!(num(x, "dur") as u64, s.dur_us);
        }

        // Stack discipline: every closed child is contained in its
        // parent's interval whenever the parent is closed too.
        for s in &closed {
            if let Some(pid) = s.parent {
                if let Some(p) = closed.iter().find(|c| c.id == pid) {
                    prop_assert!(s.start_us >= p.start_us);
                    prop_assert!(s.start_us + s.dur_us <= p.start_us + p.dur_us);
                }
            }
        }

        // Closing the remaining spans surfaces them in the next export.
        drop(stack);
        let doc = tel.to_chrome_trace();
        let value: serde_json::Value =
            serde_json::from_str(&doc).expect("still valid JSON after closing");
        let xs_after = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array")
            .iter()
            .filter(|e| ph(e) == "X")
            .count();
        prop_assert_eq!(xs_after, closed.len() + open);
    }
}

// -- disabled handle --------------------------------------------------

proptest! {
    #[test]
    fn disabled_handle_records_nothing(
        counter_adds in proptest::collection::vec(1u64..1000, 0..20),
        observations in proptest::collection::vec(0.0f64..1e6, 0..20),
        gauge in -1e6f64..1e6,
    ) {
        let tel = Telemetry::disabled();
        prop_assert!(!tel.is_enabled());
        for n in &counter_adds {
            prop_assert_eq!(tel.add("alloc.rounds", *n), 0);
        }
        for v in &observations {
            tel.observe("sim.round_wall_us", *v);
        }
        tel.gauge("cluster.load", gauge);
        tel.record(TraceEvent::JobEvent { t_s: 0.0, job: 1, what: "x".into() });
        {
            let span = tel.span("round");
            prop_assert_eq!(span.id(), None);
        }
        prop_assert_eq!(tel.counter("alloc.rounds"), 0);
        prop_assert_eq!(tel.records().len(), 0);
        prop_assert_eq!(tel.spans().len(), 0);
        prop_assert_eq!(tel.summary(), optimus_telemetry::TelemetrySummary::default());
        prop_assert_eq!(tel.to_json_lines(), "");
        prop_assert_eq!(tel.now_us(), 0);
    }
}

#[test]
fn clones_share_one_collector() {
    let tel = Telemetry::enabled();
    let clone = tel.clone();
    clone.incr("alloc.rounds");
    tel.incr("alloc.rounds");
    assert_eq!(tel.counter("alloc.rounds"), 2);
    assert_eq!(clone.counter("alloc.rounds"), 2);
}
