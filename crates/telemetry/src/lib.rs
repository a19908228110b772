#![warn(missing_docs)]

//! Workspace-wide telemetry for the Optimus reproduction.
//!
//! One cheap, cloneable [`Telemetry`] handle is threaded through the
//! scheduler stack (allocation, placement, model fitting, the PS layer
//! and the simulator) and collects three kinds of signal:
//!
//! * **Spans** — hierarchical wall-clock timings ([`Telemetry::span`]),
//!   forming a monotonic per-run span tree;
//! * **Metrics** — named counters, gauges and fixed-bucket histograms
//!   (e.g. `alloc.marginal_gain_evals`, `nnls.iterations`,
//!   `sim.round_wall_us`), via the [`metrics`] registry. The lazy-heap
//!   allocator additionally reports `alloc.heap_pops` (total candidate
//!   pops) and `alloc.stale_skips` (pops discarded by the
//!   generation-stamp check), and the composite scheduler's full
//!   rounds (`schedule_into`; delta rounds do not count it) report
//!   `sched.round_allocs` (rounds that grew any reusable scratch
//!   buffer — zero once the steady state is warm);
//! * **Traces** — typed records of what happened during a run
//!   ([`trace::TraceEvent`]): which coefficients a convergence or speed
//!   fit produced, which fits failed, each round's size and wall time,
//!   each job's lifecycle edges and each estimator-audit sample;
//! * **Decision provenance** — one [`WhyRecord`] per job and
//!   scheduling round ([`Telemetry::why_alloc`],
//!   [`Telemetry::why_place`]): the job's grant with the marginal gain
//!   that won its last task and the runners-up it beat, and its
//!   placement layout or the reason it stayed unplaced.
//!
//! Everything exports as JSON lines ([`Telemetry::to_json_lines`]) for
//! the `optimus-trace` CLI, or as a Chrome `trace_event` file
//! ([`Telemetry::to_chrome_trace`]) for `chrome://tracing` / Perfetto.
//!
//! A disabled handle ([`Telemetry::disabled`], also the [`Default`]) is
//! a `None` internally: every operation is a single branch, no
//! allocation, no locking — cheap enough to leave the instrumentation
//! in the hot paths unconditionally.
//!
//! ```
//! use optimus_telemetry::{Telemetry, trace::TraceEvent};
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _round = tel.span("round");
//!     tel.incr("alloc.rounds");
//!     tel.observe("sim.round_wall_us", 1250.0);
//!     tel.record(TraceEvent::JobEvent {
//!         t_s: 60.0, job: 3, what: "scheduled 2x5".into(),
//!     });
//! }
//! let jsonl = tel.to_json_lines();
//! assert!(jsonl.contains("alloc.rounds") && jsonl.contains("scheduled 2x5"));
//! ```

pub mod flight;
pub mod ledger;
pub mod metrics;
pub mod provenance;
pub mod span;
pub mod trace;

pub use flight::{ClusterSnapshot, FlightConfig, FlightLog, FlightRecorder, PoolStat};
pub use ledger::{RunLedger, RunManifest};
pub use metrics::{HistogramSummary, TelemetrySummary};
pub use provenance::{AllocWhy, DeltaWhy, PlaceReject, PlaceWhy, RunnerUp, WhyRecord};
pub use span::{Span, SpanRecord};
pub use trace::{TraceEvent, TraceLine, TraceRecord, SCHEMA_VERSION};

use metrics::Histogram;
use provenance::WhyRecord as Why;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything a handle has collected, behind one lock. The stack only
/// touches telemetry at decision boundaries (scheduling rounds, fits),
/// never per simulated tick, so a single mutex is not contended.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
    /// Closed spans, in end order (start offsets are monotonic per id).
    pub(crate) spans: Vec<SpanRecord>,
    /// Ids of currently open spans, innermost last.
    pub(crate) open: Vec<u64>,
    pub(crate) next_span_id: u64,
    pub(crate) records: Vec<TraceRecord>,
    pub(crate) next_seq: u64,
    /// Decision-provenance records, keyed by `(round, job)` so export
    /// order is canonical for free (see [`provenance`]).
    pub(crate) why: BTreeMap<(u64, u64), Why>,
    /// Current provenance round (bumped once per scheduling round).
    pub(crate) why_round: u64,
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) origin: Instant,
    /// Provenance gate: recording *why*-records is opt-in on top of an
    /// enabled handle ([`Telemetry::enable_provenance`]).
    pub(crate) provenance: AtomicBool,
    pub(crate) state: Mutex<State>,
}

/// A telemetry handle: an `Arc` when enabled, nothing when disabled.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A recording handle. Clones share the same collector.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                provenance: AtomicBool::new(false),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the handle was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.origin.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    pub(crate) fn with_state<T>(&self, f: impl FnOnce(&mut State) -> T) -> Option<T> {
        self.inner
            .as_ref()
            .map(|i| f(&mut i.state.lock().expect("telemetry state lock")))
    }

    // -- metrics ------------------------------------------------------

    /// Adds 1 to a counter and returns its new value (0 when disabled).
    pub fn incr(&self, name: &str) -> u64 {
        self.add(name, 1)
    }

    /// Adds `n` to a counter and returns its new value (0 when
    /// disabled).
    pub fn add(&self, name: &str, n: u64) -> u64 {
        self.with_state(|s| {
            // Look up before inserting: only a name's first update
            // allocates its key.
            let c = match s.counters.get_mut(name) {
                Some(c) => c,
                None => s.counters.entry(name.to_string()).or_insert(0),
            };
            *c += n;
            *c
        })
        .unwrap_or(0)
    }

    /// The current value of a counter (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_state(|s| s.counters.get(name).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// All counters, name-sorted (empty when disabled). Used by the
    /// [`flight::FlightRecorder`] to compute per-round deltas.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.with_state(|s| s.counters.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default()
    }

    /// Sets a gauge to `value`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.with_state(|s| match s.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                s.gauges.insert(name.to_string(), value);
            }
        });
    }

    /// Registers a histogram with explicit bucket upper bounds (sorted
    /// and deduplicated; an implicit `+∞` bucket is always present).
    /// Registering an existing name keeps the existing histogram.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        self.with_state(|s| {
            s.histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(bounds));
        });
    }

    /// Records a value into a histogram, creating it with
    /// [`metrics::default_buckets`] on first use.
    pub fn observe(&self, name: &str, value: f64) {
        self.with_state(|s| match s.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => s
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(&metrics::default_buckets()))
                .observe(value),
        });
    }

    // -- spans --------------------------------------------------------

    /// Opens a span; it closes (and is recorded) when the returned guard
    /// drops. Spans opened while another is open become its children.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.clone(), name)
    }

    // -- decision trace ----------------------------------------------

    /// Appends a typed decision record to the trace.
    pub fn record(&self, event: TraceEvent) {
        if self.inner.is_none() {
            return;
        }
        let t_us = self.now_us();
        self.with_state(|s| {
            let seq = s.next_seq;
            s.next_seq += 1;
            s.records.push(TraceRecord { seq, t_us, event });
        });
    }

    /// The decision records collected so far (empty when disabled).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.with_state(|s| s.records.clone()).unwrap_or_default()
    }

    /// The closed spans collected so far (empty when disabled).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.with_state(|s| s.spans.clone()).unwrap_or_default()
    }

    // -- export -------------------------------------------------------

    /// A serializable snapshot of counters, gauges and histogram
    /// summaries (plus span/record counts).
    pub fn summary(&self) -> TelemetrySummary {
        self.with_state(metrics::summarize).unwrap_or_default()
    }

    /// Serializes everything as JSON lines, one [`TraceLine`] per line:
    /// decision records and spans first (in their own orders), then the
    /// final counter/gauge/histogram snapshot.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        self.with_state(|s| trace::write_json_lines(s, false, &mut out));
        out
    }

    /// Writes [`Telemetry::to_json_lines`] to a file.
    pub fn write_json_lines(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_lines())
    }

    /// Serializes the *canonical* trace as JSON lines: everything
    /// wall-clock-dependent is stripped ([`trace::canonical_lines`]),
    /// so two identical-config runs produce identical bytes. This is
    /// the stream the run ledger hashes and `optimus-trace diff`
    /// compares.
    pub fn to_canonical_json_lines(&self) -> String {
        let mut out = String::new();
        self.with_state(|s| trace::write_json_lines(s, true, &mut out));
        out
    }

    /// Serializes spans and decision records as a Chrome `trace_event`
    /// JSON document (load in `chrome://tracing` or Perfetto).
    pub fn to_chrome_trace(&self) -> String {
        let lines = self.with_state(trace::snapshot_lines).unwrap_or_default();
        trace::chrome_trace(&lines)
    }
}
