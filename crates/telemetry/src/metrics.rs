//! The metrics registry: counters, gauges and fixed-bucket histograms,
//! plus the serializable [`TelemetrySummary`] snapshot.

use crate::State;
use serde::{Deserialize, Serialize};

/// A fixed-bucket histogram. Bucket `i` counts observations
/// `v ≤ bounds[i]`; one implicit overflow bucket counts the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Sorted, deduplicated upper bounds (`le` in Prometheus terms).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value (`+∞` when empty).
    pub min: f64,
    /// Largest observed value (`-∞` when empty).
    pub max: f64,
    /// Observations strictly below the lowest bound. They are counted
    /// in bucket 0 (whose semantics are `v ≤ bounds[0]`), so without
    /// this count they would be indistinguishable from legitimate
    /// bottom-bucket observations — the *underflow* side of ladder
    /// saturation, which matters for signed-error histograms.
    pub underflow: u64,
}

/// The default bucket bounds: a 1–2.5–5 log ladder from 1 up to 10⁹,
/// wide enough for both iteration counts and microsecond latencies.
pub fn default_buckets() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(28);
    let mut decade = 1.0_f64;
    for _ in 0..10 {
        for mult in [1.0, 2.5, 5.0] {
            bounds.push(decade * mult);
        }
        decade *= 10.0;
    }
    bounds
}

/// Bucket bounds for *signed* relative errors: a symmetric log ladder
/// from ±1 % to ±5, with 0 separating under- from over-prediction.
/// Values beyond ±5 land in the first/overflow buckets, which the
/// [`HistogramSummary::overflow`] and [`HistogramSummary::underflow`]
/// counts make visible.
pub fn signed_error_buckets() -> Vec<f64> {
    let ladder = [0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0];
    let mut bounds: Vec<f64> = ladder.iter().map(|b| -b).collect();
    bounds.push(0.0);
    bounds.extend_from_slice(&ladder);
    bounds.sort_by(f64::total_cmp);
    bounds
}

impl Histogram {
    /// Creates an empty histogram with the given upper bounds (sorted
    /// and deduplicated; non-finite bounds are dropped).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            underflow: 0,
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if self.bounds.first().is_some_and(|&lo| value < lo) {
            self.underflow += 1;
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) from the bucket counts
    /// ([`bucket_quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        bucket_quantile(
            &self.bounds,
            &self.counts,
            self.count,
            self.min,
            self.max,
            q,
        )
    }

    /// The bucket index a value would land in.
    pub fn bucket_index(&self, value: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }

    /// Observations above the top bound (the implicit overflow bucket).
    /// Non-zero means the bucket ladder saturated: quantiles at the top
    /// are clamped to `max` and should be read with suspicion.
    pub fn overflow(&self) -> u64 {
        self.counts.last().copied().unwrap_or(0)
    }

    /// Observations strictly below the lowest bound (counted in bucket
    /// 0 but tracked separately) — the low-side saturation count.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }
}

/// Estimated `q`-quantile (`q` in `[0, 1]`) of a histogram of `count`
/// observations with upper bucket `bounds` (the last of `counts` is the
/// overflow bucket past them) and observed range `[min, max]`: the
/// upper bound of the bucket holding the `⌈q·count⌉`-th observation,
/// clamped to that range. 0 when the histogram is empty. The
/// collector's summaries and `optimus-trace`'s reading of an exported
/// histogram both use it.
pub fn bucket_quantile(
    bounds: &[f64],
    counts: &[u64],
    count: u64,
    min: f64,
    max: f64,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let bound = bounds.get(i).copied().unwrap_or(max);
            return bound.clamp(min, max);
        }
    }
    max
}

/// The percentile digest of one histogram, as carried in summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Observations above the top bucket bound. Non-zero flags a
    /// saturated ladder: the upper quantiles are clamped to `max`.
    pub overflow: u64,
    /// Observations strictly below the lowest bucket bound. `None`
    /// when the summary was written by a build that predates underflow
    /// tracking (trace schema < 3) — unknown, not zero.
    pub underflow: Option<u64>,
}

impl HistogramSummary {
    /// True when the bucket ladder saturated on either side:
    /// observations fell past the top bound (tail quantiles clamp to
    /// `max`) or below the lowest bound (conflated into bucket 0).
    pub fn saturated(&self) -> bool {
        self.overflow > 0 || self.underflow.unwrap_or(0) > 0
    }
}

/// A serializable snapshot of everything a handle collected, suitable
/// for embedding in a `SimReport`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram digests, name-sorted.
    pub histograms: Vec<HistogramSummary>,
    /// Closed spans recorded.
    pub spans: usize,
    /// Decision records recorded.
    pub records: usize,
}

impl TelemetrySummary {
    /// The histograms whose bucket ladders saturated (overflow or
    /// underflow), name-sorted. Run ledgers embed this summary, so a
    /// manifest records saturation without re-reading the trace.
    pub fn saturated_histograms(&self) -> Vec<&HistogramSummary> {
        self.histograms.iter().filter(|h| h.saturated()).collect()
    }
}

pub(crate) fn summarize(state: &mut State) -> TelemetrySummary {
    TelemetrySummary {
        counters: state
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
        gauges: state.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        histograms: state
            .histograms
            .iter()
            .map(|(name, h)| HistogramSummary {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                min: if h.count == 0 { 0.0 } else { h.min },
                max: if h.count == 0 { 0.0 } else { h.max },
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
                overflow: h.overflow(),
                underflow: Some(h.underflow()),
            })
            .collect(),
        spans: state.spans.len(),
        records: state.records.len(),
    }
}
