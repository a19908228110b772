//! The cluster flight recorder: bounded ring buffers of typed
//! per-round cluster snapshots.
//!
//! The simulator feeds a [`FlightRecorder`] one [`ClusterSnapshot`]
//! per scheduling round: per-pool CPU/GPU/memory/bandwidth
//! utilization, free-capacity fragmentation, queue depth, job
//! population counts and the deltas of the allocator/placer counters
//! since the previous snapshot. The buffer is bounded — when more
//! than `capacity` snapshots are recorded the oldest are evicted and
//! counted in [`FlightLog::dropped`] — so long runs cannot grow the
//! recorder without bound.
//!
//! Recording is strictly *read-only* with respect to scheduling: the
//! recorder is fed after decisions are applied and never feeds back
//! into them, so a run with the recorder on produces byte-identical
//! `EventLog`/`Schedule` output to the same run with it off (the
//! simulator's equivalence suite proves this).
//!
//! ```
//! use optimus_telemetry::flight::{ClusterSnapshot, FlightRecorder, PoolStat};
//!
//! let mut rec = FlightRecorder::new(2);
//! for round in 1..=3u64 {
//!     rec.record(ClusterSnapshot {
//!         round,
//!         t_s: round as f64 * 600.0,
//!         pools: vec![PoolStat::new("cpu", 7)],
//!         ..ClusterSnapshot::default()
//!     });
//! }
//! let log = rec.into_log();
//! assert_eq!(log.snapshots.len(), 2); // bounded: round 1 evicted
//! assert_eq!(log.dropped, 1);
//! ```

use crate::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Configuration for a [`FlightRecorder`] (carried by `SimConfig`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightConfig {
    /// Ring-buffer bound: at most this many snapshots are retained
    /// (oldest evicted first). Clamped to at least 1.
    pub capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { capacity: 4096 }
    }
}

/// Aggregate utilization of one server pool (servers sharing a class
/// label: `"cpu"`, `"gpu"`, `"uniform"`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PoolStat {
    /// The pool's class label.
    pub pool: String,
    /// Servers in the pool.
    pub servers: usize,
    /// CPU cores in use / total.
    pub cpu_used: f64,
    /// Total CPU cores.
    pub cpu_total: f64,
    /// GPUs in use.
    pub gpu_used: f64,
    /// Total GPUs.
    pub gpu_total: f64,
    /// Memory in use, GB.
    pub mem_used: f64,
    /// Total memory, GB.
    pub mem_total: f64,
    /// Bandwidth in use, Gbps.
    pub bw_used: f64,
    /// Total bandwidth, Gbps.
    pub bw_total: f64,
    /// Largest single-server free CPU in the pool — the biggest task
    /// the pool could still host without spreading.
    pub largest_free_cpu: f64,
}

impl PoolStat {
    /// An empty pool stat with a label and server count.
    pub fn new(pool: impl Into<String>, servers: usize) -> Self {
        PoolStat {
            pool: pool.into(),
            servers,
            ..PoolStat::default()
        }
    }

    /// CPU utilization in `[0, 1]` (0 when the pool has no CPU).
    pub fn cpu_util(&self) -> f64 {
        frac(self.cpu_used, self.cpu_total)
    }

    /// Memory utilization in `[0, 1]`.
    pub fn mem_util(&self) -> f64 {
        frac(self.mem_used, self.mem_total)
    }

    /// Bandwidth utilization in `[0, 1]`.
    pub fn bw_util(&self) -> f64 {
        frac(self.bw_used, self.bw_total)
    }
}

fn frac(used: f64, total: f64) -> f64 {
    if total > 0.0 {
        (used / total).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// One sampled cluster state, taken at the end of a scheduling round
/// after all placements were applied.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Scheduling round (1-based).
    pub round: u64,
    /// Simulation time, seconds.
    pub t_s: f64,
    /// Per-pool utilization, in cluster pool order.
    pub pools: Vec<PoolStat>,
    /// Free-CPU fragmentation in `[0, 1]`: `1 − largest_free /
    /// total_free` across servers. 0 means all free CPU sits on one
    /// server (a whole-machine task could still fit); values near 1
    /// mean the free capacity is shredded into slivers.
    pub fragmentation: f64,
    /// Admitted jobs holding no tasks this interval (paused/starved).
    pub queue_depth: usize,
    /// Jobs not yet admitted (future arrivals).
    pub pending_jobs: usize,
    /// Admitted, unfinished jobs.
    pub active_jobs: usize,
    /// Jobs that have completed.
    pub finished_jobs: usize,
    /// Workers deployed across all running jobs.
    pub running_workers: u32,
    /// Parameter servers deployed across all running jobs.
    pub running_ps: u32,
    /// Telemetry counter increments since the previous snapshot
    /// (allocator pops, placement updates, fits, ...), name-sorted.
    /// Empty when the telemetry handle is disabled. Wall-clock-derived
    /// counters are excluded so the deltas stay run-deterministic.
    pub counter_deltas: Vec<(String, u64)>,
    /// Cumulative simulator event-log length at the snapshot.
    pub events_total: u64,
    /// Scheduling churn this round: job views that arrived, changed
    /// bits, or departed since the previous round. Mode-independent
    /// (the simulator diffs rounds whether or not the delta engine
    /// consumes the result).
    #[serde(default)]
    pub delta_jobs: u64,
    /// The round's scheduler inputs were provably identical to the
    /// previous round's (the delta engine skips such rounds outright).
    #[serde(default)]
    pub quiescent: bool,
}

impl ClusterSnapshot {
    /// Cluster-wide CPU utilization in `[0, 1]`.
    pub fn cpu_util(&self) -> f64 {
        let used: f64 = self.pools.iter().map(|p| p.cpu_used).sum();
        let total: f64 = self.pools.iter().map(|p| p.cpu_total).sum();
        frac(used, total)
    }
}

/// The settled output of a [`FlightRecorder`]: what survived the ring
/// buffer, plus how much was recorded and dropped. Embedded in
/// `SimReport` and exported as the `flight.jsonl` ledger artifact.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FlightLog {
    /// The ring-buffer bound the recorder ran with.
    pub capacity: usize,
    /// Snapshots recorded over the whole run.
    pub recorded: u64,
    /// Snapshots evicted by the bound (`recorded − snapshots.len()`).
    pub dropped: u64,
    /// The retained snapshots, oldest first.
    pub snapshots: Vec<ClusterSnapshot>,
}

impl FlightLog {
    /// Serializes the retained snapshots as JSON lines, one
    /// [`ClusterSnapshot`] per line, oldest first.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for snap in &self.snapshots {
            snap.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses JSON lines written by [`FlightLog::to_json_lines`].
    /// Buffer-bound metadata is reconstructed as if nothing dropped.
    pub fn from_json_lines(s: &str) -> Result<FlightLog, serde_json::Error> {
        let mut snapshots = Vec::new();
        for line in s.lines().filter(|l| !l.trim().is_empty()) {
            snapshots.push(serde_json::from_str(line)?);
        }
        Ok(FlightLog {
            capacity: snapshots.len().max(1),
            recorded: snapshots.len() as u64,
            dropped: 0,
            snapshots,
        })
    }

    /// Renders the sampled gauges as Chrome `trace_event` counter
    /// tracks (`"ph": "C"`), timestamped in simulated microseconds:
    /// one track per pool utilization dimension plus queue depth and
    /// job population. Load in `chrome://tracing` / Perfetto alongside
    /// the decision trace.
    pub fn to_chrome_counter_tracks(&self) -> String {
        use serde_json::Value;
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let mut events = Vec::new();
        for snap in &self.snapshots {
            let ts = snap.t_s * 1e6;
            let mut counter = |name: String, value: f64| {
                events.push(obj(vec![
                    ("name", Value::Str(name)),
                    ("ph", Value::Str("C".into())),
                    ("ts", Value::Num(ts)),
                    ("pid", Value::Num(1.0)),
                    ("args", obj(vec![("value", Value::Num(value))])),
                ]));
            };
            for pool in &snap.pools {
                counter(format!("util.cpu.{}", pool.pool), pool.cpu_util());
                counter(format!("util.mem.{}", pool.pool), pool.mem_util());
                counter(format!("util.bw.{}", pool.pool), pool.bw_util());
            }
            counter("fragmentation".into(), snap.fragmentation);
            counter("queue_depth".into(), snap.queue_depth as f64);
            counter("active_jobs".into(), snap.active_jobs as f64);
            counter("pending_jobs".into(), snap.pending_jobs as f64);
            counter("running_workers".into(), snap.running_workers as f64);
        }
        let doc = obj(vec![("traceEvents", Value::Array(events))]);
        serde_json::to_string(&doc).expect("chrome counter tracks serialize")
    }
}

/// A bounded recorder of [`ClusterSnapshot`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    recorded: u64,
    buf: VecDeque<ClusterSnapshot>,
    last_counters: BTreeMap<String, u64>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` snapshots (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            recorded: 0,
            buf: VecDeque::with_capacity(capacity.min(1024)),
            last_counters: BTreeMap::new(),
        }
    }

    /// A recorder configured by a [`FlightConfig`].
    pub fn from_config(cfg: &FlightConfig) -> Self {
        FlightRecorder::new(cfg.capacity)
    }

    /// Pushes one snapshot, evicting the oldest past the bound.
    pub fn record(&mut self, snapshot: ClusterSnapshot) {
        self.recorded += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(snapshot);
    }

    /// Counter increments since the last call, name-sorted, excluding
    /// wall-clock-derived counters (names containing `"wall"`) so the
    /// deltas stay deterministic across runs. Empty when `tel` is
    /// disabled.
    pub fn counter_deltas(&mut self, tel: &Telemetry) -> Vec<(String, u64)> {
        let current = tel.counters();
        let mut deltas = Vec::new();
        for (name, value) in &current {
            if name.contains("wall") {
                continue;
            }
            let prev = self.last_counters.get(name).copied().unwrap_or(0);
            if *value > prev {
                deltas.push((name.clone(), value - prev));
            }
        }
        self.last_counters = current.into_iter().collect();
        deltas
    }

    /// Snapshots currently retained, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &ClusterSnapshot> {
        self.buf.iter()
    }

    /// Snapshots retained right now.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Snapshots evicted so far.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Settles the recorder into its serializable [`FlightLog`].
    pub fn into_log(self) -> FlightLog {
        FlightLog {
            capacity: self.capacity,
            recorded: self.recorded,
            dropped: self.recorded - self.buf.len() as u64,
            snapshots: self.buf.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(round: u64) -> ClusterSnapshot {
        ClusterSnapshot {
            round,
            t_s: round as f64 * 60.0,
            pools: vec![
                PoolStat {
                    pool: "cpu".into(),
                    servers: 2,
                    cpu_used: 16.0,
                    cpu_total: 64.0,
                    mem_used: 40.0,
                    mem_total: 160.0,
                    bw_used: 0.5,
                    bw_total: 2.0,
                    largest_free_cpu: 30.0,
                    ..PoolStat::default()
                },
                PoolStat::new("gpu", 1),
            ],
            fragmentation: 0.25,
            queue_depth: 1,
            active_jobs: 3,
            events_total: round * 2,
            ..ClusterSnapshot::default()
        }
    }

    #[test]
    fn ring_buffer_bounds_and_counts_evictions() {
        let mut rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for round in 1..=7 {
            rec.record(snap(round));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 4);
        let rounds: Vec<u64> = rec.snapshots().map(|s| s.round).collect();
        assert_eq!(rounds, vec![5, 6, 7]);
        let log = rec.into_log();
        assert_eq!(log.recorded, 7);
        assert_eq!(log.dropped, 4);
        assert_eq!(log.capacity, 3);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut rec = FlightRecorder::new(0);
        rec.record(snap(1));
        rec.record(snap(2));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.snapshots().next().unwrap().round, 2);
    }

    #[test]
    fn utilization_fractions() {
        let s = snap(1);
        let cpu_pool = &s.pools[0];
        assert!((cpu_pool.cpu_util() - 0.25).abs() < 1e-12);
        assert!((cpu_pool.mem_util() - 0.25).abs() < 1e-12);
        assert!((cpu_pool.bw_util() - 0.25).abs() < 1e-12);
        // Empty pool: utilization is defined as 0, not NaN.
        assert_eq!(s.pools[1].cpu_util(), 0.0);
        assert!((s.cpu_util() - 16.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn json_lines_roundtrip() {
        let mut rec = FlightRecorder::new(8);
        rec.record(snap(1));
        rec.record(snap(2));
        let log = rec.into_log();
        let lines = log.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        let parsed = FlightLog::from_json_lines(&lines).expect("parses back");
        assert_eq!(parsed.snapshots, log.snapshots);
    }

    #[test]
    fn counter_deltas_diff_and_skip_wall() {
        let tel = Telemetry::enabled();
        tel.add("alloc.heap_pops", 10);
        tel.add("sim.wall_ticks", 5);
        let mut rec = FlightRecorder::new(4);
        let d1 = rec.counter_deltas(&tel);
        assert_eq!(d1, vec![("alloc.heap_pops".to_string(), 10)]);
        tel.add("alloc.heap_pops", 3);
        let d2 = rec.counter_deltas(&tel);
        assert_eq!(d2, vec![("alloc.heap_pops".to_string(), 3)]);
        let d3 = rec.counter_deltas(&tel);
        assert!(d3.is_empty());
        // Disabled handle: no deltas at all.
        let mut rec = FlightRecorder::new(4);
        assert!(rec.counter_deltas(&Telemetry::disabled()).is_empty());
    }

    #[test]
    fn chrome_counter_tracks_render() {
        let mut rec = FlightRecorder::new(4);
        rec.record(snap(1));
        let doc = rec.into_log().to_chrome_counter_tracks();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("util.cpu.cpu"));
        assert!(doc.contains("queue_depth"));
        assert!(doc.contains("\"ph\":\"C\"") || doc.contains("\"ph\": \"C\""));
    }
}
