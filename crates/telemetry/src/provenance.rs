//! Decision provenance: per-job-round *why*-records.
//!
//! The trace stream ([`crate::trace`]) records fits, rounds and job
//! edges; this module is the one record of each scheduling decision:
//! what the scheduler granted and placed, what it *rejected*, and why.
//! Once per scheduling round, the allocator, placer and delta engine
//! each merge their side of the story into one [`WhyRecord`] per job:
//!
//! * **Allocation** ([`AllocWhy`]) — the winning marginal gain, the
//!   dominant-share and priority inputs behind it, and the top-K
//!   runner-up candidates it beat ([`RunnerUp`]);
//! * **Placement** ([`PlaceWhy`]) — the layout chosen and every
//!   candidate the packer rejected on the way, tagged with the reason
//!   ([`PlaceReject`]): a failed k-prefix probe, the aggregate
//!   free-capacity early exit, or a whole configuration shed for
//!   capacity;
//! * **Delta path** ([`DeltaWhy`]) — whether the grant was replayed
//!   from an earlier round (and which), re-derived by a solo climb, or
//!   fell back to a full pass because a certificate term failed.
//!
//! Recording is gated twice: behind the telemetry handle (a disabled
//! handle drops everything) *and* behind
//! [`Telemetry::enable_provenance`], so trace-only runs pay nothing.
//! Records never influence decisions — a run with provenance on is
//! byte-identical in events/schedule/trace to the same run with it
//! off; the equivalence suite proves this.
//!
//! Export ([`Telemetry::why_json_lines`]) is one JSON object per line,
//! sorted by `(round, job)`, each carrying the trace schema version as
//! `"v"` — canonical by construction (no wall-clock content), so the
//! run ledger hashes it like `trace.jsonl`.

use crate::trace::SCHEMA_VERSION;
use crate::Telemetry;
use serde::{Deserialize, Serialize};

/// How many runner-up candidates an [`AllocWhy`] keeps.
pub const TOP_RUNNERS_UP: usize = 3;

/// How many [`PlaceReject`]s a [`PlaceWhy`] keeps (the total is still
/// counted in [`PlaceWhy::rejections`]).
pub const MAX_REJECTIONS: usize = 16;

/// The provenance of one job's decision in one scheduling round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhyRecord {
    /// Trace schema version ([`SCHEMA_VERSION`]).
    pub v: Option<u32>,
    /// Scheduling round (1-based, aligned with `Round` trace events).
    pub round: u64,
    /// The job.
    pub job: u64,
    /// Parameter servers granted by allocation.
    pub ps: u32,
    /// Workers granted by allocation.
    pub workers: u32,
    /// The allocation story (`None` when the grant was replayed or the
    /// job received only starter units).
    pub alloc: Option<AllocWhy>,
    /// The placement story (`None` when the job was never handed to
    /// the placer, e.g. it held no tasks this round).
    pub place: Option<PlaceWhy>,
    /// Which delta path produced this decision.
    pub delta: DeltaWhy,
}

impl WhyRecord {
    pub(crate) fn new(round: u64, job: u64) -> Self {
        WhyRecord {
            v: Some(SCHEMA_VERSION),
            round,
            job,
            ps: 0,
            workers: 0,
            alloc: None,
            place: None,
            delta: DeltaWhy::Full,
        }
    }
}

/// Why the §4.1 marginal-gain loop granted what it granted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocWhy {
    /// The winning gain of the job's *last* grant this round.
    pub gain: f64,
    /// `"worker"` or `"ps"` — the task kind of that grant.
    pub action: String,
    /// Dominant share of one worker at the winning evaluation.
    pub dom_worker: f64,
    /// Dominant share of one parameter server at the winning
    /// evaluation.
    pub dom_ps: f64,
    /// Whether the young-job priority damping applied.
    pub young: bool,
    /// The allocator's priority factor (damps young-job gains).
    pub priority_factor: f64,
    /// The best candidates the winning grant beat, best first (at most
    /// [`TOP_RUNNERS_UP`]; empty when the heap held no live rival,
    /// e.g. a solo climb).
    pub runners_up: Vec<RunnerUp>,
}

/// A candidate the winning grant beat.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerUp {
    /// The rival job.
    pub job: u64,
    /// Its best gain at the time of the grant.
    pub gain: f64,
    /// `"worker"` or `"ps"`.
    pub action: String,
}

/// Why the §4.2 packer placed a job where it did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaceWhy {
    /// Parameter servers actually placed (may be below the grant after
    /// shrink retries; 0 when the job ended up unplaced).
    pub ps: u32,
    /// Workers actually placed.
    pub workers: u32,
    /// Servers the placement spans.
    pub servers: u64,
    /// Tasks shed by shrink-on-unplaceable retries.
    pub shrunk: u32,
    /// True when the layout was replayed from the previous round's
    /// store rather than re-packed.
    pub replayed: bool,
    /// Total candidates rejected before this layout won.
    pub rejections: u64,
    /// The first [`MAX_REJECTIONS`] rejections, in order.
    pub rejected: Vec<PlaceReject>,
}

/// One candidate the packer rejected, tagged by reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "reason")]
pub enum PlaceReject {
    /// The `k`-server prefix probe found no feasible split: the
    /// k-prefix bound rejected the job at this width.
    KPrefix {
        /// Prefix size probed.
        k: u64,
    },
    /// The server index's aggregate free capacity couldn't cover the
    /// job's whole demand, so no prefix was probed at all.
    AggregateEarlyExit {
        /// Servers currently indexed.
        servers: u64,
    },
    /// A whole `(ps, workers)` configuration was shed for capacity:
    /// every probed prefix rejected it, so the packer shrank the job.
    Capacity {
        /// Parameter servers of the rejected configuration.
        ps: u32,
        /// Workers of the rejected configuration.
        workers: u32,
    },
}

/// Which delta-round path produced a job's decision.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "path")]
pub enum DeltaWhy {
    /// Decided by a full allocation pass (delta engine absent, cold,
    /// or this job was dirty in a round that ran the full path).
    #[default]
    Full,
    /// The grant was replayed unchanged from an earlier round.
    Replay {
        /// The round whose full/derive pass originally produced this
        /// grant.
        origin_round: u64,
        /// Slack of the binding uncontended-certificate term that
        /// validated the replay.
        slack: f64,
        /// The binding term's resource kind (`"cpu"`, `"gpu"`,
        /// `"mem_gb"`, `"bandwidth_gbps"`).
        term: String,
    },
    /// The grant was re-derived by an independent solo climb (the job
    /// was dirty but the certificate held).
    Derive {
        /// Slack of the binding certificate term.
        slack: f64,
        /// The binding term's resource kind.
        term: String,
    },
    /// The certificate failed and the round fell back to a full pass.
    Fallback {
        /// The failing term's resource kind.
        term: String,
        /// Resources the candidate rows already use on that kind.
        used: f64,
        /// Largest single-task demand on that kind.
        max_unit: f64,
        /// Cluster total on that kind.
        total: f64,
        /// The (negative) slack: `total − (used + 2·max_unit + slop)`.
        slack: f64,
    },
    /// A delta precondition failed before the certificate was even
    /// consulted (cold tracking state, cluster changed, a solo climb
    /// starved), forcing the full path.
    Precondition {
        /// Which precondition (`"cold"`, `"cluster-changed"`,
        /// `"alloc-invalid"`, `"climb-starved"`).
        reason: String,
    },
}

impl Telemetry {
    /// Turns provenance recording on for this handle (and all clones).
    /// No-op on a disabled handle. Never turned back off: enabling
    /// mid-run would leave earlier rounds without records.
    pub fn enable_provenance(&self) {
        if let Some(inner) = self.inner.as_ref() {
            inner
                .provenance
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// True when this handle records provenance.
    pub fn provenance_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.provenance.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Starts a new provenance round and returns its 1-based number.
    /// Called once per scheduling round by the composite scheduler, so
    /// record rounds align with the simulator's `Round` trace events.
    /// Returns 0 when provenance is off.
    pub fn provenance_begin_round(&self) -> u64 {
        if !self.provenance_enabled() {
            return 0;
        }
        self.with_state(|s| {
            s.why_round += 1;
            s.why_round
        })
        .unwrap_or(0)
    }

    /// The current provenance round (0 before the first round or when
    /// provenance is off).
    pub fn provenance_round(&self) -> u64 {
        if !self.provenance_enabled() {
            return 0;
        }
        self.with_state(|s| s.why_round).unwrap_or(0)
    }

    /// Merges the allocation side of a job's record for the current
    /// round: the granted `(ps, workers)` and, unless the grant was
    /// replayed or starter-only, the winning-gain story.
    pub fn why_alloc(&self, job: u64, ps: u32, workers: u32, alloc: Option<AllocWhy>) {
        if !self.provenance_enabled() {
            return;
        }
        self.with_state(|s| {
            let round = s.why_round;
            let rec = s
                .why
                .entry((round, job))
                .or_insert_with(|| WhyRecord::new(round, job));
            rec.ps = ps;
            rec.workers = workers;
            if alloc.is_some() {
                rec.alloc = alloc;
            }
        });
    }

    /// Merges the placement side of a job's record for the current
    /// round.
    pub fn why_place(&self, job: u64, place: PlaceWhy) {
        if !self.provenance_enabled() {
            return;
        }
        self.with_state(|s| {
            let round = s.why_round;
            s.why
                .entry((round, job))
                .or_insert_with(|| WhyRecord::new(round, job))
                .place = Some(place);
        });
    }

    /// Merges the delta-path side of a job's record for the current
    /// round.
    pub fn why_delta(&self, job: u64, delta: DeltaWhy) {
        if !self.provenance_enabled() {
            return;
        }
        self.with_state(|s| {
            let round = s.why_round;
            s.why
                .entry((round, job))
                .or_insert_with(|| WhyRecord::new(round, job))
                .delta = delta;
        });
    }

    /// Records collected so far, `(round, job)`-sorted (empty when
    /// provenance is off).
    pub fn why_records(&self) -> Vec<WhyRecord> {
        self.with_state(|s| s.why.values().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of records collected so far (0 when provenance is off).
    pub fn why_count(&self) -> u64 {
        self.with_state(|s| s.why.len() as u64).unwrap_or(0)
    }

    /// Serializes the records as JSON lines, one [`WhyRecord`] per
    /// line in `(round, job)` order. Contains no wall-clock content,
    /// so it is canonical as-is — the run ledger hashes these bytes
    /// directly.
    pub fn why_json_lines(&self) -> String {
        let mut out = String::new();
        self.with_state(|s| {
            for rec in s.why.values() {
                rec.write_json(&mut out);
                out.push('\n');
            }
        });
        out
    }
}

/// Parses a `provenance.jsonl` export back into records (tolerates a
/// trailing newline; fails on any malformed line).
pub fn parse_why_lines(text: &str) -> Result<Vec<WhyRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: WhyRecord =
            serde_json::from_str(line).map_err(|e| format!("provenance line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.enable_provenance();
        assert!(!tel.provenance_enabled());
        assert_eq!(tel.provenance_begin_round(), 0);
        tel.why_delta(7, DeltaWhy::Full);
        assert_eq!(tel.why_count(), 0);
        assert!(tel.why_json_lines().is_empty());
    }

    #[test]
    fn enabled_without_provenance_records_nothing() {
        let tel = Telemetry::enabled();
        assert!(!tel.provenance_enabled());
        assert_eq!(tel.provenance_begin_round(), 0);
        tel.why_alloc(1, 2, 3, None);
        assert_eq!(tel.why_count(), 0);
    }

    #[test]
    fn merge_and_roundtrip() {
        let tel = Telemetry::enabled();
        tel.enable_provenance();
        assert_eq!(tel.provenance_begin_round(), 1);
        tel.why_alloc(
            5,
            2,
            4,
            Some(AllocWhy {
                gain: 0.031,
                action: "worker".into(),
                dom_worker: 0.125,
                dom_ps: 0.06,
                young: false,
                priority_factor: 1.0,
                runners_up: vec![RunnerUp {
                    job: 17,
                    gain: 0.024,
                    action: "worker".into(),
                }],
            }),
        );
        tel.why_place(
            5,
            PlaceWhy {
                ps: 2,
                workers: 4,
                servers: 2,
                shrunk: 0,
                replayed: false,
                rejections: 1,
                rejected: vec![PlaceReject::KPrefix { k: 1 }],
            },
        );
        tel.why_delta(
            5,
            DeltaWhy::Replay {
                origin_round: 1,
                slack: 1.8,
                term: "cpu".into(),
            },
        );
        assert_eq!(tel.why_count(), 1);
        let lines = tel.why_json_lines();
        let back = parse_why_lines(&lines).expect("parses");
        assert_eq!(back.len(), 1);
        let rec = &back[0];
        assert_eq!(rec.round, 1);
        assert_eq!(rec.job, 5);
        assert_eq!((rec.ps, rec.workers), (2, 4));
        let alloc = rec.alloc.as_ref().expect("alloc side");
        assert_eq!(alloc.runners_up.len(), 1);
        assert_eq!(alloc.runners_up[0].job, 17);
        let place = rec.place.as_ref().expect("place side");
        assert_eq!(place.rejected, vec![PlaceReject::KPrefix { k: 1 }]);
        match &rec.delta {
            DeltaWhy::Replay {
                origin_round, term, ..
            } => {
                assert_eq!(*origin_round, 1);
                assert_eq!(term, "cpu");
            }
            other => panic!("expected replay, got {other:?}"),
        }
    }

    #[test]
    fn records_sort_by_round_then_job() {
        let tel = Telemetry::enabled();
        tel.enable_provenance();
        tel.provenance_begin_round();
        tel.why_alloc(9, 1, 1, None);
        tel.why_alloc(2, 1, 1, None);
        tel.provenance_begin_round();
        tel.why_alloc(4, 1, 1, None);
        let recs = tel.why_records();
        let keys: Vec<_> = recs.iter().map(|r| (r.round, r.job)).collect();
        assert_eq!(keys, vec![(1, 2), (1, 9), (2, 4)]);
    }
}
