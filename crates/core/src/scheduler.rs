//! Scheduler composition: allocator × placer (§4, §6.4).
//!
//! Every scheduling interval the simulator hands the scheduler the
//! active jobs (as [`JobView`]s carrying the online estimates of §3) and
//! the cluster; the scheduler returns a [`Schedule`]: per-job
//! `(p, w)` allocations and concrete per-server placements. Jobs with an
//! allocation but no placement are paused for the interval (§4.2).
//!
//! [`CompositeScheduler`] glues any [`ResourceAllocator`] to any
//! [`TaskPlacer`], which is exactly how the paper's §6.4 ablations swap
//! one component at a time.

use crate::allocation::{
    certificate_check, AllocScratch, Allocation, CandCache, Certificate, DrfAllocator,
    OptimusAllocator, ResourceAllocator, TetrisAllocator,
};
use crate::placement::{
    replayed_place_why, JobIdBuildHasher, OptimusPlacer, PackPlacer, PlaceScratch, PlaceSig,
    PlacementStore, SpreadPlacer, TaskPlacer,
};
use crate::speed::SpeedModel;
use optimus_cluster::{Cluster, ResourceVec, ServerId};
use optimus_ps::TaskCounts;
use optimus_telemetry::{AllocWhy, DeltaWhy, Telemetry};
use optimus_workload::JobId;
use std::collections::HashMap;

/// What a scheduler knows about one active job.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id.
    pub id: JobId,
    /// Resources one worker occupies.
    pub worker_profile: ResourceVec,
    /// Resources one parameter server occupies.
    pub ps_profile: ResourceVec,
    /// Estimated remaining work `Q_j` in steps (§3.1).
    pub remaining_work: f64,
    /// The job's learned speed function (§3.2).
    pub speed: SpeedModel,
    /// Fraction of the job estimated complete, in `[0, 1]` (drives the
    /// §4.1 young-job priority damping).
    pub progress: f64,
    /// Fixed task-pair request used by the DRF/Tetris baselines (the
    /// paper sets ps:worker = 1:1 for both).
    pub requested_units: u32,
}

impl JobView {
    /// Estimated remaining time at a configuration: `Q_j / f(p, w)`,
    /// `f64::INFINITY` when the configuration yields no speed.
    pub fn remaining_time(&self, p: u32, w: u32) -> f64 {
        let f = self.speed.predict(p, w);
        if f <= 0.0 {
            f64::INFINITY
        } else {
            self.remaining_work / f
        }
    }

    /// Combined resources of one worker + one PS.
    pub fn unit_demand(&self) -> ResourceVec {
        self.worker_profile + self.ps_profile
    }
}

/// Placement of one job: its tasks per server.
pub type JobPlacement = Vec<(ServerId, TaskCounts)>;

/// The outcome of one scheduling pass.
///
/// Lookups by job id are O(1): the allocation vector is shadowed by a
/// private id→row index, so the simulator's per-job-per-round
/// [`Schedule::allocation_for`] / [`Schedule::is_running`] queries never
/// scan. The index is maintained by the constructors and
/// [`Schedule::push_allocation`]; when several rows share a job id the
/// first row wins, matching the old linear scan.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Per-job task counts (jobs with `ps == 0 || workers == 0` received
    /// nothing this interval).
    allocations: Vec<Allocation>,
    /// Concrete placements for the jobs that fit on servers; allocated
    /// jobs missing here are paused (§4.2). Arena-backed so clearing and
    /// refilling a warm schedule allocates nothing.
    placements: PlacementStore,
    /// Job id → row in `allocations` (first occurrence wins).
    index: HashMap<JobId, usize, crate::placement::JobIdBuildHasher>,
}

impl Schedule {
    /// Builds a schedule from its parts, indexing the allocations.
    pub fn new(allocations: Vec<Allocation>, placements: HashMap<JobId, JobPlacement>) -> Self {
        let mut schedule = Schedule {
            allocations,
            placements: placements.into_iter().collect(),
            index: HashMap::default(),
        };
        schedule.rebuild_index();
        schedule
    }

    /// Clears all three parts, keeping their capacity.
    pub fn reset(&mut self) {
        self.allocations.clear();
        self.placements.clear();
        self.index.clear();
    }

    /// Rebuilds the id → row index after `allocations` changed wholesale.
    fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, a) in self.allocations.iter().enumerate() {
            self.index.entry(a.job).or_insert(i);
        }
    }

    /// The per-job allocation rows, in allocator order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// All placements, keyed by job.
    pub fn placements(&self) -> &PlacementStore {
        &self.placements
    }

    /// Appends an allocation row, keeping the lookup index in sync.
    pub fn push_allocation(&mut self, allocation: Allocation) {
        self.index
            .entry(allocation.job)
            .or_insert(self.allocations.len());
        self.allocations.push(allocation);
    }

    /// Inserts (or replaces) a job's placement.
    pub fn insert_placement(&mut self, id: JobId, placement: JobPlacement) {
        self.placements.insert(id, &placement);
    }

    /// The allocation row for a job, if any (O(1)).
    pub fn allocation_for(&self, id: JobId) -> Option<&Allocation> {
        self.index.get(&id).map(|&i| &self.allocations[i])
    }

    /// The placement for a job, if it was placed.
    pub fn placement_for(&self, id: JobId) -> Option<&[(ServerId, TaskCounts)]> {
        self.placements.get(id)
    }

    /// True when the job both received resources and was placed.
    pub fn is_running(&self, id: JobId) -> bool {
        self.placements.contains(id)
            && self
                .allocation_for(id)
                .is_some_and(|a| a.ps > 0 && a.workers > 0)
    }

    /// Total tasks (PS + workers) placed.
    pub fn total_tasks(&self) -> u64 {
        self.placements
            .iter()
            .flat_map(|(_, p)| p.iter())
            .map(|(_, c)| (c.ps + c.workers) as u64)
            .sum()
    }

    /// Total reserved capacity, for growth detection.
    fn footprint(&self) -> usize {
        self.allocations.capacity() + self.placements.footprint() + self.index.capacity()
    }
}

/// Persistent per-round working state: the allocator's lazy heap,
/// prediction caches and generation stamps plus the placer's free-index
/// and packing buffers. Owned by the driver (the simulator keeps one for
/// its lifetime) and handed to [`Scheduler::schedule_into`] every round,
/// so steady-state rounds run without heap allocation.
#[derive(Debug, Default)]
pub struct RoundScratch {
    pub(crate) alloc: AllocScratch,
    pub(crate) place: PlaceScratch,
    /// Cross-round delta state (see [`Scheduler::schedule_delta`]); not
    /// part of [`Self::footprint`], which tracks only the buffers
    /// [`Scheduler::schedule_into`] uses.
    pub(crate) delta: DeltaState,
}

impl RoundScratch {
    /// Total reserved capacity, for growth detection.
    fn footprint(&self) -> usize {
        self.alloc.footprint() + self.place.footprint()
    }
}

/// What changed since the previous scheduling round, as computed by the
/// driver (the simulator derives it from calendar events, refit
/// outcomes and reservation changes).
#[derive(Debug, Clone, Default)]
pub struct RoundDelta {
    /// Distrust everything: first round, engine switch, or the driver
    /// could not track changes. Forces the full path.
    pub full: bool,
    /// The scheduler-visible cluster (capacities or reservations)
    /// changed since the previous round.
    pub cluster_changed: bool,
    /// Sorted indices into this round's job-view slice whose view is
    /// new or changed bits since the previous round. Jobs that
    /// *departed* need no entry: they are detected by id-list
    /// comparison against the previous round.
    pub dirty: Vec<u32>,
}

/// What [`Scheduler::schedule_delta`] actually did, for telemetry and
/// progress reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaStats {
    /// The whole round was skipped: the previous schedule is provably
    /// bit-identical to what a fresh run would produce, and `out` was
    /// left untouched.
    pub skipped_full: bool,
    /// Number of dirty job views this round (`delta.dirty.len()`).
    pub dirty_jobs: u64,
    /// Worker/PS grants replayed from stored rows instead of re-derived.
    pub replayed_grants: u64,
    /// The allocator ran the full greedy pass (delta preconditions or
    /// the headroom certificate failed).
    pub alloc_full: bool,
    /// Placement reused the previous round's store wholesale.
    pub place_reused: bool,
}

/// Cross-round memory for the delta path: last round's job ids, their
/// final grant rows, the placement signature list and store, plus the
/// solo-climb scratch cache. Lives in [`RoundScratch`] so drivers thread
/// it for free; buffers are cleared-and-refilled, never reallocated in
/// steady state.
#[derive(Debug)]
pub(crate) struct DeltaState {
    /// Stored grant rows are per-job solo values (the previous round
    /// passed the uncontended certificate), so a clean job may reuse
    /// them verbatim.
    alloc_valid: bool,
    /// Job ids of the previous round's views, in view order.
    ids: Vec<JobId>,
    /// Job id → final `(ps, workers, origin_round)` of the previous
    /// round. The origin round is the provenance round that actually
    /// *derived* the row (replays preserve it; full passes and solo
    /// climbs stamp the current round). Always 0 with provenance off —
    /// never read in that case.
    row_of: HashMap<JobId, (u32, u32, u64), JobIdBuildHasher>,
    /// This round's rows under assembly.
    rows_next: Vec<(u32, u32)>,
    /// Binding term of the most recent *passing* certificate, cited by
    /// replay provenance records (including whole-round skips, whose
    /// own round evaluates no certificate).
    cert_slack: f64,
    cert_term: &'static str,
    /// Previous round's ordered placement signatures (swapped with
    /// [`PlaceScratch`]'s, which the placer fills each round); empty, like
    /// `store`, before the first round.
    sig: Vec<PlaceSig>,
    /// Previous round's placement store.
    store: PlacementStore,
    /// Solo-climb prediction cache, reset per climb.
    cache: CandCache,
}

impl Default for DeltaState {
    fn default() -> Self {
        DeltaState {
            alloc_valid: false,
            ids: Vec::new(),
            row_of: HashMap::default(),
            rows_next: Vec::new(),
            cert_slack: f64::MAX,
            cert_term: "none",
            sig: Vec::new(),
            store: PlacementStore::default(),
            cache: CandCache::default(),
        }
    }
}

/// A complete scheduler: produces a [`Schedule`] each interval.
pub trait Scheduler {
    /// Human-readable name for reports ("Optimus", "DRF", "Tetris", ...).
    fn name(&self) -> &str;

    /// Computes allocations and placements for the active jobs.
    fn schedule(&self, jobs: &[JobView], cluster: &Cluster) -> Schedule;

    /// Scratch-reusing variant for the steady-state round loop: writes
    /// the decision into `out` and may keep working state in `scratch`
    /// between rounds. The default delegates to [`Self::schedule`];
    /// [`CompositeScheduler`] overrides it to reuse every buffer.
    fn schedule_into(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        _scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) {
        *out = self.schedule(jobs, cluster);
    }

    /// Churn-proportional variant: given what changed since the last
    /// call ([`RoundDelta`]), produce a schedule *bit-identical* to
    /// [`Self::schedule_into`]'s while touching only dirty jobs where
    /// the exactness preconditions hold.
    ///
    /// Contract: the driver must call this every round with the same
    /// `scratch` and the same `out` still holding the previous call's
    /// result (the whole-round skip leaves `out` untouched on a provably
    /// unchanged round). Mixing `schedule_delta` and `schedule_into`
    /// calls on one scratch requires passing `delta.full = true` on the
    /// first `schedule_delta` after the switch.
    ///
    /// The default implementation ignores the delta and runs the full
    /// path — schedulers without an incremental engine stay correct.
    fn schedule_delta(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        delta: &RoundDelta,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) -> DeltaStats {
        self.schedule_into(jobs, cluster, scratch, out);
        DeltaStats {
            dirty_jobs: delta.dirty.len() as u64,
            alloc_full: true,
            ..DeltaStats::default()
        }
    }
}

/// An allocator glued to a placer. Built by [`OptimusScheduler`] it
/// holds the concrete Optimus parts and runs delta rounds; built by
/// [`CompositeScheduler::new`] it holds boxed parts and runs full rounds
/// only.
pub struct CompositeScheduler {
    name: String,
    parts: Parts,
    tel: Telemetry,
}

/// The composite's one allocator and one placer.
enum Parts {
    /// The concrete Optimus components: [`Scheduler::schedule_delta`]
    /// needs `solo_climb` and `place_delta`, which are not part of the
    /// object-safe traits.
    Optimus {
        allocator: OptimusAllocator,
        placer: OptimusPlacer,
    },
    /// Any components behind the traits — the baselines, the §6.4
    /// ablations and the full-rounds oracle. Full rounds only.
    Boxed {
        allocator: Box<dyn ResourceAllocator + Send + Sync>,
        placer: Box<dyn TaskPlacer + Send + Sync>,
    },
}

impl CompositeScheduler {
    /// Creates a scheduler from parts (used directly by the §6.4
    /// ablations). It runs full rounds only, whatever the parts: boxed
    /// Optimus components make the full-rounds oracle of
    /// [`OptimusScheduler`]'s delta rounds.
    pub fn new(
        name: impl Into<String>,
        allocator: Box<dyn ResourceAllocator + Send + Sync>,
        placer: Box<dyn TaskPlacer + Send + Sync>,
    ) -> Self {
        CompositeScheduler {
            name: name.into(),
            parts: Parts::Boxed { allocator, placer },
            tel: Telemetry::disabled(),
        }
    }

    /// Glues concrete Optimus components, enabling delta rounds.
    fn optimus(
        name: impl Into<String>,
        allocator: OptimusAllocator,
        placer: OptimusPlacer,
    ) -> Self {
        CompositeScheduler {
            name: name.into(),
            parts: Parts::Optimus { allocator, placer },
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: each `schedule` call is wrapped in a
    /// `sched.decision` span (so `optimus-trace --spans` can report
    /// per-round decision-latency percentiles). The allocator and placer
    /// keep their own handles (see
    /// [`OptimusScheduler::build_with_telemetry`], which shares one
    /// handle across all three).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }
}

impl Scheduler for CompositeScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(&self, jobs: &[JobView], cluster: &Cluster) -> Schedule {
        let mut out = Schedule::default();
        self.schedule_into(jobs, cluster, &mut RoundScratch::default(), &mut out);
        out
    }

    /// The allocation-free steady-state path: allocator and placer write
    /// straight into `out`'s buffers through their `*_into` hooks. When
    /// telemetry is enabled, a round that had to grow any scratch or
    /// schedule buffer (a cold round) bumps `sched.round_allocs`; warm
    /// rounds leave the counter untouched.
    fn schedule_into(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) {
        let _span = self
            .tel
            .is_enabled()
            .then(|| self.tel.span("sched.decision"));
        // One provenance round per scheduler invocation, so why-record
        // round numbers line up with the simulator's `Round` events.
        self.tel.provenance_begin_round();
        // Footprints feed only the cold-round counter; skip the buffer
        // walk entirely when telemetry is off.
        let footprint = self
            .tel
            .is_enabled()
            .then(|| scratch.footprint() + out.footprint());
        let (allocator, placer): (&dyn ResourceAllocator, &dyn TaskPlacer) = match &self.parts {
            Parts::Optimus { allocator, placer } => (allocator, placer),
            Parts::Boxed { allocator, placer } => (allocator.as_ref(), placer.as_ref()),
        };
        out.reset();
        allocator.allocate_into(jobs, cluster, &mut scratch.alloc, &mut out.allocations);
        out.rebuild_index();
        placer.place_into(
            &out.allocations,
            jobs,
            cluster,
            &mut scratch.place,
            &mut out.placements,
        );
        if let Some(before) = footprint {
            if scratch.footprint() + out.footprint() != before {
                self.tel.add("sched.round_allocs", 1);
            }
        }
    }

    /// The delta-round engine. Cost is proportional to churn:
    ///
    /// - **whole-round skip** — no dirty jobs, no departures/arrivals,
    ///   cluster unchanged: the previous schedule (still in `out`, per
    ///   the contract) is what a fresh run would produce, byte for
    ///   byte, because every input the scheduler reads is bit-identical
    ///   and both paths are deterministic. O(jobs) id comparison, no
    ///   allocation, no placement.
    /// - **delta allocation** — dirty jobs re-derive their grants with
    ///   [`OptimusAllocator::solo_climb`]; clean jobs replay last
    ///   round's stored rows. Sound iff rounds are uncontended, which
    ///   [`certificate_check`] proves *after the fact* on the
    ///   assembled rows (and stored rows are only trusted when the
    ///   round that produced them passed it too). Any failure falls
    ///   back to the full greedy pass — bit-identical by construction.
    /// - **delta placement** — [`OptimusPlacer::place_delta`] reuses
    ///   the whole previous store when the ordered placement inputs
    ///   match exactly, else replays the longest matching prefix.
    fn schedule_delta(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        delta: &RoundDelta,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) -> DeltaStats {
        let Parts::Optimus { allocator, placer } = &self.parts else {
            // Boxed compositions have no incremental engine.
            self.schedule_into(jobs, cluster, scratch, out);
            return DeltaStats {
                dirty_jobs: delta.dirty.len() as u64,
                alloc_full: true,
                ..DeltaStats::default()
            };
        };
        let _span = self
            .tel
            .is_enabled()
            .then(|| self.tel.span("sched.decision"));
        // One provenance round per scheduler invocation (skip rounds
        // included), so why-record rounds align with `Round` events.
        self.tel.provenance_begin_round();
        let prov = self.tel.provenance_enabled();
        let RoundScratch {
            alloc: alloc_scratch,
            place: place_scratch,
            delta: st,
        } = scratch;
        let mut stats = DeltaStats {
            dirty_jobs: delta.dirty.len() as u64,
            ..DeltaStats::default()
        };
        // Whole-round skip: same job set (ids elementwise equal), no
        // dirty views, same cluster. Determinism makes `out` — last
        // round's result — already correct.
        if !delta.full
            && !delta.cluster_changed
            && delta.dirty.is_empty()
            && st.ids.len() == jobs.len()
            && st.ids.iter().zip(jobs.iter()).all(|(id, j)| *id == j.id)
        {
            stats.skipped_full = true;
            stats.place_reused = true;
            if prov {
                // Synthesize replay records from the untouched `out`:
                // every grant and layout was replayed verbatim.
                for job in jobs {
                    let Some(&(ps, workers, origin)) = st.row_of.get(&job.id) else {
                        continue;
                    };
                    self.tel.why_alloc(job.id.0, ps, workers, None);
                    self.tel.why_delta(
                        job.id.0,
                        DeltaWhy::Replay {
                            origin_round: origin,
                            slack: st.cert_slack,
                            term: st.cert_term.to_string(),
                        },
                    );
                    if let Some(p) = out.placements.get(job.id) {
                        self.tel
                            .why_place(job.id.0, replayed_place_why(p, ps, workers));
                    }
                }
            }
            return stats;
        }

        // --- Allocation ---
        let total_available = cluster.total_available();
        let capacity = cluster.total_capacity();
        let mut alloc_full = delta.full || delta.cluster_changed || !st.alloc_valid;
        // Why the full path ran, when it did ("": certificate failure,
        // which writes its own richer records).
        let mut full_reason = if delta.full {
            "cold"
        } else if delta.cluster_changed {
            "cluster-changed"
        } else if !st.alloc_valid {
            "alloc-invalid"
        } else {
            ""
        };
        // Per-row provenance gathered during assembly (provenance-only
        // allocation): `(replayed, origin_round, solo-climb why)`.
        let mut why_rows: Vec<(bool, u64, Option<AllocWhy>)> = Vec::new();
        if !alloc_full {
            let mut solo_evals = 0u64;
            let mut replayed = 0u64;
            st.rows_next.clear();
            for (i, job) in jobs.iter().enumerate() {
                // A clean job replays its stored row; a dirty one — or a
                // clean one unseen last round (defensive) — climbs afresh.
                let stored = if delta.dirty.binary_search(&(i as u32)).is_ok() {
                    None
                } else {
                    st.row_of.get(&job.id)
                };
                let row = match stored {
                    Some(&(ps, workers, origin)) => {
                        replayed += u64::from(ps + workers).saturating_sub(2);
                        if prov {
                            why_rows.push((true, origin, None));
                        }
                        Some((ps, workers))
                    }
                    None => {
                        let mut why = None;
                        let row = allocator.solo_climb(
                            job,
                            &total_available,
                            &capacity,
                            &mut st.cache,
                            &mut solo_evals,
                            prov.then_some(&mut why),
                        );
                        if prov {
                            why_rows.push((false, 0, why));
                        }
                        row
                    }
                };
                match row {
                    Some(row) => st.rows_next.push(row),
                    None => {
                        alloc_full = true;
                        full_reason = "climb-starved";
                        break;
                    }
                }
            }
            if !alloc_full {
                match certificate_check(jobs, |i| st.rows_next[i], &total_available) {
                    Certificate::Holds { slack, term } => {
                        out.reset();
                        for (i, job) in jobs.iter().enumerate() {
                            let (ps, workers) = st.rows_next[i];
                            out.allocations.push(Allocation {
                                job: job.id,
                                ps,
                                workers,
                            });
                        }
                        stats.replayed_grants = replayed;
                        st.alloc_valid = true;
                        st.cert_slack = slack;
                        st.cert_term = term;
                        if self.tel.is_enabled() {
                            self.tel.add("alloc.marginal_gain_evals", solo_evals);
                            self.tel.add("alloc.replayed_grants", replayed);
                        }
                        if prov {
                            for ((job, row), why) in jobs
                                .iter()
                                .zip(st.rows_next.iter())
                                .zip(why_rows.iter_mut())
                            {
                                let (ps, workers) = *row;
                                self.tel.why_alloc(job.id.0, ps, workers, why.2.take());
                                let path = if why.0 {
                                    DeltaWhy::Replay {
                                        origin_round: why.1,
                                        slack,
                                        term: term.to_string(),
                                    }
                                } else {
                                    DeltaWhy::Derive {
                                        slack,
                                        term: term.to_string(),
                                    }
                                };
                                self.tel.why_delta(job.id.0, path);
                            }
                        }
                    }
                    Certificate::Fails {
                        term,
                        used,
                        max_unit,
                        total,
                        slack,
                    } => {
                        alloc_full = true;
                        // Always counted when telemetry is on (not just
                        // with provenance): `optimus-trace` summaries
                        // report *which* term forced the fallback.
                        if self.tel.is_enabled() {
                            self.tel.incr("alloc.cert_fallbacks");
                            self.tel.incr(&format!("alloc.cert_fail.{term}"));
                        }
                        if prov {
                            for job in jobs {
                                self.tel.why_delta(
                                    job.id.0,
                                    DeltaWhy::Fallback {
                                        term: term.to_string(),
                                        used,
                                        max_unit,
                                        total,
                                        slack,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
        if alloc_full {
            stats.alloc_full = true;
            if prov && !full_reason.is_empty() {
                for job in jobs {
                    self.tel.why_delta(
                        job.id.0,
                        DeltaWhy::Precondition {
                            reason: full_reason.to_string(),
                        },
                    );
                }
            }
            out.reset();
            allocator.allocate_into(jobs, cluster, alloc_scratch, &mut out.allocations);
            // A full round's rows are per-job solo values — reusable by
            // the next delta round — exactly when it was uncontended.
            let rows = &out.allocations;
            match certificate_check(jobs, |i| (rows[i].ps, rows[i].workers), &total_available) {
                Certificate::Holds { slack, term } => {
                    st.alloc_valid = true;
                    st.cert_slack = slack;
                    st.cert_term = term;
                }
                Certificate::Fails { .. } => st.alloc_valid = false,
            }
        }
        out.rebuild_index();

        // --- Placement ---
        let empty = PlacementStore::default();
        // Prefix replay is sound only against the same cluster state.
        let use_prev = !delta.full && !delta.cluster_changed;
        let (prev_sig, prev_store): (&[PlaceSig], &PlacementStore) = if use_prev {
            (st.sig.as_slice(), &st.store)
        } else {
            (&[], &empty)
        };
        let reused = placer.place_delta(
            &out.allocations,
            jobs,
            cluster,
            place_scratch,
            prev_sig,
            prev_store,
            &mut out.placements,
        );
        stats.place_reused = reused;
        std::mem::swap(&mut st.sig, &mut place_scratch.sigs);
        if !reused {
            st.store.copy_from(&out.placements);
        }

        // --- Cross-round state refresh ---
        // `out.allocations[i]` corresponds to `jobs[i]` on both paths,
        // so `why_rows` (when present and trusted) lines up by index.
        let round = self.tel.provenance_round();
        st.ids.clear();
        st.ids.extend(jobs.iter().map(|j| j.id));
        st.row_of.clear();
        for (i, a) in out.allocations.iter().enumerate() {
            let origin = match why_rows.get(i) {
                Some(&(true, origin, _)) if !alloc_full => origin,
                _ => round,
            };
            st.row_of.insert(a.job, (a.ps, a.workers, origin));
        }
        stats
    }
}

/// The full Optimus scheduler: marginal-gain allocation + Theorem-1
/// placement. Each builder glues one allocator and one placer, which
/// serve full and delta rounds alike. The same parts boxed through
/// [`CompositeScheduler::new`] are the full-rounds oracle.
pub struct OptimusScheduler;

impl OptimusScheduler {
    /// Builds the scheduler with default parameters (priority factor 1).
    pub fn build() -> CompositeScheduler {
        Self::build_with_telemetry(Telemetry::disabled())
    }

    /// Builds with an explicit §4.1 priority factor (the paper evaluates
    /// 0.95).
    pub fn with_priority_factor(factor: f64) -> CompositeScheduler {
        CompositeScheduler::optimus(
            format!("Optimus(pf={factor})"),
            OptimusAllocator::default().with_priority_factor(factor),
            OptimusPlacer::default(),
        )
    }

    /// Builds the scheduler with one shared [`Telemetry`] handle wired
    /// through the allocator, the placer and the composite itself, so a
    /// single handle sees `alloc.*`, `placement.*` and the
    /// `sched.decision` spans of every round.
    pub fn build_with_telemetry(tel: Telemetry) -> CompositeScheduler {
        CompositeScheduler::optimus(
            "Optimus",
            OptimusAllocator::default().with_telemetry(tel.clone()),
            OptimusPlacer::default().with_telemetry(tel.clone()),
        )
        .with_telemetry(tel)
    }
}

impl Default for CompositeScheduler {
    fn default() -> Self {
        OptimusScheduler::build()
    }
}

/// The DRF fairness baseline: progressive filling + load-balancing
/// (Kubernetes-default) placement.
pub struct DrfScheduler;

impl DrfScheduler {
    /// Builds the baseline as configured in §6.1.
    pub fn build() -> CompositeScheduler {
        CompositeScheduler::new(
            "DRF",
            Box::new(DrfAllocator::default()),
            Box::new(SpreadPlacer),
        )
    }
}

/// The Tetris baseline: packing + SRTF allocation with
/// fragmentation-minimizing placement.
pub struct TetrisScheduler;

impl TetrisScheduler {
    /// Builds the baseline as configured in §6.1 (fed by Optimus's own
    /// estimators, as in the paper).
    pub fn build() -> CompositeScheduler {
        CompositeScheduler::new(
            "Tetris",
            Box::new(TetrisAllocator::default()),
            Box::new(PackPlacer),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_workload::TrainingMode;

    fn dummy_speed() -> SpeedModel {
        let mut s = SpeedModel::new(TrainingMode::Synchronous, 64.0);
        for (p, w, f) in [
            (1u32, 1u32, 0.02),
            (2, 2, 0.04),
            (4, 4, 0.07),
            (8, 8, 0.09),
            (4, 8, 0.08),
        ] {
            s.record(p, w, f);
        }
        s.refit().unwrap();
        s
    }

    fn job(id: u64) -> JobView {
        JobView {
            id: JobId(id),
            worker_profile: optimus_workload::job::default_container(),
            ps_profile: optimus_workload::job::default_container(),
            remaining_work: 10_000.0,
            speed: dummy_speed(),
            progress: 0.5,
            requested_units: 4,
        }
    }

    #[test]
    fn remaining_time_uses_speed() {
        let j = job(0);
        let t44 = j.remaining_time(4, 4);
        assert!(t44.is_finite() && t44 > 0.0);
        assert_eq!(j.remaining_time(0, 4), f64::INFINITY);
    }

    #[test]
    fn all_three_schedulers_produce_runnable_schedules() {
        let cluster = Cluster::paper_testbed();
        let jobs: Vec<JobView> = (0..3).map(job).collect();
        for sched in [
            OptimusScheduler::build(),
            DrfScheduler::build(),
            TetrisScheduler::build(),
        ] {
            let s = sched.schedule(&jobs, &cluster);
            assert!(!s.allocations().is_empty(), "{}", sched.name());
            for j in &jobs {
                assert!(
                    s.is_running(j.id),
                    "{}: {:?} not running",
                    sched.name(),
                    j.id
                );
            }
            assert!(s.total_tasks() > 0);
        }
    }

    #[test]
    fn schedule_lookup_helpers() {
        let cluster = Cluster::paper_testbed();
        let jobs = vec![job(7)];
        let s = OptimusScheduler::build().schedule(&jobs, &cluster);
        assert!(s.allocation_for(JobId(7)).is_some());
        assert!(s.allocation_for(JobId(99)).is_none());
        assert!(s.placement_for(JobId(7)).is_some());
    }

    #[test]
    fn indexed_lookup_matches_linear_scan_on_out_of_order_rows() {
        // Regression for the old O(n) `allocation_for` scan: the indexed
        // lookup must return exactly the row a linear scan would, for a
        // duplicate-free allocation vector in arbitrary (non-id) order,
        // however the schedule was built.
        let rows: Vec<Allocation> = [9u64, 2, 13, 0, 7, 4]
            .iter()
            .enumerate()
            .map(|(i, &id)| Allocation {
                job: JobId(id),
                ps: i as u32 + 1,
                workers: 2 * i as u32 + 1,
            })
            .collect();

        let built = Schedule::new(rows.clone(), HashMap::new());
        let mut pushed = Schedule::default();
        for a in &rows {
            pushed.push_allocation(*a);
        }
        for s in [&built, &pushed] {
            assert_eq!(s.allocations(), rows.as_slice());
            for a in &rows {
                let scan = rows.iter().find(|r| r.job == a.job);
                assert_eq!(s.allocation_for(a.job), scan, "{:?}", a.job);
            }
            assert_eq!(s.allocation_for(JobId(99)), None);
            assert!(!s.is_running(JobId(9)), "no placement inserted");
        }
    }
}
