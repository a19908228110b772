//! Resource allocation: Optimus' marginal-gain heuristic (§4.1) and the
//! DRF / Tetris baseline allocators (§6.1).
//!
//! Optimus solves the NP-hard program (5)–(8) greedily: every job starts
//! with one worker and one PS (starvation avoidance), then the allocator
//! repeatedly grants one task to the job whose next worker *or* PS buys
//! the largest completion-time reduction per unit of the task's dominant
//! resource, until the cluster is full or no addition helps. Gains are
//! kept in a lazy max-heap, giving `O(T log J)` for `T` granted tasks —
//! fast enough for the Fig 12 scalability target (100 k tasks in
//! seconds).

use crate::scheduler::JobView;
use optimus_cluster::{Cluster, ResourceKind, ResourceVec};
use optimus_telemetry::{AllocWhy, RunnerUp, Telemetry};
use optimus_workload::JobId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Progress fraction below which a job is still in its "beginning
/// state" (§4.1), where the allocator scales its gains by the priority
/// factor.
pub(crate) const YOUNG_PROGRESS: f64 = 0.1;

/// Task counts granted to one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// The job.
    pub job: JobId,
    /// Parameter servers granted.
    pub ps: u32,
    /// Workers granted.
    pub workers: u32,
}

impl Allocation {
    /// Total resources this allocation occupies for a job's profiles.
    pub fn demand(&self, job: &JobView) -> ResourceVec {
        job.worker_profile * self.workers as f64 + job.ps_profile * self.ps as f64
    }
}

/// A resource-allocation policy.
pub trait ResourceAllocator {
    /// Decides `(p, w)` for every job. Jobs that receive nothing get a
    /// `(0, 0)` row (they pause this interval).
    fn allocate(&self, jobs: &[JobView], cluster: &Cluster) -> Vec<Allocation>;

    /// Scratch-reusing variant for the steady-state round loop: writes
    /// the rows into `out` (cleared first) and may keep working state in
    /// `scratch` between rounds. The default delegates to
    /// [`Self::allocate`]; allocators with a hot path override it to run
    /// allocation-free once `scratch`/`out` are warm.
    fn allocate_into(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        _scratch: &mut AllocScratch,
        out: &mut Vec<Allocation>,
    ) {
        out.clear();
        out.extend(self.allocate(jobs, cluster));
    }
}

// ---------------------------------------------------------------------
// Optimus (§4.1)
// ---------------------------------------------------------------------

/// Which task type a candidate addition grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    AddWorker,
    AddPs,
}

impl Action {
    /// The task type's name in provenance records: `"worker"` or
    /// `"ps"`.
    fn label(self) -> &'static str {
        match self {
            Action::AddWorker => "worker",
            Action::AddPs => "ps",
        }
    }
}

/// Warm-started per-job prediction cache, replacing the PR-2
/// `HashMap<(p, w), f64>` memo.
///
/// The grant loop only ever asks for three points per job — the current
/// configuration and its two one-step neighbours — and only moves along
/// single-step transitions: after a grant the new `t_now` is exactly the
/// neighbour just priced, and a stale-capacity re-derivation re-asks for
/// the configuration it already holds. Three scalars per job therefore
/// capture every hit the hash memo ever had, without SipHash or
/// per-round map allocations, and the model-evaluation count (what
/// `alloc.marginal_gain_evals` reports) is identical to the memo's miss
/// count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CandCache {
    valid: bool,
    p: u32,
    w: u32,
    t_now: f64,
    t_worker: f64,
    t_ps: f64,
    /// Dominant-share resource units of one worker / one PS against the
    /// cluster capacity — both are round constants per job, so they are
    /// priced once per round instead of twice per heap pop.
    dom_worker: f64,
    dom_ps: f64,
}

impl CandCache {
    /// Brings the cache to `alloc`'s configuration. When the loop moved
    /// one step from the cached configuration, the new `t_now` is the
    /// neighbour already priced; the two new neighbours always need a
    /// model evaluation (the greedy path never revisits them).
    fn refresh(&mut self, job: &JobView, alloc: &Allocation, evals: &mut u64) {
        if self.valid && self.p == alloc.ps && self.w == alloc.workers {
            return;
        }
        let t_now = if self.valid && alloc.ps == self.p + 1 && alloc.workers == self.w {
            self.t_ps
        } else if self.valid && alloc.ps == self.p && alloc.workers == self.w + 1 {
            self.t_worker
        } else {
            *evals += 1;
            job.remaining_time(alloc.ps, alloc.workers)
        };
        *evals += 2;
        self.t_worker = job.remaining_time(alloc.ps, alloc.workers + 1);
        self.t_ps = job.remaining_time(alloc.ps + 1, alloc.workers);
        self.t_now = t_now;
        self.p = alloc.ps;
        self.w = alloc.workers;
        self.valid = true;
    }
}

/// Reusable working state for [`OptimusAllocator::allocate_into`]: the
/// lazy heap's storage, per-job generation stamps, the warm-started
/// prediction caches and the starter-order buffer all persist across
/// rounds, so a steady-state round performs no heap allocation at all.
#[derive(Debug, Default)]
pub struct AllocScratch {
    caches: Vec<CandCache>,
    versions: Vec<u32>,
    heap: BinaryHeap<Candidate>,
    /// Starter-grant order: job indices ascending by `(id, index)`.
    order: Vec<usize>,
}

impl AllocScratch {
    /// Clears per-round state, keeping every buffer's capacity.
    fn reset(&mut self, jobs: usize) {
        self.caches.clear();
        self.caches.resize(jobs, CandCache::default());
        self.versions.clear();
        self.versions.resize(jobs, 0);
        self.order.clear();
    }

    /// Total reserved capacity, for growth detection (a warm round must
    /// leave this unchanged — see the `sched.round_allocs` counter).
    pub(crate) fn footprint(&self) -> usize {
        self.caches.capacity()
            + self.versions.capacity()
            + self.heap.capacity()
            + self.order.capacity()
    }
}

/// Max-heap entry: gain of the best addition for one job. Ordered by
/// `(gain, job id)` — the id tie-break (smaller id wins among equal
/// gains) makes the pop sequence, and therefore the whole greedy grant
/// order, independent of job insertion order. Packed to 32 bytes
/// (`u32` index and generation stamp) because every sift moves it.
#[derive(Debug)]
struct Candidate {
    gain: f64,
    job: JobId,
    job_idx: u32,
    action: Action,
    version: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.gain.total_cmp(&other.gain).is_eq() && self.job == other.job
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.job.cmp(&self.job))
    }
}

/// The marginal-gain allocator of §4.1.
#[derive(Debug, Clone)]
pub struct OptimusAllocator {
    /// Gain multiplier for jobs still in their "beginning state"
    /// (progress below 10 %); the paper's default experiments use 1.0
    /// and §6.3 evaluates 0.95.
    priority_factor: f64,
    /// Telemetry sink (disabled by default): `alloc.rounds`,
    /// `alloc.marginal_gain_evals`, and per-grant decision records.
    tel: Telemetry,
}

impl Default for OptimusAllocator {
    fn default() -> Self {
        OptimusAllocator {
            priority_factor: 1.0,
            tel: Telemetry::disabled(),
        }
    }
}

impl OptimusAllocator {
    /// Sets the §4.1 priority factor (e.g. 0.95).
    pub fn with_priority_factor(mut self, factor: f64) -> Self {
        self.priority_factor = factor;
        self
    }

    /// Attaches a telemetry handle. Each `allocate` call then counts as
    /// one `alloc.rounds`, reports its marginal-gain evaluations
    /// (`alloc.marginal_gain_evals` counts prediction-cache *misses* —
    /// actual speed-model evaluations — not candidate considerations),
    /// the lazy-heap traffic (`alloc.heap_pops` pops of which
    /// `alloc.stale_skips` were discarded by generation stamp), and,
    /// with provenance on, one why-record per job explaining its grant.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }

    /// Resource units of a demand along its dominant share against the
    /// cluster capacity (§4.1's normalization denominator), or 0.0 when
    /// no dimension applies.
    fn dominant_units(demand: &ResourceVec, capacity: &ResourceVec) -> f64 {
        demand
            .dominant_share(capacity)
            .map(|(kind, _)| demand.get(kind))
            .unwrap_or(0.0)
    }

    /// Marginal gain (time reduction per unit dominant resource) of the
    /// best feasible addition for a job, if any. All remaining-time
    /// values come from the job's warm-started [`CandCache`], so a
    /// configuration already priced this round costs nothing.
    fn best_candidate(
        &self,
        job: &JobView,
        cache: &mut CandCache,
        alloc: &Allocation,
        remaining: &ResourceVec,
        evals: &mut u64,
    ) -> Option<(f64, Action)> {
        cache.refresh(job, alloc, evals);
        let t_now = cache.t_now;
        let mut best: Option<(f64, Action)> = None;

        let mut consider = |action: Action, demand: &ResourceVec, dominant: f64, t_next: f64| {
            if !demand.fits_within(remaining) {
                return;
            }
            if dominant <= 0.0 {
                return;
            }
            let reduction = if t_now.is_infinite() && t_next.is_finite() {
                // From unable-to-run to running: treat as a very large
                // but finite gain so these additions happen first.
                f64::MAX / 4.0
            } else {
                t_now - t_next
            };
            let mut gain = reduction / dominant;
            if job.progress < YOUNG_PROGRESS {
                gain *= self.priority_factor;
            }
            match best {
                Some((g, _)) if g >= gain => {}
                _ => best = Some((gain, action)),
            }
        };

        let t_worker = cache.t_worker;
        let (dom_worker, dom_ps) = (cache.dom_worker, cache.dom_ps);
        consider(Action::AddWorker, &job.worker_profile, dom_worker, t_worker);
        let t_ps = cache.t_ps;
        consider(Action::AddPs, &job.ps_profile, dom_ps, t_ps);
        best
    }

    /// One job's grant counts re-derived *independently of every other
    /// job*: start at the (1, 1) starter and climb by
    /// [`Self::best_candidate`] — the exact grant rule and the exact
    /// `gain <= 0.0` stop predicate of the full greedy loop
    /// ([`ResourceAllocator::allocate_into`]) — but
    /// with capacity checks against the round's *total* free capacity
    /// instead of the shrinking shared `remaining`.
    ///
    /// Marginal gains never read `remaining` (they are priced from the
    /// job's own model and the constant cluster capacity), so whenever
    /// the full greedy run answers every `fits_within` query
    /// affirmatively it is a prefix-interleaving of these solo chains
    /// and produces bit-identical counts. The delta-round engine proves
    /// that premise after the fact with [`certificate_check`];
    /// this returns `None` when the climb itself leaves the
    /// total-capacity envelope (the certificate would fail), sending
    /// the caller to the full path.
    ///
    /// Kept out of line: inlined into the delta round's assembly loop,
    /// its one caller, it made `sched-churn` decisions about 15 % slower.
    #[inline(never)]
    pub(crate) fn solo_climb(
        &self,
        job: &JobView,
        total_available: &ResourceVec,
        capacity: &ResourceVec,
        cache: &mut CandCache,
        evals: &mut u64,
        mut why: Option<&mut Option<AllocWhy>>,
    ) -> Option<(u32, u32)> {
        if !job.unit_demand().fits_within(total_available) {
            // The starter may have been skipped under contention; that
            // is exactly a failed capacity query, so fall back.
            return None;
        }
        *cache = CandCache::default();
        cache.dom_worker = Self::dominant_units(&job.worker_profile, capacity);
        cache.dom_ps = Self::dominant_units(&job.ps_profile, capacity);
        let mut alloc = Allocation {
            job: job.id,
            ps: 1,
            workers: 1,
        };
        loop {
            let Some((gain, action)) =
                self.best_candidate(job, cache, &alloc, total_available, evals)
            else {
                return Some((alloc.ps, alloc.workers));
            };
            if gain <= 0.0 {
                // NaN gains compare false here, exactly as in the heap
                // loop's break predicate: the climb keeps granting.
                return Some((alloc.ps, alloc.workers));
            }
            match action {
                Action::AddWorker => alloc.workers += 1,
                Action::AddPs => alloc.ps += 1,
            }
            if let Some(out) = why.as_mut() {
                // Provenance (never read back by the climb): the last
                // winning gain; a solo climb beats no rival, so
                // runners-up stay empty.
                **out = Some(AllocWhy {
                    gain,
                    action: action.label().to_string(),
                    dom_worker: cache.dom_worker,
                    dom_ps: cache.dom_ps,
                    young: job.progress < YOUNG_PROGRESS,
                    priority_factor: self.priority_factor,
                    runners_up: Vec::new(),
                });
            }
            if !alloc.demand(job).fits_within(total_available) {
                // This job alone outgrew the whole cluster (possible
                // only with degenerate models, e.g. NaN gains): the
                // certificate is guaranteed to fail, so bail now —
                // this also bounds the loop, since any non-zero
                // profile must eventually leave the envelope.
                return None;
            }
        }
    }
}

impl ResourceAllocator for OptimusAllocator {
    fn allocate(&self, jobs: &[JobView], cluster: &Cluster) -> Vec<Allocation> {
        let mut out = Vec::new();
        self.allocate_into(jobs, cluster, &mut AllocScratch::default(), &mut out);
        out
    }

    /// The full §4.1 greedy loop, writing rows into `out` and reusing
    /// `scratch` across rounds. Once both are warm this performs no heap
    /// allocation (with a disabled telemetry handle; an enabled one
    /// records a span, counters and, with provenance on, why-records,
    /// which allocate).
    fn allocate_into(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        scratch: &mut AllocScratch,
        out: &mut Vec<Allocation>,
    ) {
        let _span = self
            .tel
            .is_enabled()
            .then(|| self.tel.span("alloc.allocate"));
        self.tel.incr("alloc.rounds");
        let mut evals = 0u64;
        let mut heap_pops = 0u64;
        let mut stale_skips = 0u64;
        let capacity = cluster.total_capacity();
        let mut remaining = cluster.total_available();
        scratch.reset(jobs.len());
        out.clear();
        out.extend(jobs.iter().map(|j| Allocation {
            job: j.id,
            ps: 0,
            workers: 0,
        }));
        let allocs = out;

        // Starvation avoidance: one worker + one PS per job while space
        // lasts, in submission (job-id) order — ids are assigned at
        // submission, so this matches the paper regardless of how the
        // caller ordered the views.
        scratch.order.extend(0..jobs.len());
        if !jobs.windows(2).all(|w| w[0].id <= w[1].id) {
            scratch.order.sort_unstable_by_key(|&i| (jobs[i].id, i));
        }
        for &i in &scratch.order {
            let unit = jobs[i].unit_demand();
            if unit.fits_within(&remaining) {
                allocs[i].ps = 1;
                allocs[i].workers = 1;
                remaining -= unit;
            }
        }

        // Greedy marginal-gain loop over the lazy max-heap. The initial
        // candidates are collected into the heap's own buffer and
        // heapified in one O(n) pass instead of n sift-ups.
        let AllocScratch {
            caches,
            versions,
            heap,
            ..
        } = scratch;
        let mut buf = std::mem::take(heap).into_vec();
        buf.clear();
        for (i, job) in jobs.iter().enumerate() {
            if allocs[i].workers == 0 {
                continue; // not even the starter unit fit
            }
            let cache = &mut caches[i];
            cache.dom_worker = Self::dominant_units(&job.worker_profile, &capacity);
            cache.dom_ps = Self::dominant_units(&job.ps_profile, &capacity);
            if let Some((gain, action)) =
                self.best_candidate(job, cache, &allocs[i], &remaining, &mut evals)
            {
                buf.push(Candidate {
                    gain,
                    job: job.id,
                    job_idx: i as u32,
                    action,
                    version: 0,
                });
            }
        }
        *heap = BinaryHeap::from(buf);

        // Provenance: one slot per job, overwritten on every grant so
        // the job's *last* winning gain (the decision that fixed its
        // final count) survives. Allocated only when provenance is on,
        // so the common path stays allocation-free.
        let prov = self.tel.provenance_enabled();
        let mut why: Vec<Option<AllocWhy>> = if prov {
            vec![None; jobs.len()]
        } else {
            Vec::new()
        };

        // Each round of the loop treats the heap top in place: a grant
        // (or a stale-capacity re-derivation) overwrites the top entry
        // with the job's next candidate and lets it sift down once,
        // instead of a full pop followed by a push — the pop order, and
        // hence the grant sequence, is unchanged because the replaced
        // entry is exactly what the push would have re-inserted.
        // (Written as `loop` + inner scope rather than `while let` so
        // the provenance runner-up scan can read the heap between
        // iterations, after the `PeekMut` borrow ends.)
        loop {
            let mut winner: Option<usize> = None;
            {
                let Some(mut top) = heap.peek_mut() else {
                    break;
                };
                heap_pops += 1;
                let idx = top.job_idx as usize;
                if top.version != versions[idx] {
                    stale_skips += 1;
                    std::collections::binary_heap::PeekMut::pop(top);
                    continue; // stale
                }
                if top.gain <= 0.0 {
                    break; // max-heap ⇒ no positive gains remain
                }
                let job = &jobs[idx];
                let demand = match top.action {
                    Action::AddWorker => job.worker_profile,
                    Action::AddPs => job.ps_profile,
                };
                if !demand.fits_within(&remaining) {
                    // Capacity shrank since this entry was computed;
                    // re-derive the best feasible candidate now.
                    versions[idx] += 1;
                    if let Some((gain, action)) = self.best_candidate(
                        job,
                        &mut caches[idx],
                        &allocs[idx],
                        &remaining,
                        &mut evals,
                    ) {
                        top.gain = gain;
                        top.action = action;
                        top.version = versions[idx];
                    } else {
                        std::collections::binary_heap::PeekMut::pop(top);
                    }
                    continue;
                }
                match top.action {
                    Action::AddWorker => allocs[idx].workers += 1,
                    Action::AddPs => allocs[idx].ps += 1,
                }
                remaining -= demand;
                if prov {
                    why[idx] = Some(AllocWhy {
                        gain: top.gain,
                        action: top.action.label().to_string(),
                        dom_worker: caches[idx].dom_worker,
                        dom_ps: caches[idx].dom_ps,
                        young: job.progress < YOUNG_PROGRESS,
                        priority_factor: self.priority_factor,
                        runners_up: Vec::new(),
                    });
                    winner = Some(idx);
                }
                versions[idx] += 1;
                if let Some((gain, action)) =
                    self.best_candidate(job, &mut caches[idx], &allocs[idx], &remaining, &mut evals)
                {
                    top.gain = gain;
                    top.action = action;
                    top.version = versions[idx];
                } else {
                    std::collections::binary_heap::PeekMut::pop(top);
                }
            }
            if let Some(idx) = winner {
                // Read-only scan for the strongest live rivals the
                // grant beat. Runs between heap operations and never
                // feeds back into the loop, so the grant sequence is
                // untouched.
                let runners_up = top_runners_up(heap, versions, idx);
                if let Some(entry) = why[idx].as_mut() {
                    entry.runners_up = runners_up;
                }
            }
        }
        if prov {
            for (i, entry) in why.into_iter().enumerate() {
                self.tel
                    .why_alloc(jobs[i].id.0, allocs[i].ps, allocs[i].workers, entry);
            }
        }
        if self.tel.is_enabled() {
            // `alloc.marginal_gain_evals` counts actual speed-model
            // evaluations (cache misses), not candidate considerations.
            self.tel.add("alloc.marginal_gain_evals", evals);
            self.tel.add("alloc.heap_pops", heap_pops);
            self.tel.add("alloc.stale_skips", stale_skips);
        }
    }
}

/// Headroom certificate for the uncontended-independence theorem
/// behind delta rounds (returns [`Certificate::Holds`] exactly when it
/// holds): if, for every resource kind,
///
/// ```text
/// Σ_jobs demand_k + 2·max_unit_k + slop_k  ≤  total_available_k
/// ```
///
/// then every `fits_within` query the full greedy run would ask against
/// its shrinking `remaining` vector passes, and therefore the run
/// degenerates into an interleaving of per-job solo climbs
/// ([`OptimusAllocator::solo_climb`]) whose final counts are
/// bit-identical to the full run's.
///
/// Why: marginal gains never read `remaining` — they are priced from
/// the job's own speed model and the round-constant cluster capacity —
/// so `remaining` influences the run only through boolean `fits_within`
/// filters (starter grants and candidate feasibility). Suppose some
/// query failed; take the first. Up to that point no query failed, so
/// the run is a prefix-interleaving of solo chains and
/// `remaining_k ≥ total_k − Σ demand_k − drift_k`. Every queried demand
/// is one worker *or* one ps profile of some job, hence componentwise
/// ≤ `max_unit`; the certificate leaves `2·max_unit + slop` of headroom
/// and `slop` dominates the float drift of ~10⁴ sequential
/// subtractions (each ≤ ulp(total) ≈ total·2.2e-16), so the query
/// cannot have failed — contradiction. The factor 2 (rather than 1)
/// keeps the margin comfortable for the paired starter grant, which
/// subtracts a worker and a ps unit between queries. The lazy heap's
/// break at `top.gain ≤ 0` fires exactly when every live chain has
/// reached its solo stop (heap property: top ≤ 0 ⇒ all entries ≤ 0).
///
/// `counts` maps a view index to its final `(ps, workers)`.
/// The per-term detail beyond the verdict exists for provenance
/// ([`optimus_telemetry::DeltaWhy`] cites the binding/failing term);
/// it never feeds back into any decision.
pub(crate) fn certificate_check(
    jobs: &[JobView],
    mut counts: impl FnMut(usize) -> (u32, u32),
    total_available: &ResourceVec,
) -> Certificate {
    let mut used = [0.0f64; 4];
    let mut max_unit = [0.0f64; 4];
    for (i, job) in jobs.iter().enumerate() {
        let (ps, workers) = counts(i);
        for (k, kind) in ResourceKind::ALL.iter().enumerate() {
            let w = job.worker_profile.get(*kind);
            let p = job.ps_profile.get(*kind);
            used[k] += w * f64::from(workers) + p * f64::from(ps);
            max_unit[k] = max_unit[k].max(w).max(p);
        }
    }
    let mut min_slack = f64::MAX;
    let mut min_term = "none";
    for (k, kind) in ResourceKind::ALL.iter().enumerate() {
        // A resource no profile touches (e.g. GPU on a CPU-only mix)
        // cannot constrain any climb or fits query: exempt it, or a
        // zero-capacity kind would fail on slop alone. NaNs in a
        // profile make `used` NaN and fall through to the check below.
        if used[k] == 0.0 && max_unit[k] == 0.0 {
            continue;
        }
        let total = total_available.get(*kind);
        let slop = total.abs() * 1e-9 + 1e-9;
        let lhs = used[k] + 2.0 * max_unit[k] + slop;
        // Written so that a NaN anywhere fails the certificate.
        let holds = lhs <= total;
        if !holds {
            return Certificate::Fails {
                term: kind_label(*kind),
                used: used[k],
                max_unit: max_unit[k],
                total,
                // Exactly-rounded subtraction keeps the sign of the
                // true difference, so a failing term always reports
                // slack ≤ 0 (or NaN).
                slack: total - lhs,
            };
        }
        let slack = total - lhs;
        if slack < min_slack {
            min_slack = slack;
            min_term = kind_label(*kind);
        }
    }
    Certificate::Holds {
        slack: min_slack,
        term: min_term,
    }
}

/// The outcome of one [`certificate_check`], with the term that
/// decided it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Certificate {
    /// Every applicable term held; `slack` / `term` describe the
    /// *binding* (smallest-slack) kind. `slack` is `f64::MAX` when no
    /// kind applied at all.
    Holds {
        /// Headroom of the binding term: `total − (used + 2·max_unit
        /// + slop)`.
        slack: f64,
        /// The binding term's resource kind label (`"none"` when no
        /// kind applied).
        term: &'static str,
    },
    /// The first failing term, with its full inputs.
    Fails {
        /// The failing term's resource kind label.
        term: &'static str,
        /// Resources the candidate rows use on that kind.
        used: f64,
        /// Largest single-task demand on that kind.
        max_unit: f64,
        /// Cluster total on that kind.
        total: f64,
        /// The (non-positive or NaN) slack.
        slack: f64,
    },
}

/// Stable label for a certificate term's resource kind.
pub(crate) fn kind_label(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Cpu => "cpu",
        ResourceKind::Gpu => "gpu",
        ResourceKind::MemoryGb => "mem_gb",
        ResourceKind::BandwidthGbps => "bandwidth_gbps",
    }
}

/// The strongest live rivals the winning grant beat, best first:
/// heap entries whose generation stamp is current, excluding the
/// winner's own (freshly re-derived) entry and non-positive gains.
fn top_runners_up(
    heap: &BinaryHeap<Candidate>,
    versions: &[u32],
    winner_idx: usize,
) -> Vec<RunnerUp> {
    use optimus_telemetry::provenance::TOP_RUNNERS_UP;
    let mut best: Vec<&Candidate> = Vec::with_capacity(TOP_RUNNERS_UP + 1);
    for c in heap.iter() {
        let idx = c.job_idx as usize;
        if idx == winner_idx || c.version != versions[idx] || c.gain <= 0.0 {
            continue;
        }
        let pos = best.partition_point(|b| (*b).cmp(c) == Ordering::Greater);
        if pos < TOP_RUNNERS_UP {
            best.insert(pos, c);
            best.truncate(TOP_RUNNERS_UP);
        }
    }
    best.iter()
        .map(|c| RunnerUp {
            job: c.job.0,
            gain: c.gain,
            action: c.action.label().to_string(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// DRF baseline (§6.1)
// ---------------------------------------------------------------------

/// Dominant Resource Fairness via progressive filling, with the paper's
/// 1:1 ps:worker task pairs. Work-conserving by default — the paper:
/// "DRF is work-conserving and allocates as many resources to a job as
/// possible" — but bounded at `max_request_multiple ×` each job's
/// request (a real resource manager will not inflate a job two orders
/// of magnitude past what it asked for).
#[derive(Debug, Clone)]
pub struct DrfAllocator {
    /// When true, stop granting a job units once it reaches its
    /// `requested_units` exactly.
    pub respect_requests: bool,
    /// Work-conservation bound: a job never receives more than this
    /// multiple of its request.
    pub max_request_multiple: u32,
}

impl Default for DrfAllocator {
    fn default() -> Self {
        DrfAllocator {
            respect_requests: false,
            max_request_multiple: 4,
        }
    }
}

impl ResourceAllocator for DrfAllocator {
    fn allocate(&self, jobs: &[JobView], cluster: &Cluster) -> Vec<Allocation> {
        let capacity = cluster.total_capacity();
        let mut remaining = cluster.total_available();
        let mut allocs: Vec<Allocation> = jobs
            .iter()
            .map(|j| Allocation {
                job: j.id,
                ps: 0,
                workers: 0,
            })
            .collect();
        let mut shares = vec![0.0f64; jobs.len()];
        let mut blocked = vec![false; jobs.len()];

        loop {
            // Progressive filling: lowest dominant share first.
            let next = (0..jobs.len())
                .filter(|&i| !blocked[i])
                .min_by(|&a, &b| shares[a].total_cmp(&shares[b]));
            let Some(i) = next else { break };
            let job = &jobs[i];
            let cap = if self.respect_requests {
                job.requested_units
            } else {
                job.requested_units
                    .saturating_mul(self.max_request_multiple)
            };
            if allocs[i].workers >= cap.max(1) {
                blocked[i] = true;
                continue;
            }
            let unit = job.unit_demand();
            if !unit.fits_within(&remaining) {
                blocked[i] = true;
                continue;
            }
            allocs[i].ps += 1;
            allocs[i].workers += 1;
            remaining -= unit;
            let usage = allocs[i].demand(job);
            shares[i] = usage
                .dominant_share(&capacity)
                .map(|(_, s)| s)
                .unwrap_or(f64::INFINITY);
        }
        allocs
    }
}

// ---------------------------------------------------------------------
// FIFO baseline (§2.3)
// ---------------------------------------------------------------------

/// First-in-first-out allocation (the Spark-style default the paper
/// cites in §2.3): jobs receive their full fixed request in submission
/// order; once a request no longer fits, later jobs wait — the classic
/// head-of-line blocking that size-aware schedulers avoid.
#[derive(Debug, Clone, Default)]
pub struct FifoAllocator;

impl ResourceAllocator for FifoAllocator {
    fn allocate(&self, jobs: &[JobView], cluster: &Cluster) -> Vec<Allocation> {
        let mut remaining = cluster.total_available();
        let mut allocs: Vec<Allocation> = jobs
            .iter()
            .map(|j| Allocation {
                job: j.id,
                ps: 0,
                workers: 0,
            })
            .collect();
        // JobIds are assigned in submission order.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| jobs[i].id);
        for i in order {
            let job = &jobs[i];
            let unit = job.unit_demand();
            for _ in 0..job.requested_units.max(1) {
                if !unit.fits_within(&remaining) {
                    break;
                }
                allocs[i].ps += 1;
                allocs[i].workers += 1;
                remaining -= unit;
            }
            if allocs[i].workers == 0 {
                // Head-of-line blocking: FIFO does not skip ahead.
                break;
            }
        }
        allocs
    }
}

// ---------------------------------------------------------------------
// Tetris baseline (§6.1)
// ---------------------------------------------------------------------

/// Tetris-style allocation: grant 1:1 task pairs one at a time to the
/// job with the best combined packing-alignment and
/// shortest-remaining-time score, up to each job's requested units (the
/// paper feeds Tetris its duration estimates from Optimus' own models).
#[derive(Debug, Clone)]
pub struct TetrisAllocator {
    /// Relative weight of the SRTF term against the packing term
    /// (Tetris' recommended equal weighting after normalization).
    pub srtf_weight: f64,
    /// Work-conserving backfill bound, as a multiple of each job's
    /// request (see [`DrfAllocator::max_request_multiple`]).
    pub max_request_multiple: u32,
}

impl Default for TetrisAllocator {
    fn default() -> Self {
        TetrisAllocator {
            srtf_weight: 1.0,
            max_request_multiple: 4,
        }
    }
}

impl ResourceAllocator for TetrisAllocator {
    fn allocate(&self, jobs: &[JobView], cluster: &Cluster) -> Vec<Allocation> {
        let mut remaining = cluster.total_available();
        let mut allocs: Vec<Allocation> = jobs
            .iter()
            .map(|j| Allocation {
                job: j.id,
                ps: 0,
                workers: 0,
            })
            .collect();

        // Remaining-time estimate at the requested configuration, from
        // the Optimus estimators (∞ when the model predicts no speed).
        let durations: Vec<f64> = jobs
            .iter()
            .map(|j| j.remaining_time(j.requested_units.max(1), j.requested_units.max(1)))
            .collect();
        let min_finite = durations
            .iter()
            .cloned()
            .filter(|d| d.is_finite() && *d > 0.0)
            .fold(f64::INFINITY, f64::min);

        // Phase 1: grant by packing + SRTF score up to each job's
        // request. The SRTF term is the *ratio* of the shortest job's
        // remaining time to this job's (1 for the shortest, →0 for very
        // long jobs), so it stays discriminative even when one job
        // dwarfs the rest; ties break toward shorter duration, then id.
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (i, job) in jobs.iter().enumerate() {
                if allocs[i].workers >= job.requested_units {
                    continue;
                }
                let unit = job.unit_demand();
                if !unit.fits_within(&remaining) {
                    continue;
                }
                // Packing score: alignment of the unit's demand with the
                // remaining cluster resources, normalized.
                let align =
                    unit.alignment(&remaining) / (unit.norm() * remaining.norm()).max(1e-12);
                // SRTF score: shorter jobs first.
                let d = durations[i];
                let srtf = if d.is_finite() && d > 0.0 && min_finite.is_finite() {
                    (min_finite / d).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let score = align + self.srtf_weight * srtf;
                let better = match best {
                    None => true,
                    Some((j, s)) => {
                        score > s + 1e-12
                            || ((score - s).abs() <= 1e-12
                                && durations[i].total_cmp(&durations[j]).is_lt())
                    }
                };
                if better {
                    best = Some((i, score));
                }
            }
            let Some((i, _)) = best else { break };
            allocs[i].ps += 1;
            allocs[i].workers += 1;
            remaining -= jobs[i].unit_demand();
        }
        // Phase 2: work-conserving backfill, fewest units first — an
        // idle cluster tail would otherwise serialize the long jobs —
        // bounded at the request multiple.
        loop {
            let next = (0..jobs.len())
                .filter(|&i| {
                    let cap = jobs[i]
                        .requested_units
                        .saturating_mul(self.max_request_multiple)
                        .max(1);
                    allocs[i].workers < cap && jobs[i].unit_demand().fits_within(&remaining)
                })
                .min_by_key(|&i| allocs[i].workers);
            let Some(i) = next else { break };
            allocs[i].ps += 1;
            allocs[i].workers += 1;
            remaining -= jobs[i].unit_demand();
        }
        allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::SpeedModel;
    use optimus_ps::PsJobModel;
    use optimus_workload::{ModelKind, TrainingMode};

    /// A JobView whose speed model is fit from the ground truth of the
    /// given model kind.
    fn make_job(id: u64, kind: ModelKind, remaining: f64, progress: f64) -> JobView {
        let profile = kind.profile();
        let truth = PsJobModel::new(profile, TrainingMode::Synchronous);
        let mut speed = SpeedModel::new(TrainingMode::Synchronous, profile.batch_size as f64);
        for (p, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4), (12, 6)] {
            speed.record(p, w, truth.speed(p, w));
        }
        speed.refit().unwrap();
        JobView {
            id: JobId(id),
            worker_profile: optimus_workload::job::default_container(),
            ps_profile: optimus_workload::job::default_container(),
            remaining_work: remaining,
            speed,
            progress,
            requested_units: 6,
        }
    }

    fn total_demand(allocs: &[Allocation], jobs: &[JobView]) -> ResourceVec {
        allocs
            .iter()
            .zip(jobs.iter())
            .fold(ResourceVec::zero(), |acc, (a, j)| acc + a.demand(j))
    }

    #[test]
    fn optimus_respects_capacity() {
        let cluster = Cluster::paper_testbed();
        let jobs: Vec<JobView> = (0..6)
            .map(|i| make_job(i, ModelKind::ResNet50, 10_000.0, 0.5))
            .collect();
        let allocs = OptimusAllocator::default().allocate(&jobs, &cluster);
        let used = total_demand(&allocs, &jobs);
        assert!(used.fits_within(&cluster.total_capacity()));
        // Everyone got at least the starter unit on this big cluster.
        assert!(allocs.iter().all(|a| a.ps >= 1 && a.workers >= 1));
    }

    #[test]
    fn optimus_gives_more_to_jobs_with_more_remaining_work() {
        // Two identical jobs, one with 10× the remaining work: the
        // marginal gain of speeding up the long job is larger, so it
        // must receive at least as many tasks.
        let cluster = Cluster::paper_testbed();
        let jobs = vec![
            make_job(0, ModelKind::ResNet50, 50_000.0, 0.5),
            make_job(1, ModelKind::ResNet50, 5_000.0, 0.5),
        ];
        let allocs = OptimusAllocator::default().allocate(&jobs, &cluster);
        let tasks = |a: &Allocation| a.ps + a.workers;
        assert!(
            tasks(&allocs[0]) >= tasks(&allocs[1]),
            "long job {:?} vs short job {:?}",
            allocs[0],
            allocs[1]
        );
    }

    #[test]
    fn optimus_stops_at_diminishing_returns() {
        // A single sync job on a huge cluster: Optimus must stop adding
        // tasks once gains go non-positive, long before the cluster is
        // exhausted (more workers eventually slow sync training, §3.2).
        let cluster = Cluster::homogeneous(100, ResourceVec::new(64.0, 0.0, 256.0, 10.0));
        let jobs = vec![make_job(0, ModelKind::ResNet50, 10_000.0, 0.5)];
        let allocs = OptimusAllocator::default().allocate(&jobs, &cluster);
        let total_tasks = allocs[0].ps + allocs[0].workers;
        let max_units = (cluster
            .total_capacity()
            .get(optimus_cluster::ResourceKind::Cpu)
            / 5.0) as u32;
        assert!(
            total_tasks < max_units / 2,
            "Optimus used {total_tasks} of {max_units} possible tasks"
        );
        assert!(total_tasks >= 2);
    }

    #[test]
    fn priority_factor_damps_young_jobs() {
        let cluster = Cluster::paper_testbed();
        // Identical jobs; job 1 is young.
        let mut jobs = vec![
            make_job(0, ModelKind::ResNet50, 10_000.0, 0.5),
            make_job(1, ModelKind::ResNet50, 10_000.0, 0.01),
        ];
        jobs[1].progress = 0.01;
        let allocs = OptimusAllocator::default()
            .with_priority_factor(0.5) // exaggerated for test visibility
            .allocate(&jobs, &cluster);
        let tasks = |a: &Allocation| a.ps + a.workers;
        assert!(tasks(&allocs[0]) >= tasks(&allocs[1]));
    }

    #[test]
    fn drf_equalizes_dominant_shares() {
        let cluster = Cluster::paper_testbed();
        let jobs: Vec<JobView> = (0..4)
            .map(|i| make_job(i, ModelKind::Seq2Seq, 10_000.0, 0.5))
            .collect();
        let allocs = DrfAllocator::default().allocate(&jobs, &cluster);
        // Identical jobs ⇒ equal units (within one).
        let units: Vec<u32> = allocs.iter().map(|a| a.workers).collect();
        let max = units.iter().max().unwrap();
        let min = units.iter().min().unwrap();
        assert!(max - min <= 1, "units {units:?}");
        // Work-conserving: the cluster is essentially full.
        let used = total_demand(&allocs, &jobs);
        let cap = cluster.total_capacity();
        assert!(
            used.get(optimus_cluster::ResourceKind::Cpu)
                > 0.85 * cap.get(optimus_cluster::ResourceKind::Cpu),
            "DRF should fill the cluster: used {used}"
        );
    }

    #[test]
    fn drf_respects_requests_when_asked() {
        let cluster = Cluster::paper_testbed();
        let jobs: Vec<JobView> = (0..2)
            .map(|i| make_job(i, ModelKind::Seq2Seq, 10_000.0, 0.5))
            .collect();
        let allocs = DrfAllocator {
            respect_requests: true,
            ..DrfAllocator::default()
        }
        .allocate(&jobs, &cluster);
        assert!(allocs.iter().all(|a| a.workers <= 6));
    }

    #[test]
    fn tetris_prefers_short_jobs() {
        // A small cluster that fits only one job's full request: the
        // short job must win it.
        let cluster = Cluster::homogeneous(1, ResourceVec::new(65.0, 0.0, 260.0, 10.0));
        let jobs = vec![
            make_job(0, ModelKind::ResNet50, 100_000.0, 0.5), // long
            make_job(1, ModelKind::ResNet50, 1_000.0, 0.5),   // short
        ];
        let allocs = TetrisAllocator::default().allocate(&jobs, &cluster);
        assert!(
            allocs[1].workers > allocs[0].workers,
            "short {:?} long {:?}",
            allocs[1],
            allocs[0]
        );
    }

    #[test]
    fn tetris_meets_requests_then_backfills() {
        // Requests are met first; leftover capacity is backfilled (work
        // conservation), so a lone job on a big cluster gets ≥ request.
        let cluster = Cluster::paper_testbed();
        let jobs = vec![make_job(0, ModelKind::CnnRand, 100.0, 0.5)];
        let allocs = TetrisAllocator::default().allocate(&jobs, &cluster);
        assert!(allocs[0].workers >= 6, "{:?}", allocs[0]);
        assert_eq!(allocs[0].ps, allocs[0].workers, "1:1 task pairs");

        // Under contention the request cap binds before backfill: two
        // jobs on a cluster fitting exactly 12 units → both at request.
        let tight = Cluster::homogeneous(1, ResourceVec::new(121.0, 0.0, 250.0, 6.0));
        let jobs = vec![
            make_job(0, ModelKind::CnnRand, 100.0, 0.5),
            make_job(1, ModelKind::CnnRand, 100_000.0, 0.5),
        ];
        let allocs = TetrisAllocator::default().allocate(&jobs, &tight);
        assert!(allocs[0].workers >= allocs[1].workers, "short job first");
    }

    #[test]
    fn fifo_blocks_head_of_line() {
        // Room for ~2 full requests: job 0 and 1 get theirs, job 2 gets
        // nothing even though a smaller grant would fit — FIFO does not
        // skip ahead.
        let cluster = Cluster::homogeneous(1, ResourceVec::new(125.0, 0.0, 500.0, 10.0));
        let jobs: Vec<JobView> = (0..3)
            .map(|i| make_job(i, ModelKind::Seq2Seq, 10_000.0, 0.5))
            .collect();
        let allocs = FifoAllocator.allocate(&jobs, &cluster);
        assert_eq!(allocs[0].workers, 6);
        assert_eq!(allocs[1].workers, 6);
        assert!(allocs[2].workers < 6, "{:?}", allocs[2]);
    }

    #[test]
    fn fifo_orders_by_submission() {
        let cluster = Cluster::homogeneous(1, ResourceVec::new(65.0, 0.0, 260.0, 4.0));
        // Views arrive out of id order; FIFO must still favor JobId(0).
        let jobs = vec![
            make_job(5, ModelKind::Seq2Seq, 10.0, 0.9),
            make_job(0, ModelKind::Seq2Seq, 10_000.0, 0.1),
        ];
        let allocs = FifoAllocator.allocate(&jobs, &cluster);
        let by_id = |id: u64| allocs.iter().find(|a| a.job == JobId(id)).unwrap();
        assert!(by_id(0).workers >= by_id(5).workers);
    }

    #[test]
    fn empty_inputs() {
        let cluster = Cluster::paper_testbed();
        assert!(OptimusAllocator::default()
            .allocate(&[], &cluster)
            .is_empty());
        assert!(DrfAllocator::default().allocate(&[], &cluster).is_empty());
        assert!(TetrisAllocator::default()
            .allocate(&[], &cluster)
            .is_empty());
    }

    #[test]
    fn overloaded_cluster_pauses_latecomers() {
        // A cluster that fits exactly two starter units: jobs 2+ get
        // nothing.
        let cluster = Cluster::homogeneous(1, ResourceVec::new(20.0, 0.0, 40.0, 2.0));
        let jobs: Vec<JobView> = (0..4)
            .map(|i| make_job(i, ModelKind::ResNet50, 10_000.0, 0.5))
            .collect();
        let allocs = OptimusAllocator::default().allocate(&jobs, &cluster);
        assert_eq!(allocs[0].workers, 1);
        assert_eq!(allocs[1].workers, 1);
        assert_eq!(allocs[2].workers, 0);
        assert_eq!(allocs[3].workers, 0);
    }
}
