//! Task placement (§4.2) and the baseline placers.
//!
//! Theorem 1: for a synchronous job in a homogeneous cluster, the
//! speed-optimal placement uses the *fewest* servers that can host the
//! job, with PS and workers spread *evenly* across them. Optimus'
//! placer applies the induced heuristic to every job: sort servers by
//! free capacity, jobs smallest-first (anti-starvation), and for each
//! job find the smallest prefix of servers that fits an even spread.
//!
//! The baselines place the way their schedulers do in the paper's
//! testbed: [`SpreadPlacer`] imitates Kubernetes' default load-balancing
//! spreading (DRF baseline), [`PackPlacer`] imitates Tetris'
//! fragmentation-minimizing packing.

use crate::allocation::Allocation;
use crate::scheduler::{JobPlacement, JobView};
use optimus_cluster::{Cluster, ResourceKind, ResourceVec, ServerId};
use optimus_ps::TaskCounts;
use optimus_telemetry::provenance::MAX_REJECTIONS;
use optimus_telemetry::{PlaceReject, PlaceWhy, Telemetry, TraceEvent};
use optimus_workload::JobId;
use std::collections::HashMap;

/// Per-job provenance collector for the probe/shrink loop: every
/// rejected candidate, tagged by reason. Disabled it records nothing,
/// so the hot path pays one predictable branch per rejection.
#[derive(Debug, Default)]
struct RejectLog {
    enabled: bool,
    total: u64,
    rejected: Vec<PlaceReject>,
}

impl RejectLog {
    fn reset(&mut self) {
        self.total = 0;
        self.rejected.clear();
    }

    fn push(&mut self, reject: PlaceReject) {
        if !self.enabled {
            return;
        }
        self.total += 1;
        if self.rejected.len() < MAX_REJECTIONS {
            self.rejected.push(reject);
        }
    }
}

/// Synthesizes the placement side of a replayed decision from a stored
/// layout: nothing was re-packed, so there are no rejections to report.
pub(crate) fn replayed_place_why(
    placement: &[(ServerId, TaskCounts)],
    alloc_ps: u32,
    alloc_w: u32,
) -> PlaceWhy {
    let ps: u32 = placement.iter().map(|(_, c)| c.ps).sum();
    let workers: u32 = placement.iter().map(|(_, c)| c.workers).sum();
    PlaceWhy {
        ps,
        workers,
        servers: placement.len() as u64,
        shrunk: (alloc_ps + alloc_w).saturating_sub(ps + workers),
        replayed: true,
        rejections: 0,
        rejected: Vec::new(),
    }
}

/// One-multiply hasher for `JobId` keys. Job ids are sequential small
/// integers, so a Fibonacci-multiply spread gives collision-free
/// buckets at a fraction of SipHash's cost; the scheduling hot path
/// rebuilds its id → row maps every round, making their hashing cost a
/// per-round tax. Only maps private to this crate use it.
#[derive(Default)]
pub(crate) struct JobIdHasher(u64);

impl std::hash::Hasher for JobIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `JobId`'s derived `Hash` hashes its `u64` via `write_u64`;
        // nothing else reaches these maps, but stay correct anyway.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

pub(crate) type JobIdBuildHasher = std::hash::BuildHasherDefault<JobIdHasher>;

/// Arena-backed placement map: one flat `(server, counts)` arena plus a
/// job-id → span table. Clearing keeps both the arena's and the table's
/// capacity, so steady-state rounds rebuild placements without a single
/// heap allocation — unlike the former `HashMap<JobId, Vec<…>>`, which
/// re-allocated one `Vec` per placed job per round.
#[derive(Debug, Clone, Default)]
pub struct PlacementStore {
    arena: Vec<(ServerId, TaskCounts)>,
    /// Job id → `(start, end)` span into `arena` (last insert wins).
    spans: HashMap<JobId, (u32, u32), JobIdBuildHasher>,
    /// Start offset of the span currently being built, if any.
    open: Option<(JobId, u32)>,
}

impl PlacementStore {
    /// Drops all placements, keeping capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.spans.clear();
        self.open = None;
    }

    /// Number of placed jobs.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no job is placed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Starts a new span for `id`; pair with [`Self::commit_span`].
    pub(crate) fn begin_span(&mut self, id: JobId) {
        self.open = Some((id, self.arena.len() as u32));
    }

    /// Appends one server's task counts to the open span.
    pub(crate) fn push_task(&mut self, sid: ServerId, counts: TaskCounts) {
        debug_assert!(self.open.is_some(), "push_task outside a span");
        self.arena.push((sid, counts));
    }

    /// Closes the open span and records it for its job.
    pub(crate) fn commit_span(&mut self) {
        let (id, start) = self.open.take().expect("commit_span without begin_span");
        self.spans.insert(id, (start, self.arena.len() as u32));
    }

    /// Inserts (or replaces) a job's placement wholesale.
    pub fn insert(&mut self, id: JobId, placement: &[(ServerId, TaskCounts)]) {
        self.begin_span(id);
        self.arena.extend_from_slice(placement);
        self.commit_span();
    }

    /// The placement of one job, if it was placed.
    pub fn get(&self, id: JobId) -> Option<&[(ServerId, TaskCounts)]> {
        self.spans
            .get(&id)
            .map(|&(s, e)| &self.arena[s as usize..e as usize])
    }

    /// True when the job has a placement.
    pub fn contains(&self, id: JobId) -> bool {
        self.spans.contains_key(&id)
    }

    /// Iterates `(job, placement)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &[(ServerId, TaskCounts)])> {
        self.spans
            .iter()
            .map(move |(&id, &(s, e))| (id, &self.arena[s as usize..e as usize]))
    }

    /// Copies the placements out into the map form of [`TaskPlacer::place`].
    pub fn to_map(&self) -> HashMap<JobId, JobPlacement> {
        self.iter().map(|(id, p)| (id, p.to_vec())).collect()
    }

    /// Total reserved capacity, for growth detection.
    pub(crate) fn footprint(&self) -> usize {
        self.arena.capacity() + self.spans.capacity()
    }

    /// Makes `self` an exact copy of `other`, keeping `self`'s buffer
    /// capacity (the delta round's store round-trip).
    pub(crate) fn copy_from(&mut self, other: &Self) {
        if other.is_empty() {
            // `clone_from` an unallocated map would free `self`'s table.
            self.clear();
            return;
        }
        self.arena.clone_from(&other.arena);
        self.spans.clone_from(&other.spans);
        self.open = None;
    }
}

/// Order-independent equality: same jobs, same per-job placements.
impl PartialEq for PlacementStore {
    fn eq(&self, other: &Self) -> bool {
        self.spans.len() == other.spans.len() && self.iter().all(|(id, p)| other.get(id) == Some(p))
    }
}
impl Eq for PlacementStore {}

impl FromIterator<(JobId, JobPlacement)> for PlacementStore {
    fn from_iter<T: IntoIterator<Item = (JobId, JobPlacement)>>(iter: T) -> Self {
        let mut store = PlacementStore::default();
        for (id, p) in iter {
            store.insert(id, &p);
        }
        store
    }
}

/// Reusable working state for the Optimus placer, full and delta
/// passes alike: the incremental `FreeIndex`, the per-job packing
/// buffers, the smallest-first order and the round's placement
/// signatures all persist across rounds.
#[derive(Debug, Default)]
pub struct PlaceScratch {
    index: FreeIndex,
    chosen: Vec<ServerId>,
    counts: Vec<TaskCounts>,
    bal: BalanceBufs,
    order: Vec<usize>,
    norms: Vec<f64>,
    /// This round's ordered [`PlaceSig`]s; a delta round swaps them into
    /// its cross-round state as the next round's `prev_sig`.
    pub(crate) sigs: Vec<PlaceSig>,
}

/// The near-even fallback's working set: per-attempt availability
/// copies and the sorted deal keys (see
/// [`OptimusPlacer::balanced_counts`]).
#[derive(Debug, Default)]
struct BalanceBufs {
    avail: Vec<ResourceVec>,
    deal: Vec<u128>,
}

/// Proof summary of a failed [`OptimusPlacer::balanced_counts`]
/// attempt, per demand kind (0 = colocated pair, 1 = lone PS, 2 = lone
/// worker): whether any deal of that kind found no server, and the
/// minimum pre-deal free CPU among that kind's winners. A probe on one
/// more server replays the failed attempt's exact trajectory — and
/// fails the same way — unless the added server *deviates*: it fits a
/// kind that failed outright, or fits one and ties/beats its weakest
/// recorded winner (ties go to the added server, which holds the
/// highest deal index). Those are exactly the per-kind aggregates, so
/// the full event list never needs recording (see the window loop in
/// [`OptimusPlacer::place_job`]).
#[derive(Debug, Clone, Copy)]
struct DealLog {
    fail: [bool; 3],
    min_cpu: [f64; 3],
}

impl Default for DealLog {
    fn default() -> Self {
        DealLog {
            fail: [false; 3],
            min_cpu: [f64::INFINITY; 3],
        }
    }
}

impl DealLog {
    fn reset(&mut self) {
        *self = DealLog {
            fail: [false; 3],
            min_cpu: [f64::INFINITY; 3],
        };
    }

    /// Would a server with these fits and this free CPU change the
    /// recorded trajectory?
    fn deviates(&self, fits: [bool; 3], cpu: f64) -> bool {
        (0..3).any(|d| fits[d] && (self.fail[d] || cpu >= self.min_cpu[d]))
    }
}

/// Packs a deal entry — `(remaining CPU, local server index)` — into one
/// integer whose natural order is `(cpu by total_cmp, index)`: the upper
/// bits are the CPU's order-preserving bit mapping (exactly
/// `f64::total_cmp`'s), the low 32 the index. The deal array stays
/// sorted descending on this key, so its reposition binary search
/// compares plain integers within one contiguous array instead of
/// chasing every probe through `avail`.
#[inline]
fn deal_key(cpu: f64, idx: u32) -> u128 {
    let mut b = cpu.to_bits() as i64;
    b ^= (((b >> 63) as u64) >> 1) as i64;
    let mono = (b as u64) ^ (1 << 63);
    ((mono as u128) << 32) | idx as u128
}

impl PlaceScratch {
    /// Total reserved capacity, for growth detection.
    pub(crate) fn footprint(&self) -> usize {
        self.index.footprint()
            + self.chosen.capacity()
            + self.counts.capacity()
            + self.bal.avail.capacity()
            + self.order.capacity()
            + self.bal.deal.capacity()
            + self.norms.capacity()
            + self.sigs.capacity()
    }
}

/// A task-placement policy.
pub trait TaskPlacer {
    /// Maps allocated jobs to concrete per-server task counts. Jobs that
    /// cannot be placed are omitted (they pause this interval, §4.2).
    ///
    /// Placement is computed against the cluster's *free* capacity; the
    /// caller is responsible for the cluster reflecting any resources
    /// that are genuinely unavailable.
    fn place(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
    ) -> HashMap<JobId, JobPlacement>;

    /// Scratch-reusing variant for the steady-state round loop: writes
    /// placements into `out` (cleared first) and may keep working state
    /// in `scratch` between rounds. The default delegates to
    /// [`Self::place`]; placers with a hot path override it to run
    /// allocation-free once `scratch`/`out` are warm.
    fn place_into(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
        _scratch: &mut PlaceScratch,
        out: &mut PlacementStore,
    ) {
        out.clear();
        for (id, p) in self.place(allocations, jobs, cluster) {
            out.insert(id, &p);
        }
    }
}

/// Orders job indices smallest-demand-first (§4.2: "we place jobs in
/// increasing order of their resource demand ... to avoid job
/// starvation") into a caller-owned buffer. `(norm, id)` is a total
/// order for unique ids, so the unstable sort is deterministic.
pub(crate) fn smallest_first_into(
    allocations: &[Allocation],
    jobs: &[JobView],
    order: &mut Vec<usize>,
    norms: &mut Vec<f64>,
) {
    order.clear();
    order.extend(
        (0..allocations.len()).filter(|&i| allocations[i].ps > 0 && allocations[i].workers > 0),
    );
    // Each demand norm is priced once up front; the comparator reads
    // cached keys instead of recomputing the norm O(n log n) times.
    norms.clear();
    norms.resize(allocations.len(), 0.0);
    for &i in order.iter() {
        norms[i] = allocations[i].demand(&jobs[i]).norm();
    }
    order.sort_unstable_by(|&a, &b| {
        norms[a]
            .total_cmp(&norms[b])
            .then(jobs[a].id.cmp(&jobs[b].id))
    });
}

/// Allocating wrapper around [`smallest_first_into`].
pub(crate) fn smallest_first(allocations: &[Allocation], jobs: &[JobView]) -> Vec<usize> {
    let mut order = Vec::new();
    smallest_first_into(allocations, jobs, &mut order, &mut Vec::new());
    order
}

// ---------------------------------------------------------------------
// Optimus placer (§4.2, Theorem 1)
// ---------------------------------------------------------------------

/// Incremental free-capacity index: the placer's view of per-server
/// free resources, kept sorted by free CPU (descending, server id as
/// the tie-break) *incrementally*. A committed placement repositions
/// only the ≤k servers it touched (binary search + splice) instead of
/// re-sorting all servers per job, and no `Cluster` clone is needed —
/// a scheduling round is O(tasks-placed × log servers) in comparisons
/// rather than O(jobs × servers log servers).
///
/// Bookkeeping mirrors [`optimus_cluster::Server`] exactly
/// (`alloc += demand; free = cap.saturating_sub(alloc)`) so the free
/// values — and therefore every placement decision — are bit-identical
/// to the former clone-and-re-sort implementation.
#[derive(Debug, Default)]
struct FreeIndex {
    cap: Vec<ResourceVec>,
    alloc: Vec<ResourceVec>,
    free: Vec<ResourceVec>,
    /// [`server_key`]s sorted descending — i.e. servers by (free CPU
    /// desc, id asc), a total order since ids are unique. The key packs
    /// the server id in its low bits ([`key_server`] recovers it), so
    /// this one integer array *is* the order: binary searches and
    /// repositions touch a single contiguous array and nothing else
    /// needs to stay in sync.
    keys: Vec<u128>,
    /// Number of incremental repositions (→ `placement.index_updates`).
    updates: u64,
    /// The free vector the last rebuild sorted, and the keys it
    /// produced. The order depends only on the free values, and across
    /// steady-state rounds the cluster is usually unchanged — one slice
    /// equality check then replaces the full re-sort.
    sorted_free: Vec<ResourceVec>,
    sorted_keys: Vec<u128>,
}

/// [`deal_key`] for the free index's `(free CPU desc, id asc)` order:
/// the id is bit-inverted so a *descending* key order breaks CPU ties
/// ascending by id. `+ 0.0` collapses a `-0.0` free CPU onto `+0.0`,
/// which the index's former `partial_cmp` comparator treated as equal
/// (and `total_cmp` would not).
#[inline]
fn server_key(cpu: f64, sid: usize) -> u128 {
    deal_key(cpu + 0.0, !(sid as u32))
}

/// Recovers the server id a [`server_key`] packs.
#[inline]
fn key_server(key: u128) -> ServerId {
    ServerId(!(key as u32) as usize)
}

impl FreeIndex {
    /// Refills the index from `cluster`, keeping every buffer's
    /// capacity. `(free CPU, id)` is a total order for unique ids, so
    /// the unstable sort is deterministic.
    fn rebuild(&mut self, cluster: &Cluster) {
        let n = cluster.len();
        self.cap.clear();
        self.alloc.clear();
        self.free.clear();
        for s in cluster.servers() {
            self.cap.push(s.capacity());
            self.alloc.push(s.allocated());
            self.free.push(s.available());
        }
        self.keys.clear();
        if self.free == self.sorted_free {
            self.keys.extend_from_slice(&self.sorted_keys);
        } else {
            let free = &self.free;
            self.keys
                .extend((0..n).map(|i| server_key(free[i].get(ResourceKind::Cpu), i)));
            // Descending keys ⇔ the old (cpu desc via partial_cmp,
            // id asc) comparator, -0.0 included (see [`server_key`]).
            self.keys.sort_unstable_by(|a, b| b.cmp(a));
            self.sorted_free.clear();
            self.sorted_free.extend_from_slice(&self.free);
            self.sorted_keys.clear();
            self.sorted_keys.extend_from_slice(&self.keys);
        }
        self.updates = 0;
    }

    /// Total reserved capacity, for growth detection.
    fn footprint(&self) -> usize {
        self.cap.capacity()
            + self.alloc.capacity()
            + self.free.capacity()
            + self.keys.capacity()
            + self.sorted_free.capacity()
            + self.sorted_keys.capacity()
    }

    /// Binary search for the slot holding `(cpu, sid)` within the first
    /// `within` entries: keys are unique (ids break ties), so the
    /// partition point of the strictly-greater prefix lands exactly on
    /// the entry. Callers commit servers out of the prefix a job was
    /// packed into, which bounds the search to that prefix's length
    /// instead of the whole cluster.
    fn slot(&self, sid: ServerId, cpu: f64, within: usize) -> usize {
        let key = server_key(cpu, sid.0);
        let pos = self.keys[..within].partition_point(|&q| q > key);
        debug_assert_eq!(key_server(self.keys[pos]), sid, "slot() key out of sync");
        pos
    }

    /// Early-exit prefix scan: `Ok(k)` with the smallest k whose prefix
    /// of free capacity covers `demand` (per-server granularity may need
    /// a few more, probed by the caller), or — when even the full sum
    /// falls short — `Err(total_free)`. Prefix sums accumulate in sorted
    /// order, the exact addition sequence the former per-job prefix-sum
    /// pass produced, and free amounts are non-negative, so the scan
    /// succeeds if and only if `demand` fits the full (identically
    /// computed) total: most jobs pay only the few-element prefix
    /// instead of a full per-job fold over every server.
    fn k_min_or_total(&self, demand: &ResourceVec) -> Result<usize, ResourceVec> {
        let mut acc = ResourceVec::zero();
        for (j, &key) in self.keys.iter().enumerate() {
            acc += self.free[key_server(key).0];
            if demand.fits_within(&acc) {
                return Ok(j + 1);
            }
        }
        Err(acc)
    }

    /// Reserves `demand` on `sid` and repositions it in `order`. Free
    /// CPU only decreases on a commit, so the server's new slot is at
    /// or after its old one: binary-search the tail (which excludes
    /// `sid`, keeping the comparator consistent) and rotate the gap one
    /// step left — O(slots moved) instead of the former remove+insert
    /// pair's O(servers) memmoves, with an identical resulting order.
    fn commit(&mut self, sid: ServerId, demand: &ResourceVec, within: usize) {
        assert!(
            demand.fits_within(&self.free[sid.0]),
            "feasibility checked above"
        );
        let old = self.slot(sid, self.free[sid.0].get(ResourceKind::Cpu), within);
        self.alloc[sid.0] += *demand;
        self.free[sid.0] = self.cap[sid.0].saturating_sub(&self.alloc[sid.0]);
        let key = server_key(self.free[sid.0].get(ResourceKind::Cpu), sid.0);
        let at = old + 1 + self.keys[old + 1..].partition_point(|&q| q > key);
        self.keys[old] = key;
        self.keys[old..at].rotate_left(1);
        self.updates += 1;
    }
}

/// The Theorem-1 placer.
#[derive(Debug, Clone, Default)]
pub struct OptimusPlacer {
    /// Telemetry sink (disabled by default): `placement.packing_retries`
    /// and `placement.index_updates` counters plus per-job
    /// [`TraceEvent::Placement`] records.
    tel: Telemetry,
}

impl OptimusPlacer {
    /// Attaches a telemetry handle: shrink retries feed the
    /// `placement.packing_retries` counter, index repositions feed
    /// `placement.index_updates`, and every placed job records its
    /// layout.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.tel = tel;
        self
    }
    /// Commits a successful packing: reserves each chosen server's
    /// share in `index` and records the placement span in `out`. The
    /// `k`-prefix is copied into `chosen` only here, so a failed probe
    /// — the common case in the shrink-retry loop — costs no copy.
    fn commit_counts(
        job: &JobView,
        index: &mut FreeIndex,
        chosen: &mut Vec<ServerId>,
        counts: &[TaskCounts],
        out: &mut PlacementStore,
        k: usize,
    ) {
        chosen.clear();
        chosen.extend(index.keys[..k].iter().map(|&key| key_server(key)));
        out.begin_span(job.id);
        for (i, &sid) in chosen.iter().enumerate() {
            if counts[i].ps == 0 && counts[i].workers == 0 {
                continue;
            }
            let demand = job.worker_profile * counts[i].workers as f64
                + job.ps_profile * counts[i].ps as f64;
            // A commit only moves its server *down* and everything else
            // up by one slot, so each later chosen server still sits
            // inside the original k-prefix: the slot search stays
            // bounded by `k` for the whole loop.
            index.commit(sid, &demand, k);
            out.push_task(sid, counts[i]);
        }
        out.commit_span();
    }

    /// The exact Theorem-1 even split, if every server fits its share.
    /// Fills `counts` and returns true on success.
    ///
    /// An even split takes at most four distinct `(ps, workers)` shares
    /// (quotient vs quotient+1 per task kind), contiguous by
    /// construction — so the share demands are priced once per zone,
    /// not once per server, and the feasibility scan runs
    /// highest-index (least-free) servers first, where a failing probe
    /// exits on its first comparison instead of its last. The accepted
    /// set and the resulting counts are exactly the former per-server
    /// formulation's.
    fn even_counts(
        job: &JobView,
        alloc: &Allocation,
        free: &[ResourceVec],
        chosen: &[u128],
        counts: &mut Vec<TaskCounts>,
    ) -> bool {
        let kf = chosen.len() as u32;
        let (qp, rp) = (alloc.ps / kf, alloc.ps % kf);
        let (qw, rw) = (alloc.workers / kf, alloc.workers % kf);
        let share = |i: u32| TaskCounts {
            ps: qp + u32::from(i < rp),
            workers: qw + u32::from(i < rw),
        };
        let price =
            |c: TaskCounts| job.worker_profile * c.workers as f64 + job.ps_profile * c.ps as f64;
        let lo = rp.min(rw) as usize;
        let hi = rp.max(rw) as usize;
        let zones = [
            (0, lo, price(share(0))),
            (lo, hi, price(share(lo as u32))),
            (hi, chosen.len(), price(share(hi as u32))),
        ];
        for &(start, end, demand) in zones.iter().rev() {
            for &key in chosen[start..end].iter().rev() {
                if !demand.fits_within(&free[key_server(key).0]) {
                    return false;
                }
            }
        }
        counts.clear();
        counts.extend((0..kf).map(share));
        true
    }

    /// One deal of the near-even fallback: reserves `demand` on the
    /// server with the most remaining CPU that fits it, ties to the
    /// highest index (the semantics of a forward `max_by`, which keeps
    /// the *last* maximum).
    ///
    /// `deal` keeps the candidate positions sorted by
    /// `(remaining CPU desc, index desc)`, so the winner is the first
    /// fitting entry, and a deal repositions only the one server it
    /// drained (binary search + rotate, as in [`FreeIndex::commit`]).
    /// Availability only ever *shrinks* during a packing attempt, so an
    /// entry that fails a demand once fails it for the rest of the
    /// attempt: `cursors[which]` counts the leading known-failed
    /// entries for this demand and the scan starts past them. The
    /// former formulation rescanned and re-maxed all k servers for
    /// every task — O(tasks × k) per attempt, the single hottest loop
    /// of a full scheduling decision; with the cursors every entry
    /// fails every demand at most once per attempt.
    fn deal_one(
        avail: &mut [ResourceVec],
        deal: &mut [u128],
        demand: &ResourceVec,
        cursors: &mut [usize; 3],
        which: usize,
        log: &mut DealLog,
    ) -> Option<usize> {
        let Some(pos) = (cursors[which]..deal.len())
            .find(|&p| demand.fits_within(&avail[(deal[p] as u32) as usize]))
        else {
            // Every entry now fails this demand, hence for the rest of
            // the attempt: later same-demand deals exit immediately.
            cursors[which] = deal.len();
            log.fail[which] = true;
            return None;
        };
        // The entries scanned past just failed; they stay failed.
        cursors[which] = pos;
        let i = deal[pos] as u32;
        let won_cpu = avail[i as usize].get(ResourceKind::Cpu);
        if won_cpu < log.min_cpu[which] {
            log.min_cpu[which] = won_cpu;
        }
        avail[i as usize] -= *demand;
        // CPU only decreased: the new slot is at or after `pos`. Keys
        // are unique (the index breaks ties), so the partition point is
        // the old comparator's insertion point exactly.
        let key = deal_key(avail[i as usize].get(ResourceKind::Cpu), i);
        deal[pos] = key;
        let at = pos + 1 + deal[pos + 1..].partition_point(|&q| q > key);
        // The winner leaves `pos` for `at - 1`, shifting the entries
        // between down one slot. A known-failed prefix the winner
        // *exits* loses one slot to an unscanned entry shifting in, so
        // its cursor steps back; a prefix the winner stays inside is
        // untouched (the winner only shrank, so it still fails those
        // demands). `cursors[which]` was just set to `pos`, which the
        // rule never moves.
        for c in cursors.iter_mut() {
            if pos < *c && at > *c {
                *c -= 1;
            }
        }
        deal[pos..at].rotate_left(1);
        Some(i as usize)
    }

    /// Near-even fallback for heterogeneous servers: deal PS+worker
    /// *pairs* to the server with the most remaining CPU that fits the
    /// whole pair (Theorem 1's colocation principle), splitting a pair
    /// across two servers only when no server fits both; leftover
    /// unpaired tasks are dealt individually. Fills `counts` (using
    /// `avail` and `deal` as working space) and returns true on success.
    fn balanced_counts(
        job: &JobView,
        alloc: &Allocation,
        free: &[ResourceVec],
        chosen: &[u128],
        counts: &mut Vec<TaskCounts>,
        bufs: &mut BalanceBufs,
        log: &mut DealLog,
    ) -> bool {
        let BalanceBufs { avail, deal } = bufs;
        log.reset();
        avail.clear();
        avail.extend(chosen.iter().map(|&key| free[key_server(key).0]));
        counts.clear();
        counts.resize(chosen.len(), TaskCounts::default());

        // `chosen` is a prefix of the free index: sorted by free CPU
        // descending with ties index-*ascending*. [`Self::deal_one`]
        // wants ties index-descending (last-maximum semantics), so seed
        // the order and reverse every equal-CPU run.
        deal.clear();
        deal.extend(
            avail
                .iter()
                .enumerate()
                .map(|(i, a)| deal_key(a.get(ResourceKind::Cpu), i as u32)),
        );
        let mut run = 0;
        for i in 1..=deal.len() {
            if i == deal.len() || (deal[i] >> 32) != (deal[run] >> 32) {
                deal[run..i].reverse();
                run = i;
            }
        }

        // Known-failed prefix lengths, one per distinct demand:
        // colocated pair, lone PS, lone worker.
        let mut cursors = [0usize; 3];
        let pair_demand = job.ps_profile + job.worker_profile;
        let pairs = alloc.ps.min(alloc.workers);
        for _ in 0..pairs {
            if let Some(i) = Self::deal_one(avail, deal, &pair_demand, &mut cursors, 0, log) {
                counts[i].ps += 1;
                counts[i].workers += 1;
            } else {
                // No server fits the colocated pair: split it.
                let Some(i) = Self::deal_one(avail, deal, &job.ps_profile, &mut cursors, 1, log)
                else {
                    return false;
                };
                counts[i].ps += 1;
                let Some(i) =
                    Self::deal_one(avail, deal, &job.worker_profile, &mut cursors, 2, log)
                else {
                    return false;
                };
                counts[i].workers += 1;
            }
        }
        for _ in pairs..alloc.ps {
            let Some(i) = Self::deal_one(avail, deal, &job.ps_profile, &mut cursors, 1, log) else {
                return false;
            };
            counts[i].ps += 1;
        }
        for _ in pairs..alloc.workers {
            let Some(i) = Self::deal_one(avail, deal, &job.worker_profile, &mut cursors, 2, log)
            else {
                return false;
            };
            counts[i].workers += 1;
        }
        true
    }
}

impl OptimusPlacer {
    /// Emits the placement side of a job's why-record from a fresh
    /// probe/shrink run (draining the rejection log into it) or a
    /// replayed span (whose log is empty). A no-op unless provenance is
    /// on (the log is only `enabled` then).
    fn record_place_why(
        &self,
        id: JobId,
        requested: &Allocation,
        placed: Option<&Allocation>,
        replayed: bool,
        out: &PlacementStore,
        rej: &mut RejectLog,
    ) {
        if !rej.enabled {
            return;
        }
        let (ps, workers, servers) = match placed {
            Some(a) => (a.ps, a.workers, out.get(id).map_or(0, |p| p.len()) as u64),
            None => (0, 0, 0),
        };
        self.tel.why_place(
            id.0,
            PlaceWhy {
                ps,
                workers,
                servers,
                shrunk: (requested.ps + requested.workers).saturating_sub(ps + workers),
                replayed,
                rejections: rej.total,
                rejected: std::mem::take(&mut rej.rejected),
            },
        );
    }

    /// Places one job — the probe/shrink step of [`Self::place_delta`]
    /// for jobs past the replayed prefix. Commits the job's span into
    /// `out` (via [`Self::commit_counts`]) *iff* placement succeeds and
    /// returns the final — possibly shrunk — allocation; a failed
    /// placement makes no commits at all (`balanced_counts` mutates only
    /// its scratch copies), which is what lets the replay treat a
    /// missing span as "skip on replay".
    #[allow(clippy::too_many_arguments)]
    fn place_job(
        job: &JobView,
        mut alloc: Allocation,
        index: &mut FreeIndex,
        chosen: &mut Vec<ServerId>,
        counts: &mut Vec<TaskCounts>,
        bal: &mut BalanceBufs,
        log: &mut DealLog,
        out: &mut PlacementStore,
        retries: &mut u64,
        rej: &mut RejectLog,
    ) -> Option<Allocation> {
        let pair_demand = job.ps_profile + job.worker_profile;
        loop {
            let demand = alloc.demand(job);
            // Smallest k whose prefix of free capacity covers the
            // demand; per-server granularity may need a few more.
            let k_min = match index.k_min_or_total(&demand) {
                Ok(k) => k,
                Err(total_free) => {
                    rej.push(PlaceReject::AggregateEarlyExit {
                        servers: index.keys.len() as u64,
                    });
                    // Shrink-on-unplaceable: the allocator reasons
                    // about aggregate capacity (constraint (7)), so
                    // per-server fragmentation can make the full
                    // allocation unplaceable. Rather than pausing a
                    // job that could run smaller (which deadlocks a
                    // lightly loaded cluster), shrink straight to
                    // what aggregate free capacity allows and retry.
                    while !alloc.demand(job).fits_within(&total_free)
                        && alloc.ps + alloc.workers > 2
                    {
                        if alloc.ps >= alloc.workers {
                            alloc.ps -= 1;
                        } else {
                            alloc.workers -= 1;
                        }
                    }
                    if !alloc.demand(job).fits_within(&total_free) {
                        return None;
                    }
                    continue;
                }
            };
            let k_max = (k_min + 8).min(index.keys.len());
            // Probe window: smallest k in k_min..=k_max whose
            // prefix packs the allocation (even split first, then
            // the near-even deal). A failed deal leaves its proof
            // transcript in `log`: the next probe adds exactly one
            // server — the (k+1)-th most free — and replays the
            // same trajectory to the same failure unless that
            // server would have beaten a recorded winner (it fits
            // the demand and has at least the winner's free CPU;
            // ties go to it as the highest deal index) or fits a
            // demand that found no server. Checking the transcript
            // is O(deals); re-running the deal is O(k + deals), so
            // the common all-probes-fail window of the shrink loop
            // collapses to one real attempt plus cheap skips.
            let mut log_valid = false;
            let mut placed_at_k = false;
            for k in k_min..=k_max {
                let prefix = &index.keys[..k];
                if Self::even_counts(job, &alloc, &index.free, prefix, counts) {
                    Self::commit_counts(job, index, chosen, counts, out, k);
                    placed_at_k = true;
                    break;
                }
                if log_valid {
                    let f = &index.free[key_server(index.keys[k - 1]).0];
                    let fits = [
                        pair_demand.fits_within(f),
                        job.ps_profile.fits_within(f),
                        job.worker_profile.fits_within(f),
                    ];
                    if !log.deviates(fits, f.get(ResourceKind::Cpu)) {
                        rej.push(PlaceReject::KPrefix { k: k as u64 });
                        continue;
                    }
                }
                let prefix = &index.keys[..k];
                if Self::balanced_counts(job, &alloc, &index.free, prefix, counts, bal, log) {
                    Self::commit_counts(job, index, chosen, counts, out, k);
                    placed_at_k = true;
                    break;
                }
                rej.push(PlaceReject::KPrefix { k: k as u64 });
                log_valid = true;
            }
            if placed_at_k {
                return Some(alloc);
            }
            // The whole configuration failed every probed prefix.
            rej.push(PlaceReject::Capacity {
                ps: alloc.ps,
                workers: alloc.workers,
            });
            if alloc.ps + alloc.workers <= 2 {
                return None;
            }
            if alloc.ps >= alloc.workers {
                alloc.ps -= 1;
            } else {
                alloc.workers -= 1;
            }
            *retries += 1;
        }
    }

    /// The Theorem-1 pass, reusing the previous round's decisions where
    /// the inputs provably match. Writes placements into `out` and this
    /// round's signature list into `scratch`; once both are warm this
    /// performs no heap allocation (with a disabled telemetry handle).
    ///
    /// `prev_sig`/`prev_store` must be the signature list and store this
    /// method produced on the previous round *against the same cluster
    /// state* — the caller passes empty ones for a full pass or when the
    /// cluster changed (the free index evolves as a function of the
    /// cluster and the commit sequence, so prefix replay is only sound
    /// with both fixed).
    ///
    /// Two reuse tiers:
    /// - whole-list signature match → copy the previous store verbatim
    ///   and skip even the index rebuild (returns `true`);
    /// - else replay the longest matching signature prefix by committing
    ///   the recorded spans (identical index mutations, no probing), and
    ///   run the full probe/shrink machinery only from the first
    ///   mismatch on. A job in the prefix with no recorded span was
    ///   unplaced — a failed placement commits nothing, so skipping it
    ///   replays that too. Shrunk counts live in the spans, so replay
    ///   reproduces shrink outcomes while the signature carries the
    ///   *requested* counts, keeping the match honest.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place_delta(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
        scratch: &mut PlaceScratch,
        prev_sig: &[PlaceSig],
        prev_store: &PlacementStore,
        out: &mut PlacementStore,
    ) -> bool {
        let _span = self.tel.is_enabled().then(|| self.tel.span("place.place"));
        let PlaceScratch {
            index,
            chosen,
            counts,
            bal,
            order,
            norms,
            sigs,
        } = scratch;
        let prov = self.tel.provenance_enabled();
        smallest_first_into(allocations, jobs, order, norms);
        sigs.clear();
        for &i in order.iter() {
            sigs.push(PlaceSig::new(&jobs[i], &allocations[i], norms[i]));
        }
        if sigs.as_slice() == prev_sig {
            out.copy_from(prev_store);
            if prov {
                for &i in order.iter() {
                    let job = &jobs[i];
                    if let Some(span) = out.get(job.id) {
                        self.tel.why_place(
                            job.id.0,
                            replayed_place_why(span, allocations[i].ps, allocations[i].workers),
                        );
                    }
                }
            }
            return true;
        }
        let matched = sigs
            .iter()
            .zip(prev_sig.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let mut retries = 0u64;
        let mut log = DealLog::default();
        let mut rej = RejectLog {
            enabled: prov,
            ..RejectLog::default()
        };
        // One index rebuild per round; each job then pays only an
        // early-exit prefix scan plus log-time repositions for the
        // servers its placement touches (available CPU order, §4.2),
        // keeping placement fast even on the Fig-12 clusters
        // (16 000 nodes).
        index.rebuild(cluster);
        out.clear();
        for (pos, &i) in order.iter().enumerate() {
            let job = &jobs[i];
            let replayed = pos < matched;
            rej.reset();
            let placed = if replayed {
                let Some(span) = prev_store.get(job.id) else {
                    continue; // was unplaced; stays unplaced
                };
                out.insert(job.id, span);
                let mut placed = Allocation {
                    job: job.id,
                    ps: 0,
                    workers: 0,
                };
                for &(sid, c) in span {
                    let demand = job.worker_profile * f64::from(c.workers)
                        + job.ps_profile * f64::from(c.ps);
                    index.commit(sid, &demand, index.keys.len());
                    placed.ps += c.ps;
                    placed.workers += c.workers;
                }
                Some(placed)
            } else {
                Self::place_job(
                    job,
                    allocations[i],
                    index,
                    chosen,
                    counts,
                    bal,
                    &mut log,
                    out,
                    &mut retries,
                    &mut rej,
                )
            };
            // None: paused this interval (§4.2).
            if let Some(alloc) = placed {
                if self.tel.is_enabled() {
                    let shrunk = (allocations[i].ps + allocations[i].workers)
                        .saturating_sub(alloc.ps + alloc.workers);
                    self.tel.record(TraceEvent::Placement {
                        job: job.id.0,
                        ps: alloc.ps,
                        workers: alloc.workers,
                        servers: out.get(job.id).map_or(0, |p| p.len()),
                        shrunk,
                    });
                }
            }
            self.record_place_why(
                job.id,
                &allocations[i],
                placed.as_ref(),
                replayed,
                out,
                &mut rej,
            );
        }
        if retries > 0 {
            self.tel.add("placement.packing_retries", retries);
        }
        if index.updates > 0 {
            self.tel.add("placement.index_updates", index.updates);
        }
        false
    }
}

/// Exact-value signature of one ordered placement input. Placement is a
/// pure function of the ordered `(job, allocation)` list plus the free
/// index, and it reads *only* the fields captured here — so two rounds
/// whose signature lists share a prefix (against the same cluster) make
/// bit-identical decisions over that prefix, and a whole-list match
/// makes the entire previous store reusable. Values compare exactly
/// (floats by bit pattern); nothing is hashed, so there are no
/// collisions to reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlaceSig {
    id: JobId,
    /// [`smallest_first_into`] sort-key bits — pins the order tie-break.
    norm: u64,
    ps: u32,
    workers: u32,
    worker_profile: [u64; 4],
    ps_profile: [u64; 4],
}

impl PlaceSig {
    fn new(job: &JobView, alloc: &Allocation, norm: f64) -> Self {
        PlaceSig {
            id: job.id,
            norm: norm.to_bits(),
            ps: alloc.ps,
            workers: alloc.workers,
            worker_profile: profile_bits(&job.worker_profile),
            ps_profile: profile_bits(&job.ps_profile),
        }
    }
}

/// Bitwise image of a resource vector, for exact comparison.
fn profile_bits(v: &ResourceVec) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (k, kind) in ResourceKind::ALL.iter().enumerate() {
        out[k] = v.get(*kind).to_bits();
    }
    out
}

impl TaskPlacer for OptimusPlacer {
    fn place(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
    ) -> HashMap<JobId, JobPlacement> {
        let mut out = PlacementStore::default();
        self.place_into(
            allocations,
            jobs,
            cluster,
            &mut PlaceScratch::default(),
            &mut out,
        );
        out.to_map()
    }

    /// The full Theorem-1 pass: `OptimusPlacer::place_delta` with no
    /// previous round to reuse.
    fn place_into(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
        scratch: &mut PlaceScratch,
        out: &mut PlacementStore,
    ) {
        let no_prev = PlacementStore::default();
        self.place_delta(allocations, jobs, cluster, scratch, &[], &no_prev, out);
    }
}

// ---------------------------------------------------------------------
// Load-balancing placer (Kubernetes default; DRF baseline)
// ---------------------------------------------------------------------

/// Places tasks one at a time, each on the server with the most free
/// CPU — the "load balancing way, according to the default behavior of
/// Kubernetes" used by the DRF baseline.
#[derive(Debug, Clone, Default)]
pub struct SpreadPlacer;

impl TaskPlacer for SpreadPlacer {
    fn place(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
    ) -> HashMap<JobId, JobPlacement> {
        let mut scratch = cluster.clone();
        let mut out = HashMap::new();
        for (alloc, job) in allocations.iter().zip(jobs.iter()) {
            if alloc.ps == 0 || alloc.workers == 0 {
                continue;
            }
            if let Some(p) = place_tasks_by(job, alloc, &mut scratch, |server, _mine| {
                server.available().get(ResourceKind::Cpu)
            }) {
                out.insert(job.id, p);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Packing placer (Tetris baseline)
// ---------------------------------------------------------------------

/// Places tasks one at a time best-fit: the feasible server with the
/// *least* free capacity left, packing tasks onto as few servers as
/// possible to minimize resource fragmentation (§6.1's description of
/// Tetris). As a side effect a job's tasks colocate, which also earns
/// Tetris part of the communication-locality benefit the paper observes.
#[derive(Debug, Clone, Default)]
pub struct PackPlacer;

impl TaskPlacer for PackPlacer {
    fn place(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
    ) -> HashMap<JobId, JobPlacement> {
        let mut scratch = cluster.clone();
        let mut out = HashMap::new();
        for (alloc, job) in allocations.iter().zip(jobs.iter()) {
            if alloc.ps == 0 || alloc.workers == 0 {
                continue;
            }
            // Keeping a job's footprint compact is the fragmentation-
            // minimizing behavior §6.1 ascribes to Tetris: strongly
            // prefer servers already hosting this job's tasks, then the
            // fullest feasible server.
            let placed = place_tasks_by(job, alloc, &mut scratch, |server, mine| {
                let own_bonus = if mine.contains_key(&server.id()) {
                    1e9
                } else {
                    0.0
                };
                own_bonus - server.available().get(ResourceKind::Cpu)
            });
            if let Some(p) = placed {
                out.insert(job.id, p);
            }
        }
        out
    }
}

/// Greedy per-task placement: each task goes to the feasible server
/// maximizing `score(server, tasks_this_job_already_has_per_server)`.
///
/// Mirrors Kubernetes semantics: tasks that do not fit stay "pending" —
/// the job runs with whatever subset was placed, as long as at least
/// one PS and one worker landed. Returns `None` (rolling back) only
/// when even that minimum is impossible.
fn place_tasks_by(
    job: &JobView,
    alloc: &Allocation,
    scratch: &mut Cluster,
    score: impl Fn(&optimus_cluster::Server, &HashMap<ServerId, TaskCounts>) -> f64,
) -> Option<JobPlacement> {
    let mut per_server: HashMap<ServerId, TaskCounts> = HashMap::new();
    let mut committed: Vec<(ServerId, ResourceVec)> = Vec::new();

    let place_one = |demand: &ResourceVec,
                     scratch: &mut Cluster,
                     per_server: &mut HashMap<ServerId, TaskCounts>,
                     committed: &mut Vec<(ServerId, ResourceVec)>,
                     is_ps: bool|
     -> bool {
        let target = scratch
            .servers()
            .filter(|s| s.can_fit(demand))
            .max_by(|a, b| {
                score(a, per_server)
                    .total_cmp(&score(b, per_server))
                    // Deterministic tie-break.
                    .then(b.id().cmp(&a.id()))
            })
            .map(|s| s.id());
        let Some(sid) = target else {
            return false;
        };
        scratch
            .server_mut(sid)
            .expect("id from iteration")
            .allocate(demand)
            .expect("can_fit checked");
        committed.push((sid, *demand));
        let entry = per_server
            .entry(sid)
            .or_insert(TaskCounts { ps: 0, workers: 0 });
        if is_ps {
            entry.ps += 1;
        } else {
            entry.workers += 1;
        }
        true
    };

    // Interleave PS and workers so a partially placed job still has both
    // task kinds.
    let mut placed_ps = 0u32;
    let mut placed_w = 0u32;
    for t in 0..(alloc.ps + alloc.workers) {
        let want_ps = (t % 2 == 0 && placed_ps < alloc.ps) || placed_w >= alloc.workers;
        let demand = if want_ps {
            &job.ps_profile
        } else {
            &job.worker_profile
        };
        if place_one(demand, scratch, &mut per_server, &mut committed, want_ps) {
            if want_ps {
                placed_ps += 1;
            } else {
                placed_w += 1;
            }
        } else {
            break; // remaining tasks stay pending
        }
    }

    if placed_ps == 0 || placed_w == 0 {
        // Roll back: not even the minimum viable pair landed.
        for (sid, demand) in committed {
            scratch
                .server_mut(sid)
                .expect("id from iteration")
                .release(&demand)
                .expect("releasing what we allocated");
        }
        return None;
    }
    let mut placement: JobPlacement = per_server.into_iter().collect();
    placement.sort_by_key(|(sid, _)| *sid);
    Some(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::SpeedModel;
    use optimus_workload::TrainingMode;

    fn job(id: u64) -> JobView {
        let mut speed = SpeedModel::new(TrainingMode::Synchronous, 64.0);
        for (p, w, f) in [
            (1, 1, 0.02),
            (2, 2, 0.04),
            (4, 4, 0.06),
            (8, 8, 0.07),
            (4, 8, 0.065),
        ] {
            speed.record(p, w, f);
        }
        speed.refit().unwrap();
        JobView {
            id: JobId(id),
            worker_profile: optimus_workload::job::default_container(),
            ps_profile: optimus_workload::job::default_container(),
            remaining_work: 1_000.0,
            speed,
            progress: 0.5,
            requested_units: 4,
        }
    }

    fn alloc(id: u64, ps: u32, workers: u32) -> Allocation {
        Allocation {
            job: JobId(id),
            ps,
            workers,
        }
    }

    /// Sums placed tasks and verifies they match the allocation.
    fn check_counts(p: &JobPlacement, a: &Allocation) {
        let ps: u32 = p.iter().map(|(_, c)| c.ps).sum();
        let w: u32 = p.iter().map(|(_, c)| c.workers).sum();
        assert_eq!(ps, a.ps);
        assert_eq!(w, a.workers);
    }

    #[test]
    fn optimus_uses_fewest_servers() {
        // 5 PS + 5 workers = 10 containers à 5 cores = 50 cores: more
        // than one 32-core server, so Theorem 1 mandates exactly two
        // servers with an even spread.
        let cluster = Cluster::paper_testbed();
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 5, 5)];
        let placements = OptimusPlacer::default().place(&allocs, &jobs, &cluster);
        let p = placements.get(&JobId(0)).expect("placed");
        check_counts(p, &allocs[0]);
        assert_eq!(p.len(), 2, "theorem 1: fewest servers, evenly: {p:?}");
        // Even spread: 2-3 PS and 2-3 workers per server.
        for (_, c) in p {
            assert!((2..=3).contains(&c.ps), "{p:?}");
            assert!((2..=3).contains(&c.workers), "{p:?}");
        }
    }

    #[test]
    fn optimus_single_server_when_it_fits() {
        let cluster = Cluster::paper_testbed();
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 2, 2)]; // 4 × 5 = 20 cores ≤ 32
        let placements = OptimusPlacer::default().place(&allocs, &jobs, &cluster);
        let p = placements.get(&JobId(0)).expect("placed");
        assert_eq!(p.len(), 1, "should fit on one server: {p:?}");
    }

    #[test]
    fn optimus_places_smallest_job_first() {
        // Cluster with room for the small job and only a shrunken big
        // job: the small job must get its full allocation first.
        let cluster = Cluster::homogeneous(1, ResourceVec::new(21.0, 0.0, 45.0, 2.0));
        let jobs = vec![job(0), job(1)];
        let allocs = vec![alloc(0, 4, 4), alloc(1, 1, 1)];
        let placements = OptimusPlacer::default().place(&allocs, &jobs, &cluster);
        let small = placements.get(&JobId(1)).expect("small job placed");
        check_counts(small, &allocs[1]);
        // The big job shrank to whatever still fits (at most one pair).
        if let Some(big) = placements.get(&JobId(0)) {
            let tasks: u32 = big.iter().map(|(_, c)| c.ps + c.workers).sum();
            assert!(tasks <= 2, "big job should be shrunken: {big:?}");
        }
    }

    #[test]
    fn optimus_shrinks_rather_than_pausing_solo_job() {
        // A lone job allocated beyond what fragmentation allows must
        // still run (with fewer tasks), not deadlock.
        let cluster = Cluster::homogeneous(2, ResourceVec::new(12.0, 0.0, 24.0, 1.0));
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 4, 4)];
        let placements = OptimusPlacer::default().place(&allocs, &jobs, &cluster);
        let p = placements.get(&JobId(0)).expect("shrunken placement");
        let ps: u32 = p.iter().map(|(_, c)| c.ps).sum();
        let w: u32 = p.iter().map(|(_, c)| c.workers).sum();
        assert!(ps >= 1 && w >= 1);
        assert!(ps + w <= 4, "two servers × two 5-core tasks: {p:?}");
    }

    #[test]
    fn all_placers_respect_server_capacity() {
        let cluster = Cluster::paper_testbed();
        let jobs: Vec<JobView> = (0..4).map(job).collect();
        let allocs: Vec<Allocation> = (0..4).map(|i| alloc(i, 3, 3)).collect();
        for placer in [
            &OptimusPlacer::default() as &dyn TaskPlacer,
            &SpreadPlacer,
            &PackPlacer,
        ] {
            let placements = placer.place(&allocs, &jobs, &cluster);
            // Rebuild per-server usage and check capacities.
            let mut usage: HashMap<ServerId, ResourceVec> = HashMap::new();
            for (jid, p) in &placements {
                let j = jobs.iter().find(|j| j.id == *jid).unwrap();
                let a = allocs.iter().find(|a| a.job == *jid).unwrap();
                check_counts(p, a);
                for (sid, c) in p {
                    let d = j.worker_profile * c.workers as f64 + j.ps_profile * c.ps as f64;
                    *usage.entry(*sid).or_default() += d;
                }
            }
            for (sid, used) in usage {
                let cap = cluster.server(sid).unwrap().capacity();
                assert!(used.fits_within(&cap), "{sid}: {used} > {cap}");
            }
        }
    }

    #[test]
    fn spread_placer_balances_load() {
        let cluster = Cluster::homogeneous(4, ResourceVec::new(40.0, 0.0, 160.0, 4.0));
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 4, 4)];
        let placements = SpreadPlacer.place(&allocs, &jobs, &cluster);
        let p = placements.get(&JobId(0)).unwrap();
        // Kubernetes-style spreading lands tasks on every server.
        assert_eq!(p.len(), 4, "{p:?}");
    }

    #[test]
    fn truly_unplaceable_job_is_omitted() {
        // Not even one 5-core container fits on a 4-core server.
        let cluster = Cluster::homogeneous(2, ResourceVec::new(4.0, 0.0, 24.0, 1.0));
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 4, 4)];
        for placer in [
            &OptimusPlacer::default() as &dyn TaskPlacer,
            &SpreadPlacer,
            &PackPlacer,
        ] {
            let placements = placer.place(&allocs, &jobs, &cluster);
            assert!(placements.is_empty());
        }
    }

    #[test]
    fn baseline_placers_leave_excess_pending() {
        // Kubernetes semantics: place what fits, run with it.
        let cluster = Cluster::homogeneous(2, ResourceVec::new(12.0, 0.0, 48.0, 1.0));
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 4, 4)]; // 8 tasks wanted, 4 fit
        for placer in [&SpreadPlacer as &dyn TaskPlacer, &PackPlacer] {
            let placements = placer.place(&allocs, &jobs, &cluster);
            let p = placements.get(&JobId(0)).expect("partial placement");
            let ps: u32 = p.iter().map(|(_, c)| c.ps).sum();
            let w: u32 = p.iter().map(|(_, c)| c.workers).sum();
            assert!(ps >= 1 && w >= 1);
            assert!(ps + w < 8, "must be partial: {p:?}");
        }
    }

    #[test]
    fn zero_allocations_are_skipped() {
        let cluster = Cluster::paper_testbed();
        let jobs = vec![job(0)];
        let allocs = vec![alloc(0, 0, 0)];
        for placer in [
            &OptimusPlacer::default() as &dyn TaskPlacer,
            &SpreadPlacer,
            &PackPlacer,
        ] {
            assert!(placer.place(&allocs, &jobs, &cluster).is_empty());
        }
    }
}
