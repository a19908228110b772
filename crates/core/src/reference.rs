//! Naive reference implementations of the Optimus allocator and placer.
//!
//! These are the straight-line §4.1/§4.2 algorithms *before* the
//! hot-path optimizations (prediction memoization, the incremental
//! free-capacity index, reusable scratch buffers): every marginal-gain
//! evaluation calls the speed model directly, and every job re-sorts a
//! cloned cluster by free CPU. They exist as an executable
//! specification — the optimized [`OptimusAllocator`] and
//! [`OptimusPlacer`] must produce *identical* schedules on identical
//! inputs, which the `equivalence` property test enforces on randomized
//! clusters and job mixes.
//!
//! Keep these in sync with algorithmic (not performance) changes to the
//! production path; they are deliberately simple and carry no
//! telemetry.
//!
//! [`OptimusAllocator`]: crate::allocation::OptimusAllocator
//! [`OptimusPlacer`]: crate::placement::OptimusPlacer

use crate::allocation::{Allocation, ResourceAllocator, YOUNG_PROGRESS};
use crate::scheduler::{JobPlacement, JobView};
use optimus_cluster::{Cluster, ResourceKind, ResourceVec, ServerId};
use optimus_ps::TaskCounts;
use optimus_workload::JobId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

// ---------------------------------------------------------------------
// Reference allocator (§4.1, no memoization)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    AddWorker,
    AddPs,
}

/// Ordered by `(gain, job id)`: the id tie-break (smaller id wins among
/// equal gains) keeps the grant order independent of job insertion
/// order, mirroring the production allocator.
struct Candidate {
    gain: f64,
    job_idx: usize,
    job: JobId,
    action: Action,
    version: u64,
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

/// The marginal-gain allocator exactly as first implemented: `t_now`,
/// `t_worker`, and `t_ps` are recomputed from the speed model on every
/// `best_candidate` call.
#[derive(Debug, Clone)]
pub struct ReferenceOptimusAllocator {
    priority_factor: f64,
}

impl Default for ReferenceOptimusAllocator {
    fn default() -> Self {
        ReferenceOptimusAllocator {
            priority_factor: 1.0,
        }
    }
}

impl ReferenceOptimusAllocator {
    /// Sets the §4.1 priority factor (mirror of
    /// [`OptimusAllocator::with_priority_factor`](crate::allocation::OptimusAllocator::with_priority_factor)).
    pub fn with_priority_factor(mut self, factor: f64) -> Self {
        self.priority_factor = factor;
        self
    }

    fn best_candidate(
        &self,
        job: &JobView,
        alloc: &Allocation,
        remaining: &ResourceVec,
        capacity: &ResourceVec,
    ) -> Option<(f64, Action)> {
        let t_now = job.remaining_time(alloc.ps, alloc.workers);
        let mut best: Option<(f64, Action)> = None;

        let mut consider = |action: Action, demand: &ResourceVec, t_next: f64| {
            if !demand.fits_within(remaining) {
                return;
            }
            let dominant = demand
                .dominant_share(capacity)
                .map(|(kind, _)| demand.get(kind))
                .unwrap_or(0.0);
            if dominant <= 0.0 {
                return;
            }
            let reduction = if t_now.is_infinite() && t_next.is_finite() {
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

        let t_worker = job.remaining_time(alloc.ps, alloc.workers + 1);
        consider(Action::AddWorker, &job.worker_profile, t_worker);
        let t_ps = job.remaining_time(alloc.ps + 1, alloc.workers);
        consider(Action::AddPs, &job.ps_profile, t_ps);
        best
    }
}

impl ResourceAllocator for ReferenceOptimusAllocator {
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

        // Starvation avoidance: one worker + one PS per job while space
        // lasts, in submission (job-id) order — ids are assigned at
        // submission, so this matches the paper regardless of how the
        // caller ordered the views.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_unstable_by_key(|&i| (jobs[i].id, i));
        for &i in &order {
            let unit = jobs[i].unit_demand();
            if unit.fits_within(&remaining) {
                allocs[i].ps = 1;
                allocs[i].workers = 1;
                remaining -= unit;
            }
        }

        // Greedy marginal-gain loop over a lazy max-heap.
        let mut versions = vec![0u64; jobs.len()];
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for (i, job) in jobs.iter().enumerate() {
            if allocs[i].workers == 0 {
                continue;
            }
            if let Some((gain, action)) =
                self.best_candidate(job, &allocs[i], &remaining, &capacity)
            {
                heap.push(Candidate {
                    gain,
                    job_idx: i,
                    job: job.id,
                    action,
                    version: 0,
                });
            }
        }

        while let Some(cand) = heap.pop() {
            if cand.version != versions[cand.job_idx] {
                continue; // stale
            }
            if cand.gain <= 0.0 {
                break;
            }
            let job = &jobs[cand.job_idx];
            let demand = match cand.action {
                Action::AddWorker => job.worker_profile,
                Action::AddPs => job.ps_profile,
            };
            if !demand.fits_within(&remaining) {
                versions[cand.job_idx] += 1;
                if let Some((gain, action)) =
                    self.best_candidate(job, &allocs[cand.job_idx], &remaining, &capacity)
                {
                    heap.push(Candidate {
                        gain,
                        job_idx: cand.job_idx,
                        job: job.id,
                        action,
                        version: versions[cand.job_idx],
                    });
                }
                continue;
            }
            match cand.action {
                Action::AddWorker => allocs[cand.job_idx].workers += 1,
                Action::AddPs => allocs[cand.job_idx].ps += 1,
            }
            remaining -= demand;
            versions[cand.job_idx] += 1;
            if let Some((gain, action)) =
                self.best_candidate(job, &allocs[cand.job_idx], &remaining, &capacity)
            {
                heap.push(Candidate {
                    gain,
                    job_idx: cand.job_idx,
                    job: job.id,
                    action,
                    version: versions[cand.job_idx],
                });
            }
        }
        allocs
    }
}

// ---------------------------------------------------------------------
// Reference placer (§4.2, clone + per-job re-sort)
// ---------------------------------------------------------------------

/// The Theorem-1 placer exactly as first implemented: one `Cluster`
/// clone as scratch, a full re-sort of all servers by free CPU per job,
/// and fresh prefix sums of free capacity per job.
#[derive(Debug, Clone, Default)]
pub struct ReferenceOptimusPlacer;

impl ReferenceOptimusPlacer {
    fn try_place_on_k(
        job: &JobView,
        alloc: &Allocation,
        scratch: &mut Cluster,
        sorted: &[ServerId],
        k: usize,
    ) -> Option<JobPlacement> {
        let chosen = &sorted[..k];
        let counts = Self::even_counts(job, alloc, scratch, chosen, k)
            .or_else(|| Self::balanced_counts(job, alloc, scratch, chosen))?;
        let mut placement = Vec::with_capacity(k);
        for (i, &sid) in chosen.iter().enumerate() {
            if counts[i].ps == 0 && counts[i].workers == 0 {
                continue;
            }
            let demand = job.worker_profile * counts[i].workers as f64
                + job.ps_profile * counts[i].ps as f64;
            scratch
                .server_mut(sid)
                .expect("sorted ids are valid")
                .allocate(&demand)
                .expect("feasibility checked above");
            placement.push((sid, counts[i]));
        }
        Some(placement)
    }

    fn even_counts(
        job: &JobView,
        alloc: &Allocation,
        scratch: &Cluster,
        chosen: &[ServerId],
        k: usize,
    ) -> Option<Vec<TaskCounts>> {
        let kf = k as u32;
        let counts: Vec<TaskCounts> = (0..kf)
            .map(|i| TaskCounts {
                ps: alloc.ps / kf + u32::from(i < alloc.ps % kf),
                workers: alloc.workers / kf + u32::from(i < alloc.workers % kf),
            })
            .collect();
        for (i, &sid) in chosen.iter().enumerate() {
            let demand = job.worker_profile * counts[i].workers as f64
                + job.ps_profile * counts[i].ps as f64;
            if !scratch
                .server(sid)
                .expect("sorted ids are valid")
                .can_fit(&demand)
            {
                return None;
            }
        }
        Some(counts)
    }

    fn balanced_counts(
        job: &JobView,
        alloc: &Allocation,
        scratch: &Cluster,
        chosen: &[ServerId],
    ) -> Option<Vec<TaskCounts>> {
        let mut avail: Vec<ResourceVec> = chosen
            .iter()
            .map(|&sid| {
                scratch
                    .server(sid)
                    .expect("sorted ids are valid")
                    .available()
            })
            .collect();
        let mut counts = vec![TaskCounts::default(); chosen.len()];

        let place = |demand: &ResourceVec, avail: &mut [ResourceVec]| -> Option<usize> {
            let target = (0..avail.len())
                .filter(|&i| demand.fits_within(&avail[i]))
                .max_by(|&a, &b| {
                    avail[a]
                        .get(ResourceKind::Cpu)
                        .total_cmp(&avail[b].get(ResourceKind::Cpu))
                })?;
            avail[target] -= *demand;
            Some(target)
        };

        let pair_demand = job.ps_profile + job.worker_profile;
        let pairs = alloc.ps.min(alloc.workers);
        for _ in 0..pairs {
            if let Some(i) = place(&pair_demand, &mut avail) {
                counts[i].ps += 1;
                counts[i].workers += 1;
            } else {
                let i = place(&job.ps_profile, &mut avail)?;
                counts[i].ps += 1;
                let i = place(&job.worker_profile, &mut avail)?;
                counts[i].workers += 1;
            }
        }
        for _ in pairs..alloc.ps {
            let i = place(&job.ps_profile, &mut avail)?;
            counts[i].ps += 1;
        }
        for _ in pairs..alloc.workers {
            let i = place(&job.worker_profile, &mut avail)?;
            counts[i].workers += 1;
        }
        Some(counts)
    }
}

impl crate::placement::TaskPlacer for ReferenceOptimusPlacer {
    fn place(
        &self,
        allocations: &[Allocation],
        jobs: &[JobView],
        cluster: &Cluster,
    ) -> HashMap<JobId, JobPlacement> {
        let mut retries = 0u64;
        let mut scratch = cluster.clone();
        let mut out = HashMap::new();
        for i in crate::placement::smallest_first(allocations, jobs) {
            let job = &jobs[i];
            // Server list re-sorted per job (available CPU, §4.2).
            let sorted = scratch.ids_by_available_desc(|a| a.get(ResourceKind::Cpu));
            let free: Vec<ResourceVec> = sorted
                .iter()
                .map(|&sid| {
                    scratch
                        .server(sid)
                        .expect("sorted ids are valid")
                        .available()
                })
                .collect();
            let mut prefix = Vec::with_capacity(free.len() + 1);
            prefix.push(ResourceVec::zero());
            for f in &free {
                let last = *prefix.last().expect("non-empty");
                prefix.push(last + *f);
            }
            let total_free = *prefix.last().expect("non-empty");

            // Shrink-on-unplaceable, as in the production placer.
            let mut alloc = allocations[i];
            while !alloc.demand(job).fits_within(&total_free) && alloc.ps + alloc.workers > 2 {
                if alloc.ps >= alloc.workers {
                    alloc.ps -= 1;
                } else {
                    alloc.workers -= 1;
                }
            }
            let placed = loop {
                let demand = alloc.demand(job);
                if !demand.fits_within(&total_free) {
                    break None;
                }
                let k_min = (1..=sorted.len())
                    .find(|&k| demand.fits_within(&prefix[k]))
                    .unwrap_or(sorted.len());
                let k_max = (k_min + 8).min(sorted.len());
                let attempt = (k_min..=k_max)
                    .find_map(|k| Self::try_place_on_k(job, &alloc, &mut scratch, &sorted, k));
                if attempt.is_some() {
                    break attempt;
                }
                if alloc.ps + alloc.workers <= 2 {
                    break None;
                }
                if alloc.ps >= alloc.workers {
                    alloc.ps -= 1;
                } else {
                    alloc.workers -= 1;
                }
                retries += 1;
            };
            if let Some(p) = placed {
                out.insert(job.id, p);
            }
        }
        let _ = retries;
        out
    }
}
