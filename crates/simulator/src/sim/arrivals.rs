//! Admission: which jobs have arrived and which are live.

use super::recorders::Recorders;
use crate::events::SimEventKind;
use crate::jobstate::{JobStatus, SimJob};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The `(p, w)` sample runs that initialize each job's speed model
/// (§3.2 "Model fitting"; the paper uses 5).
const PROFILE_CONFIGS: [(u32, u32); 5] = [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8)];

/// The arrival index and the job lists derived from it.
#[derive(Debug)]
pub(super) struct Arrivals {
    /// The admission order; each admitted batch is re-sorted by job
    /// index in place, behind the cursor `admitted`.
    index: Vec<usize>,
    /// Jobs admitted so far, live or finished.
    pub(super) admitted: usize,
    /// Admitted, unfinished job indices, ascending: every per-round and
    /// per-sample pass walks it. Finishers leave it at the next round.
    pub(super) live: Vec<usize>,
    /// The previous live list plus this round's admissions: every job
    /// whose speed prediction may await settlement.
    pub(super) settle: Vec<usize>,
}

impl Arrivals {
    /// The admission order: jobs with a non-NaN `submit_time` (a NaN
    /// would block the cursor), ascending by it, ties in index order.
    /// Specs that arrive ordered (every generator's output) skip the
    /// sort.
    pub(super) fn new(jobs: &[SimJob]) -> Self {
        let at = |i: usize| jobs[i].spec.submit_time;
        let mut index: Vec<usize> = (0..jobs.len()).filter(|&i| !at(i).is_nan()).collect();
        if !index.windows(2).all(|w| at(w[0]) <= at(w[1])) {
            index.sort_by(|&a, &b| at(a).total_cmp(&at(b)));
        }
        Arrivals {
            index,
            admitted: 0,
            live: Vec::new(),
            settle: Vec::new(),
        }
    }

    /// Admits and profiles the jobs that arrived by `t` (§3.2 "Model
    /// fitting"), in job-index order so the RNG draws match a scan over
    /// every job, then rebuilds the settlement set and the live list.
    pub(super) fn admit(
        &mut self,
        t: f64,
        jobs: &mut [SimJob],
        rng: &mut ChaCha8Rng,
        profile_noise: f64,
        rec: &mut Recorders,
    ) {
        let first = self.admitted;
        self.admitted += self.index[first..]
            .iter()
            .take_while(|&&i| jobs[i].spec.submit_time <= t)
            .count();
        let admitted = &mut self.index[first..self.admitted];
        admitted.sort_unstable();
        for &i in admitted.iter() {
            let job = &mut jobs[i];
            let truth = optimus_ps::PsJobModel::new(job.spec.profile(), job.spec.mode);
            for &(p, w) in &PROFILE_CONFIGS {
                let noise = 1.0 + profile_noise * (rng.gen::<f64>() * 2.0 - 1.0);
                job.speed_model.record(p, w, truth.speed(p, w) * noise);
            }
            let _ = job.speed_model.refit();
            job.status = JobStatus::Paused; // active, awaiting placement
            let kind = SimEventKind::JobAdmitted {
                job: job.spec.id,
                profile_samples: PROFILE_CONFIGS.len(),
            };
            rec.log(t, t, kind);
        }
        // The settlement set keeps this interval's finishers (their
        // predictions are still pending); the live list drops them.
        self.settle.clear();
        self.settle.extend_from_slice(&self.live);
        self.settle.extend_from_slice(admitted);
        self.settle.sort_unstable();
        self.live.clear();
        self.live.extend(
            self.settle
                .iter()
                .copied()
                .filter(|&i| jobs[i].status != JobStatus::Finished),
        );
        debug_assert!(
            self.live.iter().copied().eq(jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| !matches!(j.status, JobStatus::Pending | JobStatus::Finished))
                .map(|(i, _)| i)),
            "live list diverged from the full scan at t={t}"
        );
    }
}
