//! Job progress: the per-tick body shared by both loops, and the event
//! engine's arithmetic spans and progress waves.

use super::recorders::Recorders;
use super::{Ticks, TICK_S};
use crate::equeue::{EventQueue, SimEventType};
use crate::events::SimEventKind;
use crate::jobstate::{JctPhase, JobStatus, SimJob};
use rand_chacha::ChaCha8Rng;

/// Which jobs the event engine must advance, and their speeds.
#[derive(Debug, Default)]
pub(super) struct Progress {
    /// Jobs that [`SimJob::needs_ticks`], ascending.
    active: Vec<usize>,
    /// Per-job ground-truth speed while tick-invariant (`None` = recompute).
    speed_cache: Vec<Option<f64>>,
    /// Progress waves fired (`sim.waves`).
    pub(super) waves: u64,
}

impl Progress {
    pub(super) fn new(n_jobs: usize) -> Self {
        let speed_cache = vec![None; n_jobs];
        Progress {
            speed_cache,
            ..Progress::default()
        }
    }

    /// Restarts from the live list after a round or a failure changed
    /// placements. Only live jobs can hold cache entries or need ticks.
    pub(super) fn reset(&mut self, jobs: &[SimJob], live: &[usize]) {
        for &i in live {
            self.speed_cache[i] = None;
        }
        debug_assert!(self.speed_cache.iter().all(Option::is_none));
        self.active.clear();
        self.active
            .extend(live.iter().copied().filter(|&i| jobs[i].needs_ticks()));
    }

    /// Anchors the wave chain at a round's `tick` while anything runs:
    /// the tick's own advancement still has to run.
    pub(super) fn anchor(&self, jobs: &[SimJob], tick: u64, queue: &mut EventQueue) {
        let running = |&i: &usize| jobs[i].status == JobStatus::Running;
        if self.active.iter().any(running) {
            queue.schedule(tick, SimEventType::ProgressWave);
        }
    }

    /// One progress wave: the per-tick body of every active job at
    /// `tick`, reusing cached speeds. Returns how many jobs finished.
    pub(super) fn wave(
        &mut self,
        jobs: &mut [SimJob],
        tick: u64,
        loss_every: u64,
        rng: &mut ChaCha8Rng,
        rec: &mut Recorders,
    ) -> usize {
        self.waves += 1;
        let t = tick as f64 * TICK_S;
        let loss_tick = tick.is_multiple_of(loss_every);
        let mut finished = 0;
        for &i in &self.active {
            let cache = Some(&mut self.speed_cache[i]);
            finished += usize::from(tick_job(&mut jobs[i], cache, t, loss_tick, rng, rec));
        }
        self.prune(jobs);
        finished
    }

    /// Schedules the wave after one at `tick`: the next tick while a
    /// running straggler monitor draws per-tick randomness, else the next
    /// loss-sample tick while anything runs, else none (the next round
    /// re-anchors the chain).
    pub(super) fn rearm(&self, jobs: &[SimJob], tick: u64, ticks: Ticks, queue: &mut EventQueue) {
        let mut next = None;
        for &i in &self.active {
            let job = &jobs[i];
            if job.status == JobStatus::Running {
                if !job.stragglers.is_quiescent() {
                    next = Some(tick + 1);
                    break;
                }
                next = Some((tick / ticks.loss + 1) * ticks.loss);
            }
        }
        if let Some(next) = next.filter(|&n| n < ticks.max) {
            queue.schedule(next, SimEventType::ProgressWave);
        }
    }

    /// Replays the event-free ticks `[from, to)` for every active job;
    /// the wave chain keeps loss samples and straggler randomness out of
    /// them. Completions inside the span go into the calendar (in tick,
    /// then job order); returns true when there were any.
    pub(super) fn advance_range(
        &mut self,
        jobs: &mut [SimJob],
        from: u64,
        to: u64,
        queue: &mut EventQueue,
    ) -> bool {
        let mut finished_any = false;
        for &i in &self.active {
            if let Some((tick, finish)) = span_job(&mut jobs[i], &mut self.speed_cache[i], from, to)
            {
                queue.schedule(tick, SimEventType::JobCompletion { job: i, finish });
                finished_any = true;
            }
        }
        self.prune(jobs);
        finished_any
    }

    /// Drops jobs whose per-tick body became a no-op.
    fn prune(&mut self, jobs: &[SimJob]) {
        self.active.retain(|&i| jobs[i].needs_ticks());
    }
}

/// Advances one job through the tick at `t`, the one per-tick body of
/// both loops: overhead drain, the deferred Overhead→next transition,
/// straggler dynamics (RNG), progress, the observed loss sample (RNG, on
/// loss ticks), and the convergence check with intra-tick finish
/// interpolation. `cache` is the job's speed-cache slot when a
/// tick-invariant speed may be reused (the event engine; the tick-loop
/// oracle passes `None`). Returns true when the job finished.
pub(super) fn tick_job(
    job: &mut SimJob,
    mut cache: Option<&mut Option<f64>>,
    t: f64,
    loss_tick: bool,
    rng: &mut ChaCha8Rng,
    rec: &mut Recorders,
) -> bool {
    let dt = TICK_S;
    if job.status == JobStatus::Finished {
        return false;
    }
    if job.overhead_remaining_s > 0.0 {
        job.overhead_remaining_s -= dt;
        return false;
    }
    if job.jct.phase() == JctPhase::Overhead {
        // The restart overhead just drained. The drain kept the job
        // active, so the event engine visits this tick too.
        let next = job.current_phase();
        job.jct.transition(next, t);
    }
    if job.status != JobStatus::Running {
        return false;
    }
    let speed = match cache.as_deref_mut() {
        // A quiescent monitor makes `advance` and the slowdown refresh
        // no-ops, so the speed's inputs are tick-invariant until reset.
        Some(slot) if job.stragglers.is_quiescent() => {
            *slot.get_or_insert_with(|| job.true_speed())
        }
        slot => {
            if let Some(slot) = slot {
                *slot = None;
            }
            let before = job.stragglers.replacements();
            job.stragglers.advance(dt, rng);
            let replaced = job.stragglers.replacements() - before;
            rec.straggler_replacements += replaced;
            if replaced > 0 {
                let kind = SimEventKind::StragglerReplaced {
                    job: job.spec.id,
                    replacements: replaced,
                };
                rec.log(t, t, kind);
            }
            job.stragglers
                .slowdown_factors_into(&mut job.env.worker_slowdown);
            job.true_speed()
        }
    };
    if speed <= 0.0 {
        return false;
    }
    job.steps_done += speed * dt;
    job.interval_active_s += dt;

    // Observed loss point (what the scheduler gets to see).
    if loss_tick {
        let spe = job.steps_per_epoch();
        let k = job.steps_done;
        let loss = job.spec.profile().curve.sample(k, spe, rng);
        job.convergence.record(k as u64, loss);
    }

    // Ground-truth convergence check.
    if job.steps_done >= job.true_total_steps as f64 {
        let finish = job.finish_within_tick(t, dt, speed);
        if let Some(slot) = cache {
            *slot = None;
        }
        rec.log_finish(t, job, finish);
        return true;
    }
    false
}

/// One job's event-free span `[from, to)`: the per-tick body without
/// loss samples and straggler randomness, with the tick loop's exact
/// float operations. Returns the `(tick, finish_time)` of a completion
/// inside the span.
fn span_job(job: &mut SimJob, cache: &mut Option<f64>, from: u64, to: u64) -> Option<(u64, f64)> {
    let dt = TICK_S;
    let mut tick = from;
    if job.status == JobStatus::Finished {
        return None;
    }
    // One subtraction per tick, like the tick loop.
    while tick < to && job.overhead_remaining_s > 0.0 {
        job.overhead_remaining_s -= dt;
        tick += 1;
    }
    if tick >= to {
        return None;
    }
    if job.jct.phase() == JctPhase::Overhead {
        let next = job.current_phase();
        job.jct.transition(next, tick as f64 * dt);
    }
    if job.status != JobStatus::Running {
        return None;
    }
    let speed = *cache.get_or_insert_with(|| job.true_speed());
    if speed <= 0.0 {
        return None;
    }
    // The tick loop multiplies the same operands every tick.
    let inc = speed * dt;
    let total = job.true_total_steps as f64;
    while tick < to {
        job.steps_done += inc;
        job.interval_active_s += dt;
        if job.steps_done >= total {
            let finish = job.finish_within_tick(tick as f64 * dt, dt, speed);
            *cache = None;
            return Some((tick, finish));
        }
        tick += 1;
    }
    None
}
