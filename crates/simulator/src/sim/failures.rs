//! Permanent server crashes (`SimConfig::server_failures`).

use super::TICK_S;
use crate::jobstate::{JobStatus, SimJob};
use optimus_cluster::ServerId;

/// The servers that have crashed so far, in crash order.
#[derive(Debug, Default)]
pub(super) struct Failures {
    pub(super) failed: Vec<ServerId>,
}

impl Failures {
    /// Applies the crashes of `schedule` due by `t`: the server leaves
    /// scheduling for good, and every job with tasks on it pauses (and
    /// pays the §5.4 restart at its redeployment). Returns `true` when a
    /// failure was applied.
    pub(super) fn apply(
        &mut self,
        t: f64,
        schedule: &[(f64, ServerId)],
        jobs: &mut [SimJob],
        live: &[usize],
    ) -> bool {
        if self.failed.len() == schedule.len() {
            // Nothing can be due: skip the per-tick scan.
            return false;
        }
        let due: Vec<ServerId> = schedule
            .iter()
            .filter(|&&(at, sid)| at <= t && !self.failed.contains(&sid))
            .map(|&(_, sid)| sid)
            .collect();
        let applied = !due.is_empty();
        for sid in due {
            self.failed.push(sid);
            for &i in live {
                let job = &mut jobs[i];
                if job.status == JobStatus::Running && job.placement.iter().any(|&(s, _)| s == sid)
                {
                    job.status = JobStatus::Paused;
                    job.ps = 0;
                    job.workers = 0;
                    job.placement.clear();
                    // Both loops apply it on the first tick that
                    // reaches `at` (`first_tick_at`).
                    let next = job.current_phase();
                    job.jct.transition(next, t);
                }
            }
        }
        applied
    }
}

/// First tick at which `at <= t` holds, stepped up from one below the
/// float quotient so rounding can't overshoot. Times past the exact
/// tick range (`+∞` included) map to `u64::MAX`, i.e. never; NaN and
/// `-∞` map to tick 0.
pub(super) fn first_tick_at(at: f64) -> u64 {
    let quotient = (at / TICK_S).floor();
    if quotient >= (1u64 << f64::MANTISSA_DIGITS) as f64 {
        return u64::MAX;
    }
    let mut trig = (quotient as i64).saturating_sub(1).max(0) as u64;
    while (trig as f64) * TICK_S < at {
        trig += 1;
    }
    trig
}
