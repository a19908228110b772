//! Ground-truth step time and training speed (Eqn 2 / §3.2).
//!
//! The duration of one training step on a worker is modeled as
//!
//! ```text
//! T = m·T_forward + T_back + 2·(S/p)/(B/w'_p) + T_update·w'_p/p
//!     + δ·w + δ'·p
//! ```
//!
//! where `m` is the per-worker mini-batch, `S` the model size, `B` the
//! PS-side bandwidth, and `w'_p` the number of workers concurrently
//! pushing to one PS (`w` for synchronous training; `γ·w` for
//! asynchronous). The training speed is `1/T` (synchronous) or `w/T`
//! (asynchronous, aggregate steps/s).
//!
//! [`EnvFactors`] extends the ideal model with the runtime effects the
//! rest of the system produces: placement-dependent transfer stretch
//! (§4.2), PS load imbalance (§5.3), and straggling workers (§5.2).
//! The simulator uses [`PsJobModel::speed_with`] as physics; schedulers
//! never see it — they fit their own model from observed samples.

use optimus_workload::{ModelProfile, TrainingMode};
use serde::{Deserialize, Serialize};

/// Default PS-side effective NIC bandwidth, bytes/second: the §6.1
/// testbed's 1 GbE port is shared by the ~5 containers a server hosts,
/// so each task sees ~25 MB/s (this is why the paper's Table 2 shows
/// communication terms dominating).
pub const DEFAULT_PS_BANDWIDTH: f64 = 25e6;

/// Default fraction of workers concurrently pushing to one PS in
/// asynchronous training (the paper assumes `w'_p` linear in `w`).
pub const DEFAULT_ASYNC_CONCURRENCY: f64 = 0.5;

/// Environmental factors modulating the ideal Eqn-2 step time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvFactors {
    /// Ratio of the placement-dependent transfer time to the ideal
    /// all-cross-server transfer time, in `[0, 1]` for good placements
    /// (1 = every PS–worker pair crosses servers). Computed from
    /// [`crate::transfer::transfer_time`].
    pub transfer_stretch: f64,
    /// PS load-imbalance factor: bytes on the most loaded PS divided by
    /// the mean bytes per PS (`≥ 1`; 1 = perfectly balanced, §5.3).
    pub imbalance: f64,
    /// Per-worker slowdown factors (1 = nominal speed, 2 = half speed).
    /// Synchronous training is gated by the slowest worker; asynchronous
    /// aggregate speed sums the per-worker rates (§5.2).
    pub worker_slowdown: Vec<f64>,
    /// Cross-job NIC oversubscription on the job's most congested server
    /// (≥ 1; from [`crate::contention`]). Stretches the communication
    /// phase like `imbalance` does.
    pub nic_oversubscription: f64,
}

impl Default for EnvFactors {
    /// The ideal environment assumed by Eqn 2: all transfers cross
    /// servers, perfectly balanced parameter servers, no stragglers.
    fn default() -> Self {
        EnvFactors {
            transfer_stretch: 1.0,
            imbalance: 1.0,
            worker_slowdown: Vec::new(),
            nic_oversubscription: 1.0,
        }
    }
}

impl EnvFactors {
    /// The slowest worker's slowdown factor (1.0 when none recorded).
    pub fn max_slowdown(&self) -> f64 {
        self.worker_slowdown.iter().cloned().fold(1.0_f64, f64::max)
    }

    /// Mean of `1/slowdown` across workers — the aggregate-rate factor
    /// for asynchronous training (1.0 when none recorded).
    pub fn mean_rate_factor(&self) -> f64 {
        if self.worker_slowdown.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.worker_slowdown.iter().map(|s| 1.0 / s.max(1e-9)).sum();
        sum / self.worker_slowdown.len() as f64
    }
}

/// Ground-truth performance model of one job on the PS substrate.
#[derive(Debug, Clone)]
pub struct PsJobModel<'a> {
    profile: &'a ModelProfile,
    mode: TrainingMode,
}

impl<'a> PsJobModel<'a> {
    /// Creates the model with the testbed's PS-side bandwidth
    /// [`DEFAULT_PS_BANDWIDTH`] and async concurrency
    /// [`DEFAULT_ASYNC_CONCURRENCY`] (γ = 0.5).
    pub fn new(profile: &'a ModelProfile, mode: TrainingMode) -> Self {
        PsJobModel { profile, mode }
    }

    /// The training mode this model was built for.
    pub fn mode(&self) -> TrainingMode {
        self.mode
    }

    /// The underlying model profile.
    pub fn profile(&self) -> &ModelProfile {
        self.profile
    }

    /// Per-worker mini-batch size at `w` workers.
    pub fn minibatch(&self, w: u32) -> f64 {
        match self.mode {
            // Fixed global batch split across workers (§3.2): m = M/w.
            TrainingMode::Synchronous => self.profile.batch_size as f64 / w.max(1) as f64,
            TrainingMode::Asynchronous => self.profile.minibatch_size as f64,
        }
    }

    /// Number of workers concurrently pushing to one PS (`w'_p`).
    fn concurrent_pushers(&self, w: u32) -> f64 {
        match self.mode {
            TrainingMode::Synchronous => w as f64,
            TrainingMode::Asynchronous => (DEFAULT_ASYNC_CONCURRENCY * w as f64).max(1.0),
        }
    }

    /// Ideal Eqn-2 step time with `p` parameter servers and `w` workers.
    pub fn step_time(&self, p: u32, w: u32) -> f64 {
        self.step_time_with(p, w, &EnvFactors::default())
    }

    /// Eqn-2 step time under explicit environmental factors.
    ///
    /// Returns `f64::INFINITY` when `p == 0 || w == 0` (the job cannot
    /// run), which propagates naturally into a zero speed.
    pub fn step_time_with(&self, p: u32, w: u32, env: &EnvFactors) -> f64 {
        if p == 0 || w == 0 {
            return f64::INFINITY;
        }
        let prof = self.profile;
        let s = prof.model_size_bytes();
        let pf = p as f64;
        let wf = w as f64;

        let compute = self.minibatch(w) * prof.forward_time_per_example + prof.backward_time;
        let pushers = self.concurrent_pushers(w);
        // 2 · (S/p) / (B / w'_p), stretched by placement locality and PS
        // imbalance (the bottleneck PS holds `imbalance ×` its fair share
        // of parameters, so transfers to it take that much longer).
        let ideal_transfer = 2.0 * (s / pf) * pushers / DEFAULT_PS_BANDWIDTH;
        let transfer = ideal_transfer
            * env.transfer_stretch.max(0.0)
            * env.imbalance.max(1.0)
            * env.nic_oversubscription.max(1.0);
        let update = prof.update_time * pushers / pf * env.imbalance.max(1.0);
        let overhead = prof.overhead_per_worker * wf + prof.overhead_per_ps * pf;

        let base = compute + transfer + update + overhead;
        match self.mode {
            // All workers synchronize on the slowest one.
            TrainingMode::Synchronous => base * env.max_slowdown(),
            TrainingMode::Asynchronous => base,
        }
    }

    /// Ideal ground-truth training speed `f(p, w)` in steps/s
    /// (aggregate worker steps/s for asynchronous training).
    pub fn speed(&self, p: u32, w: u32) -> f64 {
        self.speed_with(p, w, &EnvFactors::default())
    }

    /// Ground-truth training speed under explicit environmental factors.
    pub fn speed_with(&self, p: u32, w: u32, env: &EnvFactors) -> f64 {
        let t = self.step_time_with(p, w, env);
        if !t.is_finite() || t <= 0.0 {
            return 0.0;
        }
        match self.mode {
            TrainingMode::Synchronous => 1.0 / t,
            // Aggregate rate over workers; stragglers reduce their own
            // contribution only.
            TrainingMode::Asynchronous => w as f64 * env.mean_rate_factor() / t,
        }
    }

    /// Epoch progress per second at `(p, w)`: speed divided by the steps
    /// in one epoch for this mode.
    pub fn epochs_per_second(&self, p: u32, w: u32, dataset_scale: f64, env: &EnvFactors) -> f64 {
        let steps_per_epoch = match self.mode {
            TrainingMode::Synchronous => self.profile.sync_steps_per_epoch(dataset_scale),
            TrainingMode::Asynchronous => self.profile.async_steps_per_epoch(dataset_scale),
        };
        self.speed_with(p, w, env) / steps_per_epoch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_workload::ModelKind;

    fn resnet(mode: TrainingMode) -> PsJobModel<'static> {
        PsJobModel::new(ModelKind::ResNet50.profile(), mode)
    }

    #[test]
    fn zero_tasks_cannot_run() {
        let m = resnet(TrainingMode::Synchronous);
        assert_eq!(m.speed(0, 5), 0.0);
        assert_eq!(m.speed(5, 0), 0.0);
        assert!(m.step_time(0, 1).is_infinite());
    }

    #[test]
    fn fig4a_speed_peaks_interior() {
        // Fix p + w = 20 (Fig 4a): the maximum must be at an interior
        // split, not at either extreme.
        let m = resnet(TrainingMode::Synchronous);
        let speeds: Vec<f64> = (1..20).map(|w| m.speed(20 - w, w)).collect();
        let (argmax, _) = speeds
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let w_best = argmax + 1;
        assert!(
            (4..=16).contains(&w_best),
            "peak at w = {w_best}, speeds {speeds:?}"
        );
        // Magnitude check: ~1e-1 steps/s regime as in Fig 4.
        assert!(speeds[argmax] > 0.05 && speeds[argmax] < 0.5);
    }

    #[test]
    fn fig4b_diminishing_returns_on_1_to_1_scaling() {
        // Fix p : w = 1 : 1 (Fig 4b): speed grows sub-linearly.
        let m = resnet(TrainingMode::Synchronous);
        let s5 = m.speed(5, 5);
        let s10 = m.speed(10, 10);
        let s20 = m.speed(20, 20);
        assert!(s10 > s5 && s20 > s10, "monotone in this range");
        let gain1 = s10 / s5;
        let gain2 = s20 / s10;
        assert!(gain2 < gain1, "diminishing returns: {gain1} vs {gain2}");
        // Doubling resources never doubles speed here.
        assert!(gain1 < 2.0 && gain2 < 2.0);
    }

    #[test]
    fn sync_can_slow_down_with_too_many_workers() {
        // §3.2 observation (c): with the batch fixed, very large w leaves
        // workers under-utilized while overhead keeps growing.
        let m = resnet(TrainingMode::Synchronous);
        let s64 = m.speed(64, 64);
        let s160 = m.speed(160, 160);
        assert!(
            s160 < s64,
            "speed should eventually fall: s64={s64} s160={s160}"
        );
    }

    #[test]
    fn async_speed_roughly_linear_then_saturates() {
        let m = resnet(TrainingMode::Asynchronous);
        let s2 = m.speed(2, 2);
        let s4 = m.speed(4, 4);
        // Early scaling is close to linear (compute dominated)…
        assert!(s4 / s2 > 1.5);
        // …but 16× the resources give well under 16× the speed.
        let s32 = m.speed(32, 32);
        assert!(s32 / s2 < 16.0);
    }

    #[test]
    fn straggler_gates_sync_but_only_dilutes_async() {
        let sync = resnet(TrainingMode::Synchronous);
        let env = EnvFactors {
            worker_slowdown: vec![1.0, 1.0, 1.0, 2.0],
            ..EnvFactors::default()
        };
        let clean = sync.speed(4, 4);
        let slowed = sync.speed_with(4, 4, &env);
        assert!((slowed - clean / 2.0).abs() / clean < 1e-9);

        let asy = resnet(TrainingMode::Asynchronous);
        let clean_a = asy.speed(4, 4);
        let slowed_a = asy.speed_with(4, 4, &env);
        // One of four workers at half speed ⇒ 87.5 % aggregate.
        assert!((slowed_a / clean_a - 0.875).abs() < 1e-9);
    }

    #[test]
    fn imbalance_slows_training() {
        let m = resnet(TrainingMode::Synchronous);
        let balanced = m.speed(10, 10);
        let mut env = EnvFactors {
            imbalance: 1.5,
            ..EnvFactors::default()
        };
        let imbalanced = m.speed_with(10, 10, &env);
        assert!(imbalanced < balanced);
        // Imbalance below 1 is clamped (cannot be better than balanced).
        env.imbalance = 0.5;
        assert!((m.speed_with(10, 10, &env) - balanced).abs() < 1e-12);
    }

    #[test]
    fn nic_contention_slows_training() {
        let m = resnet(TrainingMode::Synchronous);
        let clean = m.speed(10, 10);
        let mut env = EnvFactors {
            nic_oversubscription: 2.0,
            ..EnvFactors::default()
        };
        let contended = m.speed_with(10, 10, &env);
        assert!(contended < clean);
        // Sub-1 values are clamped (contention never helps).
        env.nic_oversubscription = 0.5;
        assert!((m.speed_with(10, 10, &env) - clean).abs() < 1e-12);
    }

    #[test]
    fn good_placement_speeds_up_training() {
        let m = resnet(TrainingMode::Synchronous);
        let all_remote = m.speed(10, 10);
        let env = EnvFactors {
            transfer_stretch: 0.5, // half the traffic is server-local
            ..EnvFactors::default()
        };
        let colocated = m.speed_with(10, 10, &env);
        assert!(colocated > all_remote);
    }

    #[test]
    fn sync_minibatch_shrinks_with_workers() {
        let m = resnet(TrainingMode::Synchronous);
        assert_eq!(m.minibatch(1), 256.0);
        assert_eq!(m.minibatch(8), 32.0);
        let a = resnet(TrainingMode::Asynchronous);
        assert_eq!(a.minibatch(1), 32.0);
        assert_eq!(a.minibatch(8), 32.0);
    }

    #[test]
    fn epochs_per_second_consistent_with_speed() {
        let m = resnet(TrainingMode::Synchronous);
        let env = EnvFactors::default();
        let eps = m.epochs_per_second(10, 10, 1.0, &env);
        let expected =
            m.speed(10, 10) / ModelKind::ResNet50.profile().sync_steps_per_epoch(1.0) as f64;
        assert!((eps - expected).abs() < 1e-15);
    }
}

#[cfg(test)]
mod reference_consistency {
    use super::*;
    use optimus_workload::ModelKind;

    /// `ModelProfile::reference_step_time` (used for workload
    /// calibration) must match `PsJobModel` with default parameters.
    #[test]
    fn reference_step_time_matches_ps_model() {
        for kind in ModelKind::ALL {
            let profile = kind.profile();
            for mode in [TrainingMode::Synchronous, TrainingMode::Asynchronous] {
                let model = PsJobModel::new(profile, mode);
                for &(p, w) in &[(1u32, 1u32), (4, 4), (8, 8), (3, 9), (12, 5)] {
                    let a = model.step_time(p, w);
                    let b = profile.reference_step_time(mode, p, w);
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{} {:?} ({p},{w}): {a} vs {b}",
                        profile.name,
                        mode
                    );
                }
            }
        }
    }
}
