//! Proof that a warm steady-state scheduling round performs **zero**
//! heap allocations.
//!
//! A `#[global_allocator]` shim counts every `alloc`/`realloc`/
//! `alloc_zeroed` and forwards to the system allocator. The test warms
//! a persistent [`RoundScratch`] + [`Schedule`] with two identical
//! rounds (the first sizes every buffer, the second proves the sizes
//! are stable), then asserts the third round touches the allocator
//! exactly zero times. It then does the same for a cycle of delta
//! rounds: two cycles warm a second scratch, and every round of the
//! third must make zero allocator calls.
//!
//! Scope: this measures the *scheduling decision* with a disabled
//! telemetry handle — [`Scheduler::schedule_into`], the full round
//! `bench_sched` times, and [`Scheduler::schedule_delta`], the round the
//! simulator runs every interval (cold, contended churn, quiet and
//! uncontended churn). A full simulator tick additionally rebuilds
//! `JobView`s (cloning speed models) and rolls RNG-driven event state,
//! which allocate by design and are not part of the steady-state round
//! contract.
//!
//! Last, a speed-model refit of an already-fitted model (both training
//! modes, with a disabled and a recording telemetry handle) must also
//! make zero allocator calls: `nnls_rows` rebuilds rows on the stack
//! and the coefficients overwrite the previous fit's `Vec`.
//!
//! The file intentionally holds a single test: the counter is global,
//! and a sibling test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::prelude::*;
use optimus_core::RoundDelta;
use optimus_ps::PsJobModel;
use optimus_telemetry::Telemetry;
use optimus_workload::{JobId, ModelKind, TrainingMode};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Job `i` of the fixtures, with a profiled speed model.
fn job(i: u64, mode: TrainingMode) -> JobView {
    let kinds = [ModelKind::ResNet50, ModelKind::CnnRand, ModelKind::Seq2Seq];
    let profile = kinds[i as usize % kinds.len()].profile();
    let truth = PsJobModel::new(profile, mode);
    let mut speed = SpeedModel::new(mode, profile.batch_size as f64);
    for (p, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4)] {
        speed.record(p, w, truth.speed(p, w));
    }
    speed.refit().expect("profiled");
    JobView {
        id: JobId(i),
        worker_profile: ResourceVec::new(1.0 + (i % 4) as f64 * 0.25, 0.0, 2.0, 0.25),
        ps_profile: ResourceVec::new(1.0, 0.0, 2.0 + (i % 3) as f64 * 0.5, 0.5),
        remaining_work: 500.0 + i as f64 * 37.0,
        speed,
        progress: (i % 10) as f64 / 10.0,
        requested_units: 1 + (i % 5) as u32,
    }
}

/// A moderately busy fixture: 24 heterogeneous jobs on a 40-server
/// cluster, enough to exercise the heap, the placer's k-probe loop and
/// the shrink-on-unplaceable path.
fn fixture() -> (Vec<JobView>, Cluster) {
    let modes = [TrainingMode::Synchronous, TrainingMode::Asynchronous];
    let jobs = (0..24u64)
        .map(|i| job(i, modes[i as usize % modes.len()]))
        .collect();
    let caps: Vec<(ResourceVec, &str)> = (0..40)
        .map(|s| {
            (
                ResourceVec::new(8.0 + (s % 3) as f64, 0.0, 16.0 + (s % 5) as f64, 2.0),
                "zero-alloc",
            )
        })
        .collect();
    (jobs, Cluster::from_capacities(&caps))
}

/// An uncontended fixture: six synchronous jobs (their speed curves
/// saturate, so solo climbs stop at finite counts) on a cluster far
/// larger than their demand, so the delta round's headroom certificate
/// holds and clean jobs replay their grants.
fn roomy_fixture() -> (Vec<JobView>, Cluster) {
    let jobs = (0..6u64)
        .map(|i| job(i, TrainingMode::Synchronous))
        .collect();
    let caps = vec![(ResourceVec::new(64.0, 0.0, 128.0, 8.0), "roomy"); 100];
    (jobs, Cluster::from_capacities(&caps))
}

#[test]
fn warm_steady_state_round_allocates_nothing() {
    let (jobs, cluster) = fixture();
    let scheduler = OptimusScheduler::build();
    let mut scratch = RoundScratch::default();
    let mut out = Schedule::new(Vec::new(), HashMap::new());

    // Round 1 sizes every buffer; round 2 proves the sizes are stable.
    scheduler.schedule_into(&jobs, &cluster, &mut scratch, &mut out);
    let warm = out.allocations().to_vec();
    scheduler.schedule_into(&jobs, &cluster, &mut scratch, &mut out);

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    scheduler.schedule_into(&jobs, &cluster, &mut scratch, &mut out);
    let after = ALLOC_CALLS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "a warm steady-state round must not touch the heap"
    );
    // The warm round still produced the real answer.
    assert_eq!(out.allocations(), &warm[..]);
    assert!(out.allocations().iter().any(|a| a.workers > 0));

    // The simulator's path: one cycle of delta rounds covering every
    // kind — cold, contended churn (full fallback plus prefix
    // placement replay), quiet (whole-round skip), then a cold and an
    // uncontended churn round (grant replay) on the roomy fixture.
    let mut churned = jobs.clone();
    churned[5].remaining_work *= 2.0;
    let (calm, roomy) = roomy_fixture();
    let mut calm_churned = calm.clone();
    calm_churned[2].remaining_work *= 0.5;
    let cold = RoundDelta {
        full: true,
        ..RoundDelta::default()
    };
    let dirty = |i: u32| RoundDelta {
        dirty: vec![i],
        ..RoundDelta::default()
    };
    let (churn, calm_churn, quiet) = (dirty(5), dirty(2), RoundDelta::default());
    let rounds: [(&str, &[JobView], &Cluster, &RoundDelta); 5] = [
        ("cold", &jobs, &cluster, &cold),
        ("contended churn", &churned, &cluster, &churn),
        ("quiet", &churned, &cluster, &quiet),
        ("roomy cold", &calm, &roomy, &cold),
        ("uncontended churn", &calm_churned, &roomy, &calm_churn),
    ];
    let mut scratch = RoundScratch::default();
    let mut out = Schedule::default();
    // Two cycles size every buffer; the third is measured round by round.
    for cycle in 0..3 {
        for &(name, jobs, cluster, delta) in &rounds {
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            let stats = scheduler.schedule_delta(jobs, cluster, delta, &mut scratch, &mut out);
            let calls = ALLOC_CALLS.load(Ordering::SeqCst) - before;
            if cycle < 2 {
                continue;
            }
            assert_eq!(calls, 0, "a warm {name} round must not touch the heap");
            let kind_ok = match name {
                "quiet" => stats.skipped_full,
                "uncontended churn" => !stats.alloc_full && stats.replayed_grants > 0,
                _ => stats.alloc_full && !stats.skipped_full && !stats.place_reused,
            };
            assert!(kind_ok, "{name} round ran the wrong path: {stats:?}");
        }
    }

    // A speed refit of a fitted model: the first refit creates the
    // model and the telemetry entries, the next sample is recorded
    // outside the measurement (the sample `Vec` may grow), and the
    // measured refit folds it in.
    for mode in [TrainingMode::Synchronous, TrainingMode::Asynchronous] {
        for tel in [Telemetry::disabled(), Telemetry::enabled()] {
            let mut speed = job(0, mode).speed.with_telemetry(tel);
            speed.refit().expect("profiled");
            speed.record(3, 5, 0.8);
            let before = ALLOC_CALLS.load(Ordering::SeqCst);
            let fitted = speed.refit();
            let calls = ALLOC_CALLS.load(Ordering::SeqCst) - before;
            assert!(fitted.is_ok());
            assert_eq!(calls, 0, "a {mode:?} speed refit must not touch the heap");
        }
    }
}
