//! Equivalence of the optimized hot path and the naive reference.
//!
//! The PR that introduced the incremental free-capacity index, the
//! per-round prediction memo, and the O(1) `Schedule` lookups promises
//! *behavioral identity*: the same `Schedule` for the same inputs. The
//! [`optimus_core::reference`] module keeps the pre-optimization
//! algorithms as an executable specification; this property test runs
//! both sides on randomized clusters and job mixes and requires every
//! allocation row and every placement map to be identical.
//!
//! Resource quantities are generated as multiples of 0.25 so all sums
//! are exactly representable — a disagreement can only come from a real
//! algorithmic divergence, never float noise.
//!
//! The speed models' refit is checked the same way: `SpeedModel::refit`
//! (the allocation-free `nnls_rows`) against `NonNegLinearFit::fit_rows`
//! over materialized feature rows, bit for bit, telemetry included.

use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::allocation::{OptimusAllocator, ResourceAllocator};
use optimus_core::placement::{OptimusPlacer, TaskPlacer};
use optimus_core::prelude::*;
use optimus_core::reference::{ReferenceOptimusAllocator, ReferenceOptimusPlacer};
use optimus_core::speed::SpeedSample;
use optimus_core::RoundDelta;
use optimus_fitting::nnls::nnls_traced;
use optimus_fitting::{FitError, LinearModel, Matrix, NonNegLinearFit};
use optimus_ps::PsJobModel;
use optimus_telemetry::Telemetry;
use optimus_workload::{JobId, ModelKind, TrainingMode};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Prefit speed models (3 model kinds × 2 training modes), shared by
/// all cases — fitting is the expensive part and is not under test.
fn model_pool() -> &'static Vec<SpeedModel> {
    static MODELS: OnceLock<Vec<SpeedModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut pool = Vec::new();
        for kind in [ModelKind::ResNet50, ModelKind::CnnRand, ModelKind::Seq2Seq] {
            for mode in [TrainingMode::Synchronous, TrainingMode::Asynchronous] {
                let profile = kind.profile();
                let truth = PsJobModel::new(profile, mode);
                let mut speed = SpeedModel::new(mode, profile.batch_size as f64);
                for (p, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4)] {
                    speed.record(p, w, truth.speed(p, w));
                }
                speed.refit().expect("profiled");
                pool.push(speed);
            }
        }
        pool
    })
}

/// `((model_idx, work, progress_pct, units), (cpu_q, mem_q, bw_q))` →
/// JobView. The `_q` values are quarters, so every profile coordinate
/// is a multiple of 0.25.
type JobSeed = ((usize, u64, u32, u32), (u32, u32, u32));

fn make_job(id: u64, seed: &JobSeed) -> JobView {
    let &((model_idx, work, progress_pct, units), (cpu_q, mem_q, bw_q)) = seed;
    let pool = model_pool();
    let profile = ResourceVec::new(
        1.0 + cpu_q as f64 * 0.25,
        0.0,
        2.0 + mem_q as f64 * 0.25,
        bw_q as f64 * 0.25,
    );
    JobView {
        id: JobId(id),
        worker_profile: profile,
        ps_profile: profile,
        remaining_work: 100.0 + work as f64,
        speed: pool[model_idx % pool.len()].clone(),
        progress: progress_pct as f64 / 100.0,
        requested_units: units,
    }
}

/// `(cpu_q, mem_q, bw_q)` quarters → heterogeneous server capacity.
fn make_cluster(servers: &[(u32, u32, u32)]) -> Cluster {
    let caps: Vec<(ResourceVec, &str)> = servers
        .iter()
        .map(|&(cpu_q, mem_q, bw_q)| {
            (
                ResourceVec::new(
                    4.0 + cpu_q as f64 * 0.25,
                    0.0,
                    8.0 + mem_q as f64 * 0.25,
                    1.0 + bw_q as f64 * 0.25,
                ),
                "random",
            )
        })
        .collect();
    Cluster::from_capacities(&caps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn optimized_path_matches_reference(
        servers in prop::collection::vec((0u32..240, 0u32..360, 0u32..16), 3..24),
        seeds in prop::collection::vec(
            ((0usize..6, 0u64..100_000, 0u32..100, 1u32..10), (0u32..40, 0u32..64, 0u32..8)),
            1..16,
        ),
    ) {
        let cluster = make_cluster(&servers);
        let jobs: Vec<JobView> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| make_job(i as u64, s))
            .collect();

        // Allocator equivalence.
        let fast_allocs = OptimusAllocator::default().allocate(&jobs, &cluster);
        let ref_allocs = ReferenceOptimusAllocator::default().allocate(&jobs, &cluster);
        prop_assert_eq!(&fast_allocs, &ref_allocs, "allocations diverge");

        // Placer equivalence on the agreed allocations.
        let fast_place = OptimusPlacer::default().place(&fast_allocs, &jobs, &cluster);
        let ref_place = ReferenceOptimusPlacer.place(&ref_allocs, &jobs, &cluster);
        prop_assert_eq!(&fast_place, &ref_place, "placements diverge");

        // End-to-end composite equivalence (what the simulator runs).
        let fast = CompositeScheduler::new(
            "optimized",
            Box::new(OptimusAllocator::default()),
            Box::new(OptimusPlacer::default()),
        )
        .schedule(&jobs, &cluster);
        let reference = CompositeScheduler::new(
            "reference",
            Box::new(ReferenceOptimusAllocator::default()),
            Box::new(ReferenceOptimusPlacer),
        )
        .schedule(&jobs, &cluster);
        prop_assert_eq!(fast.allocations(), reference.allocations());
        prop_assert_eq!(fast.placements(), reference.placements());
    }

    #[test]
    fn optimized_path_matches_reference_with_priority_factor(
        servers in prop::collection::vec((0u32..240, 0u32..360, 0u32..16), 3..16),
        seeds in prop::collection::vec(
            ((0usize..6, 0u64..100_000, 0u32..100, 1u32..10), (0u32..40, 0u32..64, 0u32..8)),
            1..12,
        ),
    ) {
        let cluster = make_cluster(&servers);
        let jobs: Vec<JobView> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| make_job(i as u64, s))
            .collect();
        let fast = OptimusAllocator::default()
            .with_priority_factor(0.95)
            .allocate(&jobs, &cluster);
        let reference = ReferenceOptimusAllocator::default()
            .with_priority_factor(0.95)
            .allocate(&jobs, &cluster);
        prop_assert_eq!(&fast, &reference);
    }

    /// Permuting the job slice never changes what any job is granted:
    /// both the starter loop and the heap tie-break key on the job id,
    /// never on slice position. The optimized allocator on a shuffled
    /// slice must agree per-id with the reference on the original
    /// order (and with itself).
    #[test]
    fn permuting_job_order_never_changes_allocations(
        servers in prop::collection::vec((0u32..240, 0u32..360, 0u32..16), 3..16),
        seeds in prop::collection::vec(
            ((0usize..6, 0u64..100_000, 0u32..100, 1u32..10), (0u32..40, 0u32..64, 0u32..8)),
            2..12,
        ),
        shuffle_seed in any::<u64>(),
    ) {
        let cluster = make_cluster(&servers);
        let jobs: Vec<JobView> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| make_job(i as u64, s))
            .collect();

        // Seeded Fisher–Yates so every case is reproducible.
        let mut shuffled = jobs.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }

        let by_id = |mut rows: Vec<Allocation>| {
            rows.sort_unstable_by_key(|a| a.job);
            rows
        };
        let reference = by_id(ReferenceOptimusAllocator::default().allocate(&jobs, &cluster));
        let fast_orig = by_id(OptimusAllocator::default().allocate(&jobs, &cluster));
        let fast_perm = by_id(OptimusAllocator::default().allocate(&shuffled, &cluster));
        let ref_perm = by_id(ReferenceOptimusAllocator::default().allocate(&shuffled, &cluster));
        prop_assert_eq!(&fast_orig, &reference, "optimized diverges from reference");
        prop_assert_eq!(&fast_perm, &reference, "optimized is order-sensitive");
        prop_assert_eq!(&ref_perm, &reference, "reference is order-sensitive");
    }

    /// Reusing one `RoundScratch` + `Schedule` across rounds with
    /// *different* inputs matches a fresh `schedule()` every time — no
    /// state leaks between rounds.
    #[test]
    fn warm_scratch_rounds_match_fresh_schedules(
        servers in prop::collection::vec((0u32..240, 0u32..360, 0u32..16), 3..16),
        seeds in prop::collection::vec(
            ((0usize..6, 0u64..100_000, 0u32..100, 1u32..10), (0u32..40, 0u32..64, 0u32..8)),
            2..12,
        ),
    ) {
        let cluster = make_cluster(&servers);
        let jobs: Vec<JobView> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| make_job(i as u64, s))
            .collect();
        let scheduler = OptimusScheduler::build();
        let mut scratch = RoundScratch::default();
        let mut out = Schedule::new(Vec::new(), std::collections::HashMap::new());
        // Three rounds over shrinking suffixes of the job list — each
        // round reuses the scratch sized by the previous one.
        for start in [0usize, jobs.len() / 2, jobs.len() - 1] {
            let round_jobs = &jobs[start..];
            scheduler.schedule_into(round_jobs, &cluster, &mut scratch, &mut out);
            let fresh = scheduler.schedule(round_jobs, &cluster);
            prop_assert_eq!(out.allocations(), fresh.allocations());
            prop_assert_eq!(out.placements(), fresh.placements());
        }
    }

    /// The delta engine under arbitrary churn — arrivals, departures,
    /// per-job work jitter and cluster resizes, each reported to
    /// [`Scheduler::schedule_delta`] with an *exact* dirty list — is
    /// byte-identical every round to the naive reference scheduler run
    /// from scratch (the production `schedule()` shares the delta
    /// round's placement loop, so it would be no independent witness).
    /// This covers both regimes: big generated clusters where the
    /// headroom certificate holds (grants replayed), and contended ones
    /// where it fails (silent fall back to the full greedy pass) — at
    /// the default priority factor and the §6.3 one.
    #[test]
    fn delta_rounds_match_full_rounds_under_churn(
        mut servers in prop::collection::vec((0u32..240, 0u32..360, 0u32..16), 3..16),
        seeds in prop::collection::vec(
            ((0usize..6, 0u64..100_000, 0u32..100, 1u32..10), (0u32..40, 0u32..64, 0u32..8)),
            2..10,
        ),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(any::<u64>(), 0..3),
                (0u32..10, ((0usize..6, 0u64..100_000, 0u32..100, 1u32..10), (0u32..40, 0u32..64, 0u32..8))),
                (0u32..10, any::<u64>()),
                0u32..10,
            ),
            1..6,
        ),
        damped in any::<bool>(),
    ) {
        let factor = if damped { 0.95 } else { 1.0 };
        let mut next_id = seeds.len() as u64;
        let mut jobs: Vec<JobView> = seeds
            .iter()
            .enumerate()
            .map(|(i, s)| make_job(i as u64, s))
            .collect();
        let mut cluster = make_cluster(&servers);
        let scheduler = OptimusScheduler::with_priority_factor(factor);
        let reference = CompositeScheduler::new(
            "reference",
            Box::new(ReferenceOptimusAllocator::default().with_priority_factor(factor)),
            Box::new(ReferenceOptimusPlacer),
        );
        let mut scratch = RoundScratch::default();
        let mut out = Schedule::new(Vec::new(), std::collections::HashMap::new());
        let mut first = true;

        for (jitters, (arrive_p, arrive_seed), (depart_p, depart_pick), resize_p) in &rounds {
            let mut dirty: Vec<u32> = Vec::new();
            // ~30 % of rounds lose a job, ~40 % gain one, ~20 % resize
            // the cluster; every round may jitter up to two jobs.
            if *depart_p < 3 && jobs.len() > 1 {
                let gone = (*depart_pick as usize) % jobs.len();
                jobs.remove(gone);
            }
            if *arrive_p < 4 {
                jobs.push(make_job(next_id, arrive_seed));
                next_id += 1;
                dirty.push((jobs.len() - 1) as u32);
            }
            for pick in jitters {
                let i = (*pick as usize) % jobs.len();
                jobs[i].remaining_work *= 1.25;
                dirty.push(i as u32);
            }
            let mut cluster_changed = false;
            if *resize_p < 2 {
                if servers.len() > 3 {
                    servers.pop();
                } else {
                    servers.push(servers[0]);
                }
                cluster = make_cluster(&servers);
                cluster_changed = true;
            }
            dirty.sort_unstable();
            dirty.dedup();
            let delta = RoundDelta {
                full: std::mem::take(&mut first),
                cluster_changed,
                dirty,
            };
            scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
            let fresh = reference.schedule(&jobs, &cluster);
            prop_assert_eq!(out.allocations(), fresh.allocations(), "allocations diverge");
            prop_assert_eq!(out.placements(), fresh.placements(), "placements diverge");
        }
    }
}

/// A driver-accurate delta loop on a large uncontended cluster: clean
/// jobs must *replay* their stored grants rather than re-derive them,
/// and a provably unchanged round must be skipped outright — all while
/// matching a fresh full round byte for byte. The boxed Optimus
/// composite, the simulator's full-rounds oracle, runs the same rounds
/// and must run every one of them in full: were it handed the delta
/// engine, comparing against it would check nothing.
///
/// Synchronous-mode models only (even pool indices): their speed curves
/// saturate, so solo climbs stop at finite counts and the headroom
/// certificate can hold. Asynchronous jobs climb until the cluster
/// fills, which forces the (still correct) full path — covered by the
/// churn property test above.
#[test]
fn clean_jobs_replay_grants_and_quiet_rounds_skip() {
    let cluster = make_cluster(&vec![(239, 359, 15); 100]);
    let mut jobs: Vec<JobView> = (0..6u64)
        .map(|i| {
            make_job(
                i,
                &(
                    ((i as usize % 3) * 2, 10_000 * (i + 1), 10 * i as u32, 4),
                    (8, 12, 4),
                ),
            )
        })
        .collect();
    let scheduler = OptimusScheduler::build();
    let mut scratch = RoundScratch::default();
    let mut out = Schedule::new(Vec::new(), std::collections::HashMap::new());
    let oracle = CompositeScheduler::new(
        "Optimus",
        Box::new(OptimusAllocator::default()),
        Box::new(OptimusPlacer::default()),
    );
    let mut oracle_scratch = RoundScratch::default();
    let mut oracle_out = Schedule::default();
    let mut oracle_round = |jobs: &[JobView], delta: &RoundDelta| {
        let stats =
            oracle.schedule_delta(jobs, &cluster, delta, &mut oracle_scratch, &mut oracle_out);
        assert!(
            stats.alloc_full && !stats.skipped_full && !stats.place_reused,
            "the oracle must run full rounds: {stats:?}"
        );
        (
            oracle_out.allocations().to_vec(),
            oracle_out.placements().clone(),
        )
    };

    // Round 1: cold start — the driver distrusts everything.
    let delta = RoundDelta {
        full: true,
        cluster_changed: false,
        dirty: Vec::new(),
    };
    let stats = scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
    assert!(stats.alloc_full, "a full round runs the full greedy pass");
    let fresh = scheduler.schedule(&jobs, &cluster);
    assert_eq!(out.allocations(), fresh.allocations());
    assert_eq!(out.placements(), fresh.placements());
    let (allocs, places) = oracle_round(&jobs, &delta);
    assert_eq!(
        (out.allocations(), out.placements()),
        (&allocs[..], &places)
    );

    // Round 2: one job progressed; the other five are clean.
    jobs[2].remaining_work *= 0.75;
    let delta = RoundDelta {
        full: false,
        cluster_changed: false,
        dirty: vec![2],
    };
    let stats = scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
    let fresh = scheduler.schedule(&jobs, &cluster);
    assert_eq!(out.allocations(), fresh.allocations());
    assert_eq!(out.placements(), fresh.placements());
    let (allocs, places) = oracle_round(&jobs, &delta);
    assert_eq!(
        (out.allocations(), out.placements()),
        (&allocs[..], &places)
    );
    assert!(
        !stats.alloc_full,
        "an uncontended cluster must certify the delta path"
    );
    assert!(
        stats.replayed_grants > 0,
        "clean jobs replay stored rows: {stats:?}"
    );
    assert_eq!(stats.dirty_jobs, 1);
    assert!(!stats.skipped_full);

    // Round 3: nothing changed — the whole round is skipped and `out`
    // (left untouched) still matches a fresh schedule.
    let delta = RoundDelta::default();
    let stats = scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
    assert!(stats.skipped_full && stats.place_reused);
    let fresh = scheduler.schedule(&jobs, &cluster);
    assert_eq!(out.allocations(), fresh.allocations());
    assert_eq!(out.placements(), fresh.placements());
    let (allocs, places) = oracle_round(&jobs, &delta);
    assert_eq!(
        (out.allocations(), out.placements()),
        (&allocs[..], &places)
    );
}

/// Replay provenance: on an uncontended cluster, a clean job's
/// why-record must cite the round that *originally derived* its grant —
/// through both the delta-allocation replay path and the whole-round
/// skip — and a skipped round's records must carry the full story
/// (grant row and replayed layout) even though no work ran.
#[test]
fn replayed_grants_cite_their_originating_round() {
    use optimus_telemetry::{DeltaWhy, Telemetry};

    let tel = Telemetry::enabled();
    tel.enable_provenance();
    let cluster = make_cluster(&vec![(239, 359, 15); 100]);
    let mut jobs: Vec<JobView> = (0..6u64)
        .map(|i| {
            make_job(
                i,
                &(
                    ((i as usize % 3) * 2, 10_000 * (i + 1), 10 * i as u32, 4),
                    (8, 12, 4),
                ),
            )
        })
        .collect();
    let scheduler = OptimusScheduler::build_with_telemetry(tel.clone());
    let mut scratch = RoundScratch::default();
    let mut out = Schedule::new(Vec::new(), std::collections::HashMap::new());

    // Round 1: cold start — the full pass derives every grant.
    let delta = RoundDelta {
        full: true,
        cluster_changed: false,
        dirty: Vec::new(),
    };
    scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);

    // Round 2: job 2 is dirty; the other five replay round 1's grants.
    jobs[2].remaining_work *= 0.75;
    let delta = RoundDelta {
        full: false,
        cluster_changed: false,
        dirty: vec![2],
    };
    let stats = scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
    assert!(
        !stats.alloc_full && stats.replayed_grants > 0,
        "uncontended delta round must replay: {stats:?}"
    );

    // Round 3: nothing changed — the whole round is skipped.
    let stats = scheduler.schedule_delta(
        &jobs,
        &cluster,
        &RoundDelta::default(),
        &mut scratch,
        &mut out,
    );
    assert!(stats.skipped_full);

    let records = tel.why_records();
    let rec = |round: u64, job: u64| {
        records
            .iter()
            .find(|r| r.round == round && r.job == job)
            .unwrap_or_else(|| panic!("no why-record for round {round} job {job}"))
    };

    for job in [0u64, 1, 3, 4, 5] {
        // Round 2 (delta-allocation replay): cites round 1.
        match &rec(2, job).delta {
            DeltaWhy::Replay { origin_round, .. } => assert_eq!(*origin_round, 1, "job {job}"),
            other => panic!("job {job} round 2: expected replay, got {other:?}"),
        }
        // Round 3 (whole-round skip): still cites round 1 — the origin
        // survives intermediate replays rather than resetting each
        // round.
        match &rec(3, job).delta {
            DeltaWhy::Replay { origin_round, .. } => assert_eq!(*origin_round, 1, "job {job}"),
            other => panic!("job {job} round 3: expected replay, got {other:?}"),
        }
    }
    // The dirty job re-derived in round 2; round 3's skip then cites
    // round 2 as its origin.
    match &rec(2, 2).delta {
        DeltaWhy::Derive { .. } => {}
        other => panic!("dirty job round 2: expected derive, got {other:?}"),
    }
    match &rec(3, 2).delta {
        DeltaWhy::Replay { origin_round, .. } => assert_eq!(*origin_round, 2),
        other => panic!("dirty job round 3: expected replay, got {other:?}"),
    }
    // Skipped-round records still tell the whole story: the grant rows
    // match the live schedule and the replayed layouts are recorded.
    for job in 0..6u64 {
        let r = rec(3, job);
        let a = out.allocation_for(JobId(job)).expect("allocated");
        assert_eq!((r.ps, r.workers), (a.ps, a.workers), "job {job}");
        let p = r.place.as_ref().expect("placed jobs carry a place story");
        assert!(p.replayed, "job {job}: a skipped round replays layouts");
    }
}

/// On a contended cluster the headroom certificate cannot hold, so a
/// dirty round falls back to the full greedy pass — and still matches a
/// fresh schedule exactly.
#[test]
fn contended_clusters_fall_back_to_the_full_path() {
    let cluster = make_cluster(&[(0, 0, 0), (1, 2, 1), (2, 1, 0)]);
    let mut jobs: Vec<JobView> = (0..6u64)
        .map(|i| make_job(i, &((i as usize, 50_000, 5 * i as u32, 8), (24, 48, 6))))
        .collect();
    let scheduler = OptimusScheduler::build();
    let mut scratch = RoundScratch::default();
    let mut out = Schedule::new(Vec::new(), std::collections::HashMap::new());

    let delta = RoundDelta {
        full: true,
        cluster_changed: false,
        dirty: Vec::new(),
    };
    scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);

    jobs[0].remaining_work *= 1.25;
    let delta = RoundDelta {
        full: false,
        cluster_changed: false,
        dirty: vec![0],
    };
    let stats = scheduler.schedule_delta(&jobs, &cluster, &delta, &mut scratch, &mut out);
    assert!(
        stats.alloc_full,
        "contention must fail the certificate: {stats:?}"
    );
    let fresh = scheduler.schedule(&jobs, &cluster);
    assert_eq!(out.allocations(), fresh.allocations());
    assert_eq!(out.placements(), fresh.placements());
}

// -- Speed refits ---------------------------------------------------------

/// One step of a speed-sample stream.
#[derive(Debug, Clone)]
enum SpeedOp {
    Record(u32, u32, f64),
    Refit,
}

/// A sample stream: training mode (true = synchronous), batch size `M`,
/// the profiling samples, an optional window applied after them, then
/// records and refits.
type SpeedStream = (bool, f64, Vec<(u32, u32, f64)>, Option<usize>, Vec<SpeedOp>);

/// `(p, w, speed)`: few distinct small configurations, so rows repeat,
/// and slow speeds, whose large targets leave rounding noise above the
/// dual tolerance on dependent columns: those enter, and their passive
/// subsystems are singular (the ridge retry). Also `p = 0` and NaN
/// speeds, which `record` drops, and tiny positive speeds whose targets
/// overflow to ∞ (`"nnls rhs"`) or come close.
fn speed_sample() -> impl Strategy<Value = (u32, u32, f64)> {
    let speed = (0u32..16, 0.01f64..50.0).prop_map(|(roll, speed)| match roll {
        0 => 1e-310,
        1 => f64::MIN_POSITIVE,
        2 => f64::NAN,
        3..=6 => speed * 1e-5,
        _ => speed,
    });
    let p = (0u32..4, 1u32..4, 0u32..24).prop_map(|(roll, small, wide)| match roll {
        0 => wide,
        _ => small,
    });
    (p, 1u32..24, speed)
}

fn speed_stream() -> impl Strategy<Value = SpeedStream> {
    let op = (0u32..4, speed_sample()).prop_map(|(roll, (p, w, speed))| match roll {
        0 => SpeedOp::Refit,
        _ => SpeedOp::Record(p, w, speed),
    });
    // M = 0 zeroes the synchronous model's first feature (Gram
    // zero-skips), M = 1e300 overflows its Gram, and M = ∞ makes the
    // feature itself non-finite (`"nnls matrix"`).
    let batch = (0u32..8, 1.0f64..512.0).prop_map(|(roll, batch)| match roll {
        0 => 0.0,
        1 => 1e-8,
        2 => 1e300,
        3 => f64::INFINITY,
        _ => batch,
    });
    let window = (0usize..6).prop_map(|k| (k > 0).then_some(k));
    (
        any::<bool>(),
        batch,
        prop::collection::vec(speed_sample(), 0..8),
        window,
        prop::collection::vec(op, 0..48),
    )
}

/// The feature row and target of one sample (Eqns 3 and 4).
fn speed_row(sync: bool, batch: f64, s: &SpeedSample) -> (Vec<f64>, f64) {
    let (p, w) = (s.p as f64, s.w as f64);
    if sync {
        (vec![batch / w, 1.0, w / p, w, p], 1.0 / s.speed)
    } else {
        (vec![1.0, w / p, w, p], w / s.speed)
    }
}

/// The oracle refit: the rows materialized and fit by `fit_rows`, with
/// the counters the refit keeps (`nnls_traced` on the same matrix,
/// once `fit_rows`'s shape checks pass).
fn oracle_refit(
    model: &SpeedModel,
    sync: bool,
    batch: f64,
    tel: &Telemetry,
) -> Result<LinearModel, FitError> {
    tel.incr("speed.refits");
    let (rows, targets): (Vec<Vec<f64>>, Vec<f64>) = model
        .samples()
        .iter()
        .map(|s| speed_row(sync, batch, s))
        .unzip();
    let fit = NonNegLinearFit.fit_rows(&rows, &targets);
    if !matches!(fit, Err(FitError::NotEnoughSamples { .. })) {
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let a = Matrix::from_rows(&refs).expect("non-empty rows");
        let traced = nnls_traced(&a, &targets, tel);
        assert_eq!(traced.is_ok(), fit.is_ok(), "fit_rows runs nnls");
    }
    fit
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs a stream through `SpeedModel::refit` and through the oracle and
/// requires identical results after every refit: coefficient and RSS
/// bits, error variant and message, the surviving model after a failure,
/// and every counter and histogram. Returns each refit's outcome.
fn assert_refits_match(stream: &SpeedStream) -> Vec<Result<(), FitError>> {
    let (sync, batch, profile, window, ops) = stream;
    let (sync, batch) = (*sync, *batch);
    let mode = if sync {
        TrainingMode::Synchronous
    } else {
        TrainingMode::Asynchronous
    };
    let (tel, oracle_tel) = (Telemetry::enabled(), Telemetry::enabled());
    let mut model = SpeedModel::new(mode, batch).with_telemetry(tel.clone());
    for &(p, w, speed) in profile {
        model.record(p, w, speed);
    }
    if let Some(window) = *window {
        model = model.with_sample_window(window);
    }
    let mut last_ok: Option<LinearModel> = None;
    let mut outcomes = Vec::new();
    for op in ops {
        match *op {
            SpeedOp::Record(p, w, speed) => model.record(p, w, speed),
            SpeedOp::Refit => {
                let want = oracle_refit(&model, sync, batch, &oracle_tel);
                let got = model.refit();
                match (&got, &want) {
                    (Ok(()), Ok(fit)) => {
                        assert_eq!(bits(model.coefficients()), bits(&fit.theta));
                        assert_eq!(
                            model.residual_ss().map(f64::to_bits),
                            Some(fit.residual_ss.to_bits())
                        );
                        last_ok = Some(fit.clone());
                    }
                    (Err(e), Err(f)) => {
                        assert_eq!(e, f);
                        assert_eq!(e.to_string(), f.to_string());
                        let kept = last_ok.as_ref().map_or(Vec::new(), |m| bits(&m.theta));
                        assert_eq!(bits(model.coefficients()), kept, "the last fit survives");
                    }
                    _ => panic!("refit {got:?} but oracle {want:?}"),
                }
                assert_eq!(tel.summary(), oracle_tel.summary());
                outcomes.push(got);
            }
        }
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `SpeedModel::refit` is `NonNegLinearFit::fit_rows` over the same
    /// samples, bit for bit, in both training modes, across windows,
    /// degenerate and repeated configurations, overflowing targets and
    /// under-determined histories.
    #[test]
    fn speed_refit_matches_fit_rows(stream in speed_stream()) {
        assert_refits_match(&stream);
    }
}

/// The streams the property draws at random, pinned: each hits a
/// branch of the replay on purpose and asserts the outcome it expects.
#[test]
fn speed_refit_matches_fit_rows_on_edge_streams() {
    use SpeedOp::{Record, Refit};
    let truth = PsJobModel::new(ModelKind::ResNet50.profile(), TrainingMode::Synchronous);
    let profiled: Vec<(u32, u32, f64)> = [(1, 1), (2, 2), (4, 4), (8, 8), (4, 8), (8, 4)]
        .iter()
        .map(|&(p, w)| (p, w, truth.speed(p, w)))
        .collect();
    let err = |e: &Result<(), FitError>| e.as_ref().err().cloned();

    // Too few samples, then enough: `fit_rows`'s two shape errors.
    let out = assert_refits_match(&(
        true,
        32.0,
        Vec::new(),
        None,
        vec![Refit, Record(1, 1, 0.5), Refit, Record(2, 2, 0.9), Refit],
    ));
    assert_eq!(
        err(&out[0]),
        Some(FitError::NotEnoughSamples { got: 0, need: 1 })
    );
    assert_eq!(
        err(&out[2]),
        Some(FitError::NotEnoughSamples { got: 2, need: 5 })
    );

    // One configuration repeated at slow speeds: the rows are equal, so
    // every passive subsystem wider than one column is singular, and
    // the large targets leave rounding noise above the dual tolerance,
    // so a second column enters through the ridge retry.
    for sync in [false, true] {
        let mut repeated: Vec<SpeedOp> = (0..12)
            .map(|k| Record(2, 2, 1e-6 * (1.0 + 0.01 * k as f64)))
            .collect();
        repeated.push(Refit);
        let out = assert_refits_match(&(sync, 32.0, Vec::new(), None, repeated));
        assert!(out.iter().all(Result::is_ok));
    }

    // A tiny positive speed: w/speed overflows to ∞ and the refit fails
    // on the rhs, keeping the profiled model.
    let out = assert_refits_match(&(
        false,
        32.0,
        profiled.clone(),
        None,
        vec![Refit, Record(4, 4, 1e-310), Refit],
    ));
    assert!(out[0].is_ok());
    assert_eq!(
        err(&out[1]),
        Some(FitError::NonFiniteInput {
            context: "nnls rhs"
        })
    );

    // A window evicts the overflowing sample again.
    let mut ops = vec![Record(4, 4, 1e-310), Refit];
    ops.extend((0..4).map(|i| Record(3, 6, truth.speed(3, 6) * (1.0 + 0.01 * i as f64))));
    ops.push(Refit);
    let out = assert_refits_match(&(true, 32.0, profiled, Some(3), ops));
    assert!(out[0].is_err() && out[1].is_ok());
}
