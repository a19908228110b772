//! Bit-identity proofs for the batched SoA fitting engine against its
//! oracle.
//!
//! `fit_batch` must return, for every job in a batch, *exactly* what
//! `LossCurveFitter::fit` returns on the same raw history — same
//! coefficient bits, same error variants — whatever state the job's
//! `FitSession` carries in (warm index, memo, incremental
//! preprocessing) and whatever the other lanes hold. Histories are
//! ragged (every lane a different length) and grow across rounds with
//! honest stable-prefix claims, sessions are reused across unrelated
//! series, batches span 1..3× the lane width, and the degenerate cases
//! (≤ 2 distinct steps, all-NaN, flat `hi == 0` grids, a stale warm
//! start) run both as one-lane batches and inside mixed groups, so lane
//! desynchronization would be caught.

use optimus_fitting::preprocess::LossSample;
use optimus_fitting::{
    fit_batch, BatchFitJob, BatchScratch, FitError, FitSession, LossCurveFitter, LossModel, LANES,
};
use optimus_telemetry::Telemetry;
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [0, 1) from an xorshift state.
fn next_unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % 1_000_000) as f64 / 1_000_000.0
}

/// Synthetic loss history: planted 1/(β₀k+β₁)+β₂ curve, multiplicative
/// jitter, and (seed-dependent) injected spikes, dips and NaNs — the
/// pathologies the preprocessing exists to absorb.
fn history(seed: u64, n: usize) -> Vec<LossSample> {
    let mut state = seed | 1;
    let beta0 = 0.01 + next_unit(&mut state) * 0.4;
    let beta1 = 0.5 + next_unit(&mut state) * 2.0;
    let beta2 = next_unit(&mut state) * 0.3;
    let scale = 0.5 + next_unit(&mut state) * 9.5;
    (0..n)
        .map(|k| {
            let base = scale * (1.0 / (beta0 * k as f64 + beta1) + beta2);
            let jitter = 1.0 + (next_unit(&mut state) - 0.5) * 0.05;
            let roll = next_unit(&mut state);
            let l = if roll < 0.01 {
                base * 50.0 // spike
            } else if roll < 0.02 {
                base * 0.001 // dip
            } else if roll < 0.025 {
                f64::NAN
            } else {
                base * jitter
            };
            (k as u64, l)
        })
        .collect()
}

fn assert_same_outcome(
    oracle: &Result<LossModel, FitError>,
    batched: &Result<LossModel, FitError>,
    ctx: &str,
) {
    match (oracle, batched) {
        (Ok(r), Ok(f)) => {
            assert_eq!(r.beta0.to_bits(), f.beta0.to_bits(), "beta0 {ctx}");
            assert_eq!(r.beta1.to_bits(), f.beta1.to_bits(), "beta1 {ctx}");
            assert_eq!(r.beta2.to_bits(), f.beta2.to_bits(), "beta2 {ctx}");
            assert_eq!(r.scale.to_bits(), f.scale.to_bits(), "scale {ctx}");
            assert_eq!(
                r.residual_ss.to_bits(),
                f.residual_ss.to_bits(),
                "residual_ss {ctx}"
            );
        }
        (Err(re), Err(fe)) => assert_eq!(re, fe, "error {ctx}"),
        (r, f) => panic!("outcome diverged {ctx}: fit {r:?} vs batched {f:?}"),
    }
}

/// Fits `(fitter, raw, stable_prefix)` jobs as one `fit_batch` call on
/// `sessions` and checks every outcome against `fitter.fit(raw)`.
fn assert_batch_matches_fit(
    jobs: &[(&LossCurveFitter, &[LossSample], usize)],
    sessions: &mut [FitSession],
    scratch: &mut BatchScratch,
    ctx: &str,
) {
    let mut batch: Vec<BatchFitJob<'_>> = jobs
        .iter()
        .zip(sessions.iter_mut())
        .map(|(&(fitter, raw, stable_prefix), session)| BatchFitJob {
            fitter,
            raw,
            stable_prefix,
            session,
        })
        .collect();
    let mut batched = Vec::new();
    fit_batch(&mut batch, scratch, &mut batched);
    assert_eq!(batched.len(), jobs.len());
    for (i, (&(fitter, raw, _), got)) in jobs.iter().zip(batched.iter()).enumerate() {
        assert_same_outcome(&fitter.fit(raw), got, &format!("job {i} {ctx}"));
    }
}

/// Drives `njobs` ragged histories through `rounds` growth rounds in
/// one batch per round, comparing every outcome with the oracle. Each
/// round a job gains a random number of samples (possibly zero — a
/// clean lane sits in the batch with an unchanged history) under an
/// honest stable-prefix claim, or now and then switches to its other,
/// unrelated series and restarts it claiming no stable prefix, so
/// sessions are reused across series.
fn drive(seed: u64, njobs: usize, rounds: usize, fitter: &LossCurveFitter) {
    let mut state = seed | 1;
    let series: Vec<[Vec<LossSample>; 2]> = (0..njobs)
        .map(|i| {
            [0u64, 1].map(|s| {
                let n = 3 + (next_unit(&mut state) * 220.0) as usize;
                history(seed.wrapping_add(i as u64 * 7919 + s * 104_729), n)
            })
        })
        .collect();
    let mut cur = vec![0usize; njobs];
    let mut sessions: Vec<FitSession> = (0..njobs).map(|_| FitSession::new()).collect();
    let mut lens: Vec<usize> = series.iter().map(|s| s[0].len().min(3)).collect();
    let mut scratch = BatchScratch::new();

    for round in 0..rounds {
        let mut prev: Vec<usize> = lens.clone();
        for i in 0..njobs {
            let grow = (next_unit(&mut state) * 40.0) as usize; // may be 0
            if next_unit(&mut state) < 0.15 {
                cur[i] ^= 1;
                prev[i] = 0;
                lens[i] = 3;
            }
            lens[i] = (lens[i] + grow).min(series[i][cur[i]].len());
        }
        let jobs: Vec<(&LossCurveFitter, &[LossSample], usize)> = (0..njobs)
            .map(|i| (fitter, &series[i][cur[i]][..lens[i]], prev[i]))
            .collect();
        assert_batch_matches_fit(
            &jobs,
            &mut sessions,
            &mut scratch,
            &format!("round {round} (seed {seed})"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ragged batches across growth rounds and series switches: every
    /// job's batched fit matches `fit` bit-for-bit, so the carried
    /// session state never leaks into a result.
    #[test]
    fn batched_fits_match_fit_on_ragged_batches(
        seed in any::<u64>(),
        njobs in 1usize..(3 * LANES),
        rounds in 1usize..5,
        window in 1usize..8,
        normalize in any::<bool>(),
    ) {
        let mut fitter = LossCurveFitter::new().with_window(window);
        if !normalize {
            fitter = fitter.without_normalization();
        }
        drive(seed, njobs, rounds, &fitter);
    }

    /// Single-job batches are what `ConvergenceEstimator::refit` runs —
    /// a degenerate but load-bearing case (remainder groups).
    #[test]
    fn single_job_batches_match_fit(
        seed in any::<u64>(),
        rounds in 1usize..6,
    ) {
        drive(seed, 1, rounds, &LossCurveFitter::new());
    }
}

/// Degenerate histories (empty, ≤ 2 distinct steps, all-NaN, flat
/// `hi == 0`, regression rows that overflow, and finite rows whose Gram
/// overflows) and a stale warm start, each fit as a one-lane batch and
/// mixed into one group with healthy lanes: per-lane error
/// short-circuits must not disturb their neighbors, and the warm start
/// is only a hint.
#[test]
fn degenerate_lanes_mixed_with_healthy_lanes() {
    let fitter = LossCurveFitter::new();
    let unnormalized = LossCurveFitter::new().without_normalization();
    let healthy = history(42, 120);
    let healthy2 = history(1234, 37);
    // A wildly stale session: fit on one curve, then on a completely
    // different one claiming no stable prefix.
    let early: Vec<LossSample> = (0..100)
        .map(|k| (k, 1.0 / (0.3 * k as f64 + 0.8) + 0.25))
        .collect();
    let late: Vec<LossSample> = (0..100)
        .map(|k| (k, 4.0 / (0.01 * k as f64 + 2.0) + 0.01))
        .collect();
    // Unnormalized losses near 1e160: every kept row's `w = gap²`
    // overflows, so every candidate fails its solve.
    let rows_overflow: Vec<LossSample> = (0..40)
        .map(|k| (k * 1000, 1e160 / (k as f64 + 1.0)))
        .collect();
    // Near 1e80 with steps up to ~4e6: the rows stay finite but
    // `g00 = Σ (w·k)²` overflows, and the solves still run.
    let gram_overflow: Vec<LossSample> = (0..40)
        .map(|k| (k * 100_000, 1e80 / (k as f64 + 1.0)))
        .collect();
    for (raw, want, solves, failures) in [
        (&rows_overflow, Err(FitError::NoViableModel), 32, 32),
        (&gram_overflow, Ok(()), 75, 0),
    ] {
        let tel = Telemetry::enabled();
        let oracle = LossCurveFitter::new()
            .without_normalization()
            .with_telemetry(tel.clone());
        assert_eq!(oracle.fit(raw).map(|_| ()), want);
        let counter = |name: &str| {
            let counters = tel.summary().counters;
            counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(
            (counter("nnls.solves"), counter("nnls.fit_failures")),
            (solves, failures)
        );
    }
    let same = |raw: Vec<LossSample>| (&fitter, [raw.clone(), raw]);
    let same_unnormalized = |raw: Vec<LossSample>| (&unnormalized, [raw.clone(), raw]);
    // (fitter, [first-pass history, second-pass history]) per lane.
    let lanes: Vec<(&LossCurveFitter, [Vec<LossSample>; 2])> = vec![
        same(vec![]),
        same(healthy.clone()),
        same(vec![(0, 1.0)]),
        same(vec![(5, 2.0), (5, 2.0), (5, 2.0), (5, 2.0)]),
        same(healthy2),
        same(vec![
            (0, f64::NAN),
            (1, f64::NAN),
            (2, f64::NAN),
            (3, f64::NAN),
        ]),
        same(vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]), // flat: hi == 0 grid
        same(vec![(0, 0.0), (1, 0.0), (2, 0.0)]),
        (&unnormalized, [early, late]), // second group starts here
        same(healthy),
        same_unnormalized(rows_overflow),
        same_unnormalized(gram_overflow),
    ];
    let n = lanes.len();
    let mut mixed_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut lone_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut scratch = BatchScratch::new();
    // Two passes through the same sessions: the second exercises warm
    // starts and skip-unchanged preprocessing on unchanged histories.
    for pass in 0..2 {
        let jobs: Vec<(&LossCurveFitter, &[LossSample], usize)> = lanes
            .iter()
            .map(|(fitter, raws)| {
                let bits = |raw: &[LossSample]| {
                    raw.iter()
                        .map(|&(k, l)| (k, l.to_bits()))
                        .collect::<Vec<_>>()
                };
                let unchanged = pass == 1 && bits(&raws[0]) == bits(&raws[1]);
                let stable = if unchanged { raws[1].len() } else { 0 };
                (*fitter, raws[pass].as_slice(), stable)
            })
            .collect();
        assert_batch_matches_fit(
            &jobs,
            &mut mixed_sessions,
            &mut scratch,
            &format!("mixed pass {pass}"),
        );
        for (i, (job, session)) in jobs.iter().zip(lone_sessions.iter_mut()).enumerate() {
            assert_batch_matches_fit(
                std::slice::from_ref(job),
                std::slice::from_mut(session),
                &mut scratch,
                &format!("lane {i} alone, pass {pass}"),
            );
        }
    }
}

/// Results and telemetry counters (`loss_curve.fits`, `nnls.solves`,
/// `nnls.fit_failures`, `fit.warm_start_hits`, iteration observations)
/// are a function of each job's own inputs, whatever lanes it is given:
/// the same jobs run as batches of every size from 1 to [`LANES`] (a
/// lone job owns all eight lanes, two jobs four each, three jobs
/// 3/3/2, …) and as one call holding them all must return the same
/// bits and report the same summary as one-job batches — the
/// simulator's thread-count-invariant ledger depends on it. A flat
/// `hi == 0` job and a too-short one sit beside live jobs in every
/// split; lanes go to live jobs only.
#[test]
fn batched_telemetry_is_independent_of_lane_grouping() {
    use optimus_telemetry::TelemetrySummary;
    let mut raws: Vec<Vec<LossSample>> = (0..11)
        .map(|i| history(900 + i as u64, 20 + i * 13))
        .collect();
    raws.insert(2, (0..6).map(|k| (k, 1.0)).collect()); // flat: hi == 0
    raws.insert(5, vec![(0, 1.0), (1, 0.5)]); // NotEnoughSamples
    raws.push(history(77, 400)); // the simulator's fit-point cap
    let n = raws.len();
    // Two passes per session, the second warm on unchanged histories.
    let run = |batch: usize| -> (Vec<Result<LossModel, FitError>>, TelemetrySummary) {
        let tel = Telemetry::enabled();
        let fitter = LossCurveFitter::new().with_telemetry(tel.clone());
        let mut sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for pass in 0..2 {
            for (raws, sessions) in raws.chunks(batch).zip(sessions.chunks_mut(batch)) {
                let mut jobs: Vec<BatchFitJob<'_>> = raws
                    .iter()
                    .zip(sessions.iter_mut())
                    .map(|(raw, session)| BatchFitJob {
                        fitter: &fitter,
                        raw,
                        stable_prefix: if pass == 0 { 0 } else { raw.len() },
                        session,
                    })
                    .collect();
                fit_batch(&mut jobs, &mut scratch, &mut out);
            }
        }
        (out, tel.summary())
    };
    let (lone, lone_summary) = run(1);
    assert!(
        lone_summary
            .counters
            .iter()
            .any(|(k, v)| k == "nnls.solves" && *v > 0),
        "telemetry recorded"
    );
    for batch in (2..=LANES).chain([n]) {
        let (got, summary) = run(batch);
        for (i, (want, got)) in lone.iter().zip(&got).enumerate() {
            assert_same_outcome(want, got, &format!("fit {i}, batches of {batch}"));
        }
        assert_eq!(
            lone_summary, summary,
            "telemetry summaries diverged in batches of {batch}"
        );
    }
}

/// Groups whose walks finish at very different waves: an all-zero
/// `hi == 0` history needs one evaluation, one whose rows all overflow
/// fails its 32 grid candidates and stops before any golden-section
/// probe, and healthy histories walk all 75, in groups of two to five
/// live jobs whose lane shares differ. The lanes of each finished walk
/// are dealt on to the jobs still walking, several times per group, as
/// the histories grow across warm refits. Every result must match
/// `fit`, and the telemetry must match the same jobs fit one per batch.
#[test]
fn early_finishers_hand_their_lanes_on() {
    use optimus_telemetry::TelemetrySummary;
    let zero: Vec<LossSample> = (0..30).map(|k| (k, 0.0)).collect();
    let rows_overflow: Vec<LossSample> = (0..40)
        .map(|k| (k * 1000, 1e160 / (k as f64 + 1.0)))
        .collect();
    let healthy: Vec<Vec<LossSample>> = (0..4)
        .map(|i| history(4242 + i as u64, 60 + 110 * i))
        .collect();
    let short = vec![(0, 1.0), (1, 0.5)];
    let groups: Vec<Vec<&[LossSample]>> = vec![
        vec![&zero, &healthy[3]],
        vec![&healthy[0], &zero, &healthy[2]],
        vec![&rows_overflow, &healthy[1], &short, &zero, &healthy[3]],
        vec![&healthy[2], &rows_overflow, &healthy[0], &zero, &healthy[1]],
    ];
    let unnormalized = LossCurveFitter::new().without_normalization();
    // Three growing prefixes per history, refit warm; one batch per
    // group, or one per job when `lone`.
    let run = |lone: bool| -> TelemetrySummary {
        let tel = Telemetry::enabled();
        let fitter = LossCurveFitter::new().with_telemetry(tel.clone());
        let overflow_fitter = unnormalized.clone().with_telemetry(tel.clone());
        let mut scratch = BatchScratch::new();
        for (g, raws) in groups.iter().enumerate() {
            let mut sessions: Vec<FitSession> = raws.iter().map(|_| FitSession::new()).collect();
            let mut prev = vec![0; raws.len()];
            for round in 1..=3 {
                let jobs: Vec<(&LossCurveFitter, &[LossSample], usize)> = raws
                    .iter()
                    .zip(&prev)
                    .map(|(&raw, &stable)| {
                        let fitter = if std::ptr::eq(raw, rows_overflow.as_slice()) {
                            &overflow_fitter
                        } else {
                            &fitter
                        };
                        (fitter, &raw[..(raw.len() * round / 3).max(2)], stable)
                    })
                    .collect();
                let ctx = format!("group {g} round {round} lone {lone}");
                if lone {
                    for (i, job) in jobs.iter().enumerate() {
                        assert_batch_matches_fit(
                            std::slice::from_ref(job),
                            &mut sessions[i..=i],
                            &mut scratch,
                            &ctx,
                        );
                    }
                } else {
                    assert_batch_matches_fit(&jobs, &mut sessions, &mut scratch, &ctx);
                }
                prev = jobs.iter().map(|&(_, raw, _)| raw.len()).collect();
            }
        }
        tel.summary()
    };
    assert_eq!(run(false), run(true), "telemetry depends on the grouping");
}
