//! Bit-identity proofs for incremental loss preprocessing.
//!
//! `preprocess_losses_incremental` (rescan only the tail past the
//! caller's stable prefix) must return *exactly* what the reference
//! `preprocess_losses` pass returns — same samples, same scale, same
//! replacement count — on growing histories and across option changes.
//! The fits built on it are checked against `LossCurveFitter::fit` in
//! `batch_equivalence.rs`.

use optimus_fitting::preprocess::{
    preprocess_losses, preprocess_losses_incremental, LossSample, PreprocessOptions,
    PreprocessScratch,
};
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [0, 1) from an xorshift state.
fn next_unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % 1_000_000) as f64 / 1_000_000.0
}

/// A synthetic loss history: planted 1/(β₀k+β₁)+β₂ curve, multiplicative
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental preprocessing alone is bit-identical to the
    /// reference pass, scale included.
    #[test]
    fn preprocess_incremental_matches_reference(
        seed in any::<u64>(),
        total in 1usize..200,
        chunk in 1usize..30,
        window in 1usize..9,
        normalize in any::<bool>(),
    ) {
        let raw = history(seed, total);
        let opts = PreprocessOptions { window, normalize };
        let mut scratch = PreprocessScratch::new();
        let mut prev_len = 0usize;
        while prev_len < raw.len() {
            let len = (prev_len + chunk).min(raw.len());
            let prefix = &raw[..len];
            let reference = preprocess_losses(prefix, opts);
            preprocess_losses_incremental(prefix, opts, prev_len, &mut scratch);
            prop_assert_eq!(scratch.samples().len(), reference.samples.len());
            prop_assert_eq!(scratch.scale().to_bits(), reference.scale.to_bits());
            for (i, (got, want)) in
                scratch.samples().iter().zip(reference.samples.iter()).enumerate()
            {
                prop_assert_eq!(got.0, want.0, "step at {}", i);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "loss at {}", i);
            }
            prev_len = len;
        }
    }

    /// Changing the options between calls on the same scratch falls back
    /// to a full recompute and still matches the reference.
    #[test]
    fn preprocess_incremental_handles_option_changes(
        seed in any::<u64>(),
        total in 1usize..120,
        w1 in 1usize..9,
        w2 in 1usize..9,
    ) {
        let raw = history(seed, total);
        let mut scratch = PreprocessScratch::new();
        for opts in [
            PreprocessOptions { window: w1, normalize: true },
            PreprocessOptions { window: w2, normalize: false },
            PreprocessOptions { window: w1, normalize: true },
        ] {
            let reference = preprocess_losses(&raw, opts);
            // Claim the whole series stable: legal only when nothing
            // changed, and the options guard must catch the rest.
            preprocess_losses_incremental(&raw, opts, raw.len(), &mut scratch);
            prop_assert_eq!(scratch.scale().to_bits(), reference.scale.to_bits());
            for (got, want) in scratch.samples().iter().zip(reference.samples.iter()) {
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
            prev_assert_len(&scratch, reference.samples.len());
        }
    }
}

/// Helper kept out of the proptest macro: length equality with context.
fn prev_assert_len(scratch: &PreprocessScratch, want: usize) {
    assert_eq!(scratch.samples().len(), want);
}
