//! Loss-sample preprocessing from §3.1 of the paper.
//!
//! Before fitting, Optimus (a) removes outliers — a loss point must fall
//! between the minimum of its next `window` neighbours and the maximum of
//! its previous `window` neighbours, otherwise it is replaced by the mean
//! of those neighbours — and (b) normalizes losses by the maximum loss
//! observed so far so that every job's curve lives in `[0, 1]`.

/// A raw training-loss observation: (step index, loss value).
pub type LossSample = (u64, f64);

/// Configuration for [`preprocess_losses`].
#[derive(Debug, Clone, Copy)]
pub struct PreprocessOptions {
    /// Neighbourhood size used on each side for the outlier test
    /// (the paper uses 5).
    pub window: usize,
    /// Whether to normalize by the running maximum loss.
    pub normalize: bool,
}

impl Default for PreprocessOptions {
    fn default() -> Self {
        PreprocessOptions {
            window: 5,
            normalize: true,
        }
    }
}

/// Output of preprocessing, including the scale needed to map fitted
/// (normalized) losses back to raw loss units.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Cleaned (and possibly normalized) samples, same length/order as the
    /// input.
    pub samples: Vec<LossSample>,
    /// The normalization divisor (maximum raw loss; 1.0 when
    /// `normalize == false` or the input is empty).
    pub scale: f64,
    /// Number of points classified as outliers and replaced.
    pub outliers_replaced: usize,
}

/// Cleans a loss series per §3.1: outlier replacement, then normalization.
///
/// Non-finite losses are always treated as outliers. The input order is
/// preserved; samples are assumed to be in increasing step order (the
/// order a training job produces them).
///
/// # Examples
///
/// ```
/// use optimus_fitting::preprocess::{preprocess_losses, PreprocessOptions};
///
/// let mut raw: Vec<(u64, f64)> = (0..20).map(|k| (k, 10.0 / (k as f64 + 1.0))).collect();
/// raw[7].1 = 500.0; // a wild spike
/// let out = preprocess_losses(&raw, PreprocessOptions::default());
/// assert_eq!(out.outliers_replaced, 1);
/// assert!(out.samples.iter().all(|&(_, l)| l <= 1.0));
/// ```
pub fn preprocess_losses(raw: &[LossSample], opts: PreprocessOptions) -> Preprocessed {
    if raw.is_empty() {
        return Preprocessed {
            samples: Vec::new(),
            scale: 1.0,
            outliers_replaced: 0,
        };
    }

    let n = raw.len();
    let w = opts.window.max(1);
    let mut cleaned: Vec<f64> = raw.iter().map(|&(_, l)| l).collect();
    let mut replaced = 0usize;

    for i in 0..n {
        if clean_one(&mut cleaned, i, w) {
            replaced += 1;
        }
    }

    let scale = if opts.normalize {
        let max = cleaned.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if max.is_finite() && max > 0.0 {
            max
        } else {
            1.0
        }
    } else {
        1.0
    };

    let samples = raw
        .iter()
        .zip(cleaned.iter())
        .map(|(&(k, _), &l)| (k, l / scale))
        .collect();

    Preprocessed {
        samples,
        scale,
        outliers_replaced: replaced,
    }
}

/// The §3.1 per-index outlier kernel: classifies `cleaned[i]` against
/// its neighbour bands and replaces it in place when it is an outlier.
/// Returns whether a replacement happened.
///
/// Both [`preprocess_losses`] and the incremental fast path run exactly
/// this kernel, so the incremental path can only differ from the
/// reference in *which* indices it recomputes — never in what a
/// recomputation produces.
fn clean_one(cleaned: &mut [f64], i: usize, w: usize) -> bool {
    let lo_bound = neighbour_min(cleaned, i, w);
    let hi_bound = neighbour_max(cleaned, i, w);
    let v = cleaned[i];
    let is_outlier = !v.is_finite()
        || match (lo_bound, hi_bound) {
            (Some(lo), Some(hi)) => v < lo || v > hi,
            // Edges of the series: only test the side that exists. The
            // loss should not exceed the running max of its past, nor
            // undershoot the min of its future.
            (Some(lo), None) => v < lo,
            (None, Some(hi)) => v > hi,
            (None, None) => false,
        };
    if is_outlier {
        if let Some(avg) = neighbour_mean(cleaned, i, w) {
            cleaned[i] = avg;
            return true;
        } else if !v.is_finite() {
            cleaned[i] = 0.0;
            return true;
        }
    }
    false
}

/// Caller-owned scratch for [`preprocess_losses_incremental`]: all the
/// per-call temporaries of [`preprocess_losses`] (cleaned values,
/// normalized samples, replacement flags) plus the sufficient statistic
/// for incremental normalization (the running prefix maximum of the
/// cleaned series), reused across calls so the steady-state refit path
/// allocates nothing and recomputes only the unsettled tail.
#[derive(Debug, Clone, Default)]
pub struct PreprocessScratch {
    /// Cleaned (outlier-replaced, unnormalized) values of the previous
    /// call, full length.
    cleaned: Vec<f64>,
    /// Normalized output samples of the previous call.
    samples: Vec<LossSample>,
    /// Per-index replacement flags of the previous call.
    replaced: Vec<bool>,
    /// `max_prefix[j]` = left fold of `f64::max` over `cleaned[0..=j]`
    /// starting from `NEG_INFINITY` — the running max the reference
    /// normalization folds from scratch every call.
    max_prefix: Vec<f64>,
    /// Input length, scale and options of the previous call (guards
    /// against stale reuse when the caller's series or config changed).
    prev_len: usize,
    prev_scale: f64,
    prev_opts: Option<PreprocessOptions>,
}

impl PreprocessScratch {
    /// Creates an empty scratch (first call recomputes everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// The cleaned, normalized samples produced by the last call.
    pub fn samples(&self) -> &[LossSample] {
        &self.samples
    }

    /// The normalization divisor produced by the last call.
    pub fn scale(&self) -> f64 {
        self.prev_scale
    }

    /// Number of outlier replacements in the last call's output.
    pub fn outliers_replaced(&self) -> usize {
        self.replaced.iter().filter(|&&r| r).count()
    }
}

/// Incremental, allocation-reusing equivalent of [`preprocess_losses`].
///
/// `stable_prefix` is the caller's guarantee that `raw[..stable_prefix]`
/// is byte-identical to the previous call's input prefix (0 when unknown
/// or on the first call). Under that contract the output in `scratch`
/// is **bit-identical** to `preprocess_losses(raw, opts)`:
///
/// - `cleaned[j]` is a pure function of `raw[0..=j+w]` (the ascending
///   in-place pass reads processed values behind `j` and raw values
///   ahead of `j`), so indices `j < stable_prefix − w` are settled and
///   reused; only the tail is re-run through the same
///   `clean_one` kernel.
/// - The normalization max is a left `f64::max` fold; splitting it at
///   the settled boundary and continuing from the cached prefix max is
///   the same sequential fold.
/// - Normalized samples are element-wise `cleaned/scale`, so when the
///   scale is bit-unchanged the settled prefix of the output is reused
///   as-is.
///
/// The scale can legitimately *decrease* when a previously-kept tail
/// maximum is later reclassified as an outlier, which is why the fold
/// always re-runs over the recomputed tail rather than assuming the max
/// only grows.
pub fn preprocess_losses_incremental(
    raw: &[LossSample],
    opts: PreprocessOptions,
    stable_prefix: usize,
    scratch: &mut PreprocessScratch,
) {
    let n = raw.len();
    let w = opts.window.max(1);
    // The settled cleaned prefix: valid only if the previous call used
    // the same options and covered at least the claimed stable prefix.
    let same_opts = scratch
        .prev_opts
        .is_some_and(|p| p.window == opts.window && p.normalize == opts.normalize);
    let stable = if same_opts {
        stable_prefix.min(scratch.prev_len).min(n)
    } else {
        0
    };
    let keep = stable.saturating_sub(w);

    if n == 0 {
        scratch.cleaned.clear();
        scratch.samples.clear();
        scratch.replaced.clear();
        scratch.max_prefix.clear();
        scratch.prev_len = 0;
        scratch.prev_scale = 1.0;
        scratch.prev_opts = Some(opts);
        return;
    }

    // Rebuild the unsettled tail of the cleaned series from raw losses,
    // then run the shared outlier kernel over it. Backward windows may
    // reach into the settled prefix; those values are already final.
    scratch.cleaned.truncate(keep);
    scratch.replaced.truncate(keep);
    for &(_, l) in &raw[keep..] {
        scratch.cleaned.push(l);
    }
    for i in keep..n {
        let r = clean_one(&mut scratch.cleaned, i, w);
        scratch.replaced.push(r);
    }

    // Normalization scale: continue the reference's sequential
    // `fold(NEG_INFINITY, f64::max)` from the cached prefix statistic.
    let scale = if opts.normalize {
        scratch.max_prefix.truncate(keep);
        let mut acc = if keep > 0 {
            scratch.max_prefix[keep - 1]
        } else {
            f64::NEG_INFINITY
        };
        for &v in &scratch.cleaned[keep..] {
            acc = f64::max(acc, v);
            scratch.max_prefix.push(acc);
        }
        let max = acc;
        if max.is_finite() && max > 0.0 {
            max
        } else {
            1.0
        }
    } else {
        scratch.max_prefix.clear();
        1.0
    };

    // Normalized output: reuse the settled prefix when the divisor is
    // bit-unchanged, otherwise renormalize everything.
    let samples_keep = if scale.to_bits() == scratch.prev_scale.to_bits() {
        keep.min(scratch.samples.len())
    } else {
        0
    };
    scratch.samples.truncate(samples_keep);
    for (&(k, _), &l) in raw[samples_keep..]
        .iter()
        .zip(&scratch.cleaned[samples_keep..])
    {
        scratch.samples.push((k, l / scale));
    }

    scratch.prev_len = n;
    scratch.prev_scale = scale;
    scratch.prev_opts = Some(opts);
}

/// Minimum of the `w` finite values following index `i` (exclusive).
fn neighbour_min(vals: &[f64], i: usize, w: usize) -> Option<f64> {
    let end = (i + 1 + w).min(vals.len());
    vals[i + 1..end]
        .iter()
        .filter(|v| v.is_finite())
        .cloned()
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
}

/// Maximum of the `w` finite values preceding index `i` (exclusive).
fn neighbour_max(vals: &[f64], i: usize, w: usize) -> Option<f64> {
    let start = i.saturating_sub(w);
    vals[start..i]
        .iter()
        .filter(|v| v.is_finite())
        .cloned()
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Mean of the finite values within `w` on both sides of `i` (exclusive).
fn neighbour_mean(vals: &[f64], i: usize, w: usize) -> Option<f64> {
    let start = i.saturating_sub(w);
    let end = (i + 1 + w).min(vals.len());
    let mut sum = 0.0;
    let mut count = 0usize;
    for (j, v) in vals[start..end].iter().enumerate() {
        if start + j != i && v.is_finite() {
            sum += v;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> Vec<LossSample> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn empty_input_is_fine() {
        let out = preprocess_losses(&[], PreprocessOptions::default());
        assert!(out.samples.is_empty());
        assert_eq!(out.scale, 1.0);
    }

    #[test]
    fn clean_decreasing_series_untouched() {
        let raw = series(&[10.0, 8.0, 6.0, 5.0, 4.5, 4.2, 4.0, 3.9]);
        let out = preprocess_losses(
            &raw,
            PreprocessOptions {
                window: 3,
                normalize: false,
            },
        );
        assert_eq!(out.outliers_replaced, 0);
        let vals: Vec<f64> = out.samples.iter().map(|&(_, l)| l).collect();
        assert_eq!(vals, vec![10.0, 8.0, 6.0, 5.0, 4.5, 4.2, 4.0, 3.9]);
    }

    #[test]
    fn spike_is_replaced_by_neighbour_mean() {
        let raw = series(&[10.0, 9.0, 100.0, 7.0, 6.0]);
        let out = preprocess_losses(
            &raw,
            PreprocessOptions {
                window: 2,
                normalize: false,
            },
        );
        assert_eq!(out.outliers_replaced, 1);
        // Mean of {10, 9, 7, 6} = 8.
        assert!((out.samples[2].1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn dip_is_replaced_too() {
        let raw = series(&[10.0, 9.0, 0.001, 8.0, 7.5]);
        let out = preprocess_losses(
            &raw,
            PreprocessOptions {
                window: 2,
                normalize: false,
            },
        );
        assert_eq!(out.outliers_replaced, 1);
        assert!(out.samples[2].1 > 1.0);
    }

    #[test]
    fn nan_is_always_replaced() {
        let raw = series(&[10.0, f64::NAN, 8.0]);
        let out = preprocess_losses(
            &raw,
            PreprocessOptions {
                window: 2,
                normalize: false,
            },
        );
        assert_eq!(out.outliers_replaced, 1);
        assert!(out.samples[1].1.is_finite());
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let raw = series(&[20.0, 10.0, 5.0, 2.5]);
        let out = preprocess_losses(&raw, PreprocessOptions::default());
        assert!((out.scale - 20.0).abs() < 1e-12);
        assert!((out.samples[0].1 - 1.0).abs() < 1e-12);
        assert!(out.samples.iter().all(|&(_, l)| (0.0..=1.0).contains(&l)));
    }

    #[test]
    fn step_indices_preserved() {
        let raw = vec![(3_u64, 5.0), (7, 4.0), (13, 3.0)];
        let out = preprocess_losses(&raw, PreprocessOptions::default());
        let steps: Vec<u64> = out.samples.iter().map(|&(k, _)| k).collect();
        assert_eq!(steps, vec![3, 7, 13]);
    }

    #[test]
    fn noisy_but_in_band_points_kept() {
        // A small wiggle within the prev-max/next-min band is not an outlier.
        let raw = series(&[10.0, 9.5, 9.7, 9.0, 8.5, 8.6, 8.0]);
        let out = preprocess_losses(
            &raw,
            PreprocessOptions {
                window: 3,
                normalize: false,
            },
        );
        assert_eq!(out.outliers_replaced, 0);
    }
}
