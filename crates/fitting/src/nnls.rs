//! Lawson–Hanson non-negative least squares.
//!
//! Solves `min ‖A·x − b‖₂ subject to x ≥ 0`, the solver the paper uses
//! (via SciPy) for both the convergence-curve fit and the speed-model fit.
//!
//! The implementation is the classical active-set method from Lawson &
//! Hanson, *Solving Least Squares Problems* (1974), ch. 23: maintain a
//! passive set `P` of strictly-positive coordinates, repeatedly add the
//! coordinate with the most positive dual `w = Aᵀ(b − Ax)`, and solve the
//! unconstrained subproblem on `P`, stepping back along the segment to the
//! previous iterate whenever the subproblem solution leaves the feasible
//! region.
//!
//! [`nnls()`] is the reference iteration, the oracle. The production
//! fitters solve from a cached Gram instead of a `Matrix` and share one
//! active-set step, `ActiveSet`, which replays the oracle's scan and
//! inner loop bit for bit: [`nnls_rows`] (the speed models' refit, up
//! to five columns, over rows rebuilt on demand) drives it with a
//! restricted-Gram solve, and the batched loss-curve fitter
//! ([`crate::batch`]) with `solve_sub2_cached`, its two-column solve.

use crate::error::FitError;
use crate::linalg::{solve_normal, Matrix};

/// Outer-iteration limit of every solve in this module. The textbook
/// bound is `3·n`; this is a generous multiple, to be safe on noisy
/// data.
pub(crate) const MAX_ITERATIONS: usize = 300;

/// Dual-feasibility tolerance: a solve stops when no column outside the
/// passive set has `wᵢ > TOLERANCE`.
pub(crate) const TOLERANCE: f64 = 1e-11;

/// The result of an NNLS solve.
#[derive(Debug, Clone)]
pub struct NnlsSolution {
    /// The non-negative coefficient vector.
    pub x: Vec<f64>,
    /// Residual sum of squares `‖A·x − b‖₂²` at the solution.
    pub residual_ss: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

/// Solves `min ‖A·x − b‖₂ s.t. x ≥ 0`.
///
/// # Examples
///
/// ```
/// use optimus_fitting::{nnls, Matrix};
///
/// // b = 2·col0 exactly; the negative-leaning col1 must stay at zero.
/// let a = Matrix::from_rows(&[&[1.0, -1.0], &[1.0, -1.0], &[0.0, 1.0]]).unwrap();
/// let sol = nnls(&a, &[2.0, 2.0, 0.0]).unwrap();
/// assert!((sol.x[0] - 2.0).abs() < 1e-9);
/// assert_eq!(sol.x[1], 0.0);
/// ```
pub fn nnls(a: &Matrix, b: &[f64]) -> Result<NnlsSolution, FitError> {
    if b.len() != a.rows() {
        return Err(FitError::DimensionMismatch {
            context: "nnls: rhs length != rows",
        });
    }
    for v in b {
        if !v.is_finite() {
            return Err(FitError::NonFiniteInput {
                context: "nnls rhs",
            });
        }
    }
    for r in 0..a.rows() {
        for &v in a.row(r) {
            if !v.is_finite() {
                return Err(FitError::NonFiniteInput {
                    context: "nnls matrix",
                });
            }
        }
    }

    let n = a.cols();
    let mut x = vec![0.0_f64; n];
    // `passive[i]` ⇔ coordinate `i` is in the passive (free) set P.
    let mut passive = vec![false; n];
    // Coordinates whose trial entry was rejected (non-positive subproblem
    // coefficient) since `x` last changed. Prevents the classic cycling
    // case when a true coefficient sits exactly on the boundary.
    let mut rejected = vec![false; n];
    let mut iterations = 0usize;

    loop {
        // Dual vector w = Aᵀ(b − A·x).
        let ax = a.mul_vec(&x)?;
        let resid: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
        let w = a.tr_mul_vec(&resid)?;

        // Pick the most promising inactive, non-rejected coordinate.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if !passive[i] && !rejected[i] && w[i] > TOLERANCE {
                match best {
                    Some((_, bw)) if bw >= w[i] => {}
                    _ => best = Some((i, w[i])),
                }
            }
        }
        let Some((enter, _)) = best else {
            // KKT conditions hold (up to rejected boundary coordinates):
            // done.
            let rss = a.residual_ss(&x, b)?;
            return Ok(NnlsSolution {
                x,
                residual_ss: rss,
                iterations,
            });
        };

        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(FitError::IterationLimit {
                limit: MAX_ITERATIONS,
            });
        }

        passive[enter] = true;
        {
            // Trial solve: if the entering coordinate would come out
            // non-positive, entering it cannot reduce the residual —
            // reject it until the iterate changes.
            let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
            let z = solve_subproblem(a, b, &p_idx)?;
            let slot = p_idx.iter().position(|&i| i == enter).expect("enter in P");
            if z[slot] <= TOLERANCE {
                passive[enter] = false;
                rejected[enter] = true;
                continue;
            }
        }

        // Inner loop: solve the unconstrained subproblem on P; if the
        // solution leaves the feasible region, step back and shrink P.
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(FitError::IterationLimit {
                    limit: MAX_ITERATIONS,
                });
            }

            let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
            let z = solve_subproblem(a, b, &p_idx)?;

            // Any non-positive coordinate in the subproblem solution?
            let all_positive = z.iter().all(|&zi| zi > TOLERANCE);
            if all_positive {
                for (slot, &i) in p_idx.iter().enumerate() {
                    x[i] = z[slot];
                }
                for i in 0..n {
                    if !passive[i] {
                        x[i] = 0.0;
                    }
                }
                // The iterate changed: previously rejected coordinates may
                // be viable again.
                rejected.iter_mut().for_each(|r| *r = false);
                break;
            }

            // Step length α: largest step toward z that stays feasible.
            let mut alpha = f64::INFINITY;
            for (slot, &i) in p_idx.iter().enumerate() {
                if z[slot] <= TOLERANCE {
                    let denom = x[i] - z[slot];
                    if denom > 0.0 {
                        alpha = alpha.min(x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (slot, &i) in p_idx.iter().enumerate() {
                x[i] += alpha * (z[slot] - x[i]);
            }
            // Freeze coordinates that hit the boundary.
            for &i in &p_idx {
                if x[i] <= TOLERANCE {
                    x[i] = 0.0;
                    passive[i] = false;
                }
            }
            // Defensive: if P became empty the entering variable was bad;
            // exit the inner loop and re-derive duals.
            if !passive.iter().any(|&p| p) {
                break;
            }
        }
    }
}

/// Like [`nnls()`], but reports into a
/// [`Telemetry`](optimus_telemetry::Telemetry) handle: each call
/// bumps the `nnls.solves` counter and feeds the `nnls.iterations`
/// histogram; failed solves bump `nnls.fit_failures`.
pub fn nnls_traced(
    a: &Matrix,
    b: &[f64],
    tel: &optimus_telemetry::Telemetry,
) -> Result<NnlsSolution, FitError> {
    tel.incr("nnls.solves");
    match nnls(a, b) {
        Ok(sol) => {
            tel.observe("nnls.iterations", sol.iterations as f64);
            Ok(sol)
        }
        Err(e) => {
            tel.incr("nnls.fit_failures");
            Err(e)
        }
    }
}

/// Solves the unconstrained least-squares subproblem restricted to the
/// passive columns `p_idx`, returning coefficients in `p_idx` order.
fn solve_subproblem(a: &Matrix, b: &[f64], p_idx: &[usize]) -> Result<Vec<f64>, FitError> {
    let mut sub = Matrix::zeros(a.rows(), p_idx.len());
    for r in 0..a.rows() {
        let row = a.row(r);
        for (slot, &i) in p_idx.iter().enumerate() {
            sub.set(r, slot, row[i]);
        }
    }
    sub.lstsq(b)
}

/// The `cols ≤ 2` subproblem solve of [`nnls()`] (`solve_subproblem`
/// → `Matrix::lstsq` → `Matrix::solve`, ridge retry on singularity)
/// from a precomputed Gram matrix and right-hand side: the batched
/// fitter's `solve` for [`ActiveSet::advance`].
///
/// The Gram products `g00/g01/g11` and `rhs` are functions of the rows
/// alone, not of the passive set, so the batched fitter
/// ([`crate::batch`]) computes them once per β₂ candidate and solves
/// every Lawson–Hanson subproblem in O(1) from the cache. The result is
/// bit-identical to the general path:
///
/// * `Matrix::gram` sums over rows in ascending order and skips a term
///   only when its row entry is exactly zero. Adding that skipped
///   `+0.0` to a non-negative accumulator returns the same bits (rows
///   are `[w·k, w]` with `w ≥ 0`, so no term is `-0.0`). Restricting
///   the passive set to one column picks that column's diagonal entry
///   out of the full Gram, which is the same sum.
/// * `Matrix::tr_mul_vec` sums `row·b` in the same ascending order.
/// * [`solve1`] and [`solve2`] replay `Matrix::solve`'s pivot,
///   elimination and back substitution for one and two columns, and
///   the ridge `λ = 1e-10·max(trace/n, 1e-30)` sums the trace in the
///   same order.
///
/// It returns what `solve_passive` returns on the same Gram restricted
/// to two columns, bit for bit (`nnls::tests` pins that), so the
/// general solve could stand in for it. It stays because it is faster
/// where it matters: a build that sent the batched fitter's subproblems
/// through `solve_passive` (and so `solve_normal`) instead was slower
/// in every one of 6 alternating pairs of `benchmark --one W --seed 17`
/// on a 2-vCPU Xeon with avx512f (run time 0.80–0.83 s → 0.97–0.98 s on
/// cluster-steady, 0.45–0.47 s → 0.50–0.51 s on testbed-dense).
///
/// `n_rows` is the row count for `lstsq`'s under-determined check.
pub(crate) fn solve_sub2_cached(
    g00: f64,
    g01: f64,
    g11: f64,
    rhs2: [f64; 2],
    n_rows: usize,
    passive: [bool; 2],
) -> Result<([f64; 2], [usize; 2], usize), FitError> {
    let mut slots = [0usize; 2];
    let mut m = 0usize;
    for (i, &p) in passive.iter().enumerate() {
        if p {
            slots[m] = i;
            m += 1;
        }
    }
    if n_rows < m {
        return Err(FitError::NotEnoughSamples {
            got: n_rows,
            need: m,
        });
    }
    if m == 1 {
        let j = slots[0];
        let g = if j == 0 { g00 } else { g11 };
        let rhs = rhs2[j];
        let z = match solve1(g, rhs) {
            Ok(z) => z,
            Err(FitError::SingularSystem) => {
                let lambda = 1e-10 * (g / 1.0).max(1e-30);
                solve1(g + lambda, rhs)?
            }
            Err(e) => return Err(e),
        };
        Ok(([z, 0.0], slots, 1))
    } else {
        let z = match solve2([g00, g01, g01, g11], rhs2) {
            Ok(z) => z,
            Err(FitError::SingularSystem) => {
                let mut trace = 0.0;
                trace += g00;
                trace += g11;
                let lambda = 1e-10 * (trace / 2.0).max(1e-30);
                solve2([g00 + lambda, g01, g01, g11 + lambda], rhs2)?
            }
            Err(e) => return Err(e),
        };
        Ok((z, slots, 2))
    }
}

/// `Matrix::solve` for a 1×1 system.
fn solve1(g: f64, rhs: f64) -> Result<f64, FitError> {
    if g.abs() < 1e-13 {
        return Err(FitError::SingularSystem);
    }
    Ok(rhs / g)
}

/// `Matrix::solve` for a 2×2 row-major system: same partial pivot,
/// elimination-with-zero-factor-skip and back substitution.
fn solve2(g: [f64; 4], rhs: [f64; 2]) -> Result<[f64; 2], FitError> {
    let mut a = g;
    let mut x = rhs;
    // Column 0: partial pivot.
    let mut pivot_row = 0usize;
    let mut pivot_val = a[0].abs();
    let v = a[2].abs();
    if v > pivot_val {
        pivot_val = v;
        pivot_row = 1;
    }
    if pivot_val < 1e-13 {
        return Err(FitError::SingularSystem);
    }
    if pivot_row != 0 {
        a.swap(0, 2);
        a.swap(1, 3);
        x.swap(0, 1);
    }
    let pivot = a[0];
    let factor = a[2] / pivot;
    if factor != 0.0 {
        a[2] -= factor * a[0];
        a[3] -= factor * a[1];
        x[1] -= factor * x[0];
    }
    // Column 1.
    if a[3].abs() < 1e-13 {
        return Err(FitError::SingularSystem);
    }
    // Back substitution.
    x[1] /= a[3];
    let mut acc = x[0];
    acc -= a[1] * x[1];
    x[0] = acc / a[0];
    Ok(x)
}

/// What [`ActiveSet::advance`] stopped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// No column enters on the dual: `x` is the solution.
    Optimal,
    /// `x` changed, and every column is passive or rejected: the next
    /// scan can pick no column whatever the dual holds, so `x` is the
    /// solution and no dual is needed to know it.
    Saturated,
    /// `x` changed: the next scan needs the dual at the new `x`.
    NeedsDual,
}

/// Lawson–Hanson's active-set state over `N` columns, and the one
/// step both production fitters take between two dual computations:
/// [`nnls()`]'s entering-column scan and inner loop, replayed bit for
/// bit on any `solve` that returns what its `solve_subproblem` returns
/// on the same passive set. The caller owns the duals and the iterate;
/// [`nnls_rows`] computes each dual in a row pass, the batched fitter
/// from its lanes' Gram or in a lockstep sweep.
///
/// Two shortcuts against `nnls` change no bit: rejecting an entering
/// column leaves `x` unchanged, so the dual is unchanged too and the
/// step rescans at once, and the trial solve of an entering column is
/// the inner loop's first solve (same passive set). A caller with fewer
/// than `N` columns pads with columns whose duals are zero: they never
/// enter, and only keep a step from reporting `Step::Saturated`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveSet<const N: usize> {
    /// Columns in the passive (free) set P.
    pub(crate) passive: [bool; N],
    /// Columns whose trial entry was rejected (a non-positive
    /// subproblem coefficient) since `x` last changed, which prevents
    /// cycling when a true coefficient sits exactly on the boundary.
    pub(crate) rejected: [bool; N],
    /// Outer iterations so far, as [`NnlsSolution::iterations`] counts.
    pub(crate) iterations: usize,
}

impl<const N: usize> Default for ActiveSet<N> {
    fn default() -> Self {
        ActiveSet {
            passive: [false; N],
            rejected: [false; N],
            iterations: 0,
        }
    }
}

impl<const N: usize> ActiveSet<N> {
    /// The column [`nnls()`]'s scan enters on dual `w`: the largest
    /// `wᵢ > TOLERANCE` (ties to the lower index) among the columns
    /// neither passive nor rejected.
    #[inline(always)]
    pub(crate) fn entering(&self, w: &[f64; N]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &wi) in w.iter().enumerate() {
            if !self.passive[i] && !self.rejected[i] && wi > TOLERANCE {
                match best {
                    Some((_, bw)) if bw >= wi => {}
                    _ => best = Some((i, wi)),
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Whether every scan [`advance`](Self::advance) can run on a dual
    /// within `e` of `w` decides as on `w` itself: each open column
    /// (neither passive nor rejected) lies wholly above the tolerance or
    /// wholly below it, and the intervals of the columns above are
    /// pairwise disjoint. That covers the rescans after rejections too,
    /// which read the same dual. Rounding is monotone, so a strict
    /// comparison between computed endpoints implies it between exact
    /// ones; NaN endpoints certify nothing. Written with non-short-
    /// circuit `&`/`|`: the batched fitter's lane states vary from lane
    /// to lane, and branching on them mispredicted more than the
    /// comparisons cost.
    #[inline(always)]
    pub(crate) fn certifies(&self, w: &[f64; N], e: &[f64; N]) -> bool {
        let open: [bool; N] = std::array::from_fn(|i| !(self.passive[i] | self.rejected[i]));
        let above: [bool; N] = std::array::from_fn(|i| open[i] & (w[i] - e[i] > TOLERANCE));
        let mut all = true;
        for i in 0..N {
            all &= !open[i] | above[i] | (w[i] + e[i] < TOLERANCE);
            for j in i + 1..N {
                all &= !(above[i] & above[j])
                    | (w[i] - e[i] > w[j] + e[j])
                    | (w[j] - e[j] > w[i] + e[i]);
            }
        }
        all
    }

    /// Runs [`nnls()`]'s outer loop from a scan on dual `w` (the dual at
    /// `x`) to the next point that needs a new dual, updating `x` in
    /// place. `solve(passive)` solves the subproblem on the passive
    /// columns, returning the solution in passive-column order, the
    /// passive columns and their count.
    ///
    /// Errors are `solve`'s and the iteration limit, as `nnls` raises
    /// them.
    #[inline(always)]
    pub(crate) fn advance(
        &mut self,
        x: &mut [f64; N],
        w: &[f64; N],
        mut solve: impl FnMut(&[bool; N]) -> Result<([f64; N], [usize; N], usize), FitError>,
    ) -> Result<Step, FitError> {
        let trial = loop {
            let Some(enter) = self.entering(w) else {
                return Ok(Step::Optimal);
            };
            self.count()?;
            self.passive[enter] = true;
            let trial = solve(&self.passive)?;
            let (z, slots, m) = trial;
            let slot = slots[..m]
                .iter()
                .position(|&i| i == enter)
                .expect("enter in P");
            if z[slot] <= TOLERANCE {
                // x unchanged ⇒ dual unchanged ⇒ rescan now.
                self.passive[enter] = false;
                self.rejected[enter] = true;
                continue;
            }
            break trial;
        };

        let mut solved = Some(trial);
        loop {
            self.count()?;
            let (z, slots, m) = match solved.take() {
                Some(trial) => trial,
                None => solve(&self.passive)?,
            };
            if z[..m].iter().all(|&zi| zi > TOLERANCE) {
                for (slot, &i) in slots[..m].iter().enumerate() {
                    x[i] = z[slot];
                }
                for (xi, &p) in x.iter_mut().zip(&self.passive) {
                    if !p {
                        *xi = 0.0;
                    }
                }
                self.rejected = [false; N];
                break;
            }

            // Step length α: largest step toward z that stays feasible.
            let mut alpha = f64::INFINITY;
            for (slot, &i) in slots[..m].iter().enumerate() {
                if z[slot] <= TOLERANCE {
                    let denom = x[i] - z[slot];
                    if denom > 0.0 {
                        alpha = alpha.min(x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (slot, &i) in slots[..m].iter().enumerate() {
                x[i] += alpha * (z[slot] - x[i]);
            }
            // Freeze coordinates that hit the boundary.
            for &i in &slots[..m] {
                if x[i] <= TOLERANCE {
                    x[i] = 0.0;
                    self.passive[i] = false;
                }
            }
            if !self.passive.iter().any(|&p| p) {
                break;
            }
        }
        if (0..N).all(|i| self.passive[i] || self.rejected[i]) {
            Ok(Step::Saturated)
        } else {
            Ok(Step::NeedsDual)
        }
    }

    /// Counts one iteration, failing past [`MAX_ITERATIONS`].
    #[inline(always)]
    fn count(&mut self) -> Result<(), FitError> {
        self.iterations += 1;
        if self.iterations > MAX_ITERATIONS {
            return Err(FitError::IterationLimit {
                limit: MAX_ITERATIONS,
            });
        }
        Ok(())
    }
}

/// The widest row [`nnls_rows`] takes: the synchronous speed model's
/// five features (Eqn 4).
pub const MAX_WIDTH: usize = 5;

/// An [`NnlsSolution`] on the stack: `x[..width]` holds the
/// coefficients and the rest is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallNnlsSolution {
    /// The non-negative coefficients, zero past the row width.
    pub x: [f64; MAX_WIDTH],
    /// Residual sum of squares `‖A·x − b‖₂²` at the solution.
    pub residual_ss: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

/// [`nnls()`] over `n_rows` rows of `width ≤ MAX_WIDTH` columns that
/// `row(r)` rebuilds on demand as `(features, target)`, without
/// allocating: the same coefficient bits, residual bits, iteration
/// count and error as `nnls` on the matrix of those rows.
///
/// It drives `ActiveSet` from one Gram:
///
/// * **One Gram.** One pass over the rows builds the full `AᵀA` upper
///   triangle in `Matrix::gram`'s order (ascending rows, a term skipped
///   only when its row entry is exactly zero) and `Aᵀb` in
///   `Matrix::tr_mul_vec`'s. The submatrix of passive columns keeps
///   their ascending order, so its Gram and right-hand side are these
///   entries restricted to the passive set: the same sums term for
///   term. `solve_subproblem` → `Matrix::lstsq` is then replayed on the
///   stack (`solve_passive`): the under-determined check, then the very
///   elimination and ridge retry `lstsq` runs, on the restricted system.
/// * **First dual.** At `x = 0` every `A·x` entry is `+0.0` (the rows
///   are finite by then), so `b − A·x` is `b` and the dual is `Aᵀb`.
///   The residual sum of squares at `x = 0` is summed in the same pass.
/// * **Later duals.** `w = Aᵀ(b − A·x)` is one pass that rebuilds each
///   row and accumulates `A·x` (`Matrix::mul_vec`'s order), the dual
///   and `‖A·x − b‖²` (`Matrix::residual_ss`'s order) at once, so the
///   final dual pass has already summed the returned residual. A
///   saturated step needs no dual, but it needs that residual, so it
///   gets the same pass.
///
/// The error order is `nnls`'s: a non-finite target (`"nnls rhs"`),
/// then a non-finite feature (`"nnls matrix"`), then subproblem and
/// iteration-limit errors as they arise.
///
/// # Panics
///
/// Panics if `width > MAX_WIDTH`.
pub fn nnls_rows(
    n_rows: usize,
    width: usize,
    row: impl Fn(usize) -> ([f64; MAX_WIDTH], f64),
) -> Result<SmallNnlsSolution, FitError> {
    assert!(width <= MAX_WIDTH, "nnls_rows: width {width} > {MAX_WIDTH}");

    // Upper triangle of AᵀA, Aᵀb and ‖b‖² (the residual at x = 0).
    let mut gram = [[0.0_f64; MAX_WIDTH]; MAX_WIDTH];
    let mut atb = [0.0_f64; MAX_WIDTH];
    let mut rss = 0.0_f64;
    let (mut rhs_finite, mut rows_finite) = (true, true);
    for r in 0..n_rows {
        let (a, b) = row(r);
        rhs_finite &= b.is_finite();
        for i in 0..width {
            let ri = a[i];
            rows_finite &= ri.is_finite();
            if ri != 0.0 {
                for j in i..width {
                    gram[i][j] += ri * a[j];
                }
            }
            atb[i] += ri * b;
        }
        let d = 0.0 - b;
        rss += d * d;
    }
    if !rhs_finite {
        return Err(FitError::NonFiniteInput {
            context: "nnls rhs",
        });
    }
    if !rows_finite {
        return Err(FitError::NonFiniteInput {
            context: "nnls matrix",
        });
    }

    let mut x = [0.0_f64; MAX_WIDTH];
    let mut set = ActiveSet::<MAX_WIDTH>::default();
    let mut w = atb;
    let solve = |passive: &[bool; MAX_WIDTH]| solve_passive(&gram, &atb, n_rows, width, passive);
    while set.advance(&mut x, &w, solve)? != Step::Optimal {
        (w, rss) = dual_pass(n_rows, width, &row, &x);
    }
    Ok(SmallNnlsSolution {
        x,
        residual_ss: rss,
        iterations: set.iterations,
    })
}

/// One pass of [`nnls_rows`] at iterate `x`: the dual `Aᵀ(b − A·x)` and
/// `‖A·x − b‖²`, in [`nnls()`]'s operation order.
fn dual_pass(
    n_rows: usize,
    width: usize,
    row: &impl Fn(usize) -> ([f64; MAX_WIDTH], f64),
    x: &[f64; MAX_WIDTH],
) -> ([f64; MAX_WIDTH], f64) {
    let mut w = [0.0_f64; MAX_WIDTH];
    let mut rss = 0.0_f64;
    for r in 0..n_rows {
        let (a, b) = row(r);
        let mut ax = 0.0_f64;
        for c in 0..width {
            ax += a[c] * x[c];
        }
        let resid = b - ax;
        for c in 0..width {
            w[c] += a[c] * resid;
        }
        let d = ax - b;
        rss += d * d;
    }
    (w, rss)
}

/// `solve_subproblem` for [`nnls_rows`]: the passive columns' Gram and
/// right-hand side restricted from the full ones, then `Matrix::lstsq`'s
/// under-determined check and normal-equation solve. Returns the
/// solution in passive-column order, the passive columns and their
/// count.
fn solve_passive(
    gram: &[[f64; MAX_WIDTH]; MAX_WIDTH],
    atb: &[f64; MAX_WIDTH],
    n_rows: usize,
    width: usize,
    passive: &[bool; MAX_WIDTH],
) -> Result<([f64; MAX_WIDTH], [usize; MAX_WIDTH], usize), FitError> {
    let mut p_idx = [0usize; MAX_WIDTH];
    let mut m = 0usize;
    for (i, _) in passive[..width].iter().enumerate().filter(|(_, &p)| p) {
        p_idx[m] = i;
        m += 1;
    }
    if n_rows < m {
        return Err(FitError::NotEnoughSamples {
            got: n_rows,
            need: m,
        });
    }
    let mut g = [0.0_f64; MAX_WIDTH * MAX_WIDTH];
    let mut rhs = [0.0_f64; MAX_WIDTH];
    for s in 0..m {
        rhs[s] = atb[p_idx[s]];
        for t in 0..m {
            let (lo, hi) = if s <= t { (s, t) } else { (t, s) };
            g[s * m + t] = gram[p_idx[lo]][p_idx[hi]];
        }
    }
    let mut work = [0.0_f64; MAX_WIDTH * MAX_WIDTH];
    let mut z = [0.0_f64; MAX_WIDTH];
    solve_normal(&g[..m * m], &rhs[..m], &mut work[..m * m], &mut z[..m])?;
    Ok((z, p_idx, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    /// The batched fitter's two-column solve returns `solve_passive`'s
    /// bits, slots, count and errors on the same Gram and passive set:
    /// on Grams of random rows (signed, and the fitter's `[w·k, w]`
    /// shape), with each column passive alone and both, and on the
    /// degenerate ones: singular and near-singular (the ridge retry,
    /// with one or two columns), a pivot swap, more passive columns than
    /// rows, and overflowed or NaN entries.
    #[test]
    fn two_column_solve_matches_the_general_solve() {
        let general = |g: [f64; 3], rhs: [f64; 2], n_rows: usize, passive: [bool; 2]| {
            let mut gram = [[0.0; MAX_WIDTH]; MAX_WIDTH];
            (gram[0][0], gram[0][1], gram[1][1]) = (g[0], g[1], g[2]);
            let atb = [rhs[0], rhs[1], 0.0, 0.0, 0.0];
            let p = [passive[0], passive[1], false, false, false];
            let (z, slots, m) = solve_passive(&gram, &atb, n_rows, 2, &p)?;
            Ok(([z[0], z[1]], [slots[0], slots[1]], m))
        };
        let key = |r: Result<([f64; 2], [usize; 2], usize), FitError>| {
            r.map(|(z, slots, m)| (z.map(f64::to_bits), slots, m))
        };
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cases: Vec<([f64; 3], [f64; 2], usize)> = Vec::new();
        for i in 0..400 {
            let n = 1 + (unit() * 12.0) as usize;
            let (mut g, mut rhs) = ([0.0; 3], [0.0; 2]);
            for _ in 0..n {
                let r = if i % 2 == 0 {
                    [unit() * 4.0 - 2.0, unit() * 4.0 - 2.0]
                } else {
                    let w = unit() * unit();
                    [w * (unit() * 400.0).floor(), w]
                };
                let y = unit() * 2.0 - 0.5;
                if r[0] != 0.0 {
                    g[0] += r[0] * r[0];
                    g[1] += r[0] * r[1];
                }
                g[2] += r[1] * r[1];
                rhs[0] += r[0] * y;
                rhs[1] += r[1] * y;
            }
            cases.push((g, rhs, n));
        }
        let nan = f64::NAN;
        for n in [0, 1, 2, 7] {
            cases.extend([
                ([1.0, 1.0, 1.0], [1.0, 2.0], n),
                ([4.0, 2.0, 1.0], [3.0, -1.0], n),
                ([1e-14, 0.0, 1e-14], [1e-3, 2e-3], n),
                ([2.0, 1.0 - 1e-15, 0.5], [1.0, 1.0], n),
                ([1.0, 3.0, 2.0], [0.5, -0.5], n),
                ([0.0, 0.0, 5.0], [0.0, 2.0], n),
                ([f64::INFINITY, 1.0, 1.0], [f64::INFINITY, 1.0], n),
                ([1.0, nan, 1.0], [1.0, nan], n),
            ]);
        }
        for (g, rhs, n) in cases {
            for passive in [[true, false], [false, true], [true, true]] {
                assert_eq!(
                    key(solve_sub2_cached(g[0], g[1], g[2], rhs, n, passive)),
                    key(general(g, rhs, n, passive)),
                    "G {g:?}, rhs {rhs:?}, {n} rows, passive {passive:?}"
                );
            }
        }
    }

    #[test]
    fn unconstrained_optimum_inside_region() {
        // x = (1, 2) is non-negative, so NNLS must match plain LS.
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = [1.0, 2.0, 3.0];
        let sol = nnls(&a, &b).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
        assert!(sol.residual_ss < 1e-18);
    }

    #[test]
    fn clamps_negative_coordinate_to_zero() {
        // Plain LS would want a negative coefficient on col1.
        let a = mat(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 0.0]]);
        let b = [1.0, 1.0, 2.0];
        let sol = nnls(&a, &b).unwrap();
        assert!(sol.x.iter().all(|&v| v >= 0.0));
        // With x1 forced to 0, best x0 for rows (1,1,1) vs b (1,1,2) is 4/3.
        assert!((sol.x[0] - 4.0 / 3.0).abs() < 1e-9 || sol.x[1] > 0.0);
    }

    #[test]
    fn lawson_hanson_reference_problem() {
        // Classic example: A = [[1,0],[1,1],[0,1]], b = [2,1,1].
        // Unconstrained solution is (4/3, 1/3): feasible, so NNLS matches.
        let a = mat(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]);
        let b = [2.0, 1.0, 1.0];
        let sol = nnls(&a, &b).unwrap();
        assert!((sol.x[0] - 4.0 / 3.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_zero_solution_when_b_negative() {
        // b pulls in the negative direction only: x = 0 is optimal.
        let a = mat(&[&[1.0], &[1.0]]);
        let b = [-1.0, -2.0];
        let sol = nnls(&a, &b).unwrap();
        assert_eq!(sol.x, vec![0.0]);
        assert!((sol.residual_ss - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_finite() {
        let a = mat(&[&[1.0], &[1.0]]);
        assert!(matches!(
            nnls(&a, &[f64::NAN, 0.0]),
            Err(FitError::NonFiniteInput { .. })
        ));
        let bad = mat(&[&[f64::INFINITY], &[1.0]]);
        assert!(matches!(
            nnls(&bad, &[1.0, 1.0]),
            Err(FitError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = mat(&[&[1.0], &[1.0]]);
        assert!(matches!(
            nnls(&a, &[1.0]),
            Err(FitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn recovers_sgd_style_curve_coefficients() {
        // The exact transformed loss-curve problem: 1/(l−β₂) = β₀k + β₁.
        let beta0 = 0.21;
        let beta1 = 1.07;
        let ks: Vec<f64> = (1..60).map(|k| k as f64).collect();
        let rows: Vec<Vec<f64>> = ks.iter().map(|&k| vec![k, 1.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let b: Vec<f64> = ks.iter().map(|&k| beta0 * k + beta1).collect();
        let sol = nnls(&a, &b).unwrap();
        assert!((sol.x[0] - beta0).abs() < 1e-9);
        assert!((sol.x[1] - beta1).abs() < 1e-9);
    }

    #[test]
    fn wide_problem_with_redundant_columns() {
        // Duplicated columns: any convex split is optimal; solution must be
        // non-negative and reproduce b.
        let a = mat(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let b = [2.0, 2.0, 3.0];
        let sol = nnls(&a, &b).unwrap();
        assert!(sol.x.iter().all(|&v| v >= 0.0));
        assert!((sol.x[0] + sol.x[1] - 2.0).abs() < 1e-6);
        assert!((sol.x[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn iteration_counter_reported() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let sol = nnls(&a, &[1.0, 1.0]).unwrap();
        assert!(sol.iterations >= 1);
    }
}
