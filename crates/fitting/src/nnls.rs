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
//! [`nnls_with`] is the reference iteration. Two production callers
//! replay it bit for bit from a cached Gram instead of a `Matrix`:
//! [`nnls_rows`] (the speed models' refit, up to five columns, over rows
//! rebuilt on demand) and `solve_sub2_cached` (the batched loss-curve
//! fitter's two-column subproblems).

use crate::error::FitError;
use crate::linalg::{solve_normal, Matrix};

/// Options controlling the NNLS iteration.
#[derive(Debug, Clone, Copy)]
pub struct NnlsOptions {
    /// Maximum number of outer iterations. The textbook bound is `3·n`,
    /// but we default to a generous multiple to be safe on noisy data.
    pub max_iterations: usize,
    /// Dual-feasibility tolerance: the algorithm stops when every inactive
    /// coordinate has `w_i ≤ tolerance`.
    pub tolerance: f64,
}

impl Default for NnlsOptions {
    fn default() -> Self {
        NnlsOptions {
            max_iterations: 300,
            tolerance: 1e-11,
        }
    }
}

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

/// Solves `min ‖A·x − b‖₂ s.t. x ≥ 0` with default options.
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
    nnls_with(a, b, NnlsOptions::default())
}

/// Like [`nnls`], but reports into a [`Telemetry`] handle: each call
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

/// Solves `min ‖A·x − b‖₂ s.t. x ≥ 0` with explicit options.
pub fn nnls_with(a: &Matrix, b: &[f64], opts: NnlsOptions) -> Result<NnlsSolution, FitError> {
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
            if !passive[i] && !rejected[i] && w[i] > opts.tolerance {
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
        if iterations > opts.max_iterations {
            return Err(FitError::IterationLimit {
                limit: opts.max_iterations,
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
            if z[slot] <= opts.tolerance {
                passive[enter] = false;
                rejected[enter] = true;
                continue;
            }
        }

        // Inner loop: solve the unconstrained subproblem on P; if the
        // solution leaves the feasible region, step back and shrink P.
        loop {
            iterations += 1;
            if iterations > opts.max_iterations {
                return Err(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
            }

            let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
            let z = solve_subproblem(a, b, &p_idx)?;

            // Any non-positive coordinate in the subproblem solution?
            let all_positive = z.iter().all(|&zi| zi > opts.tolerance);
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
                if z[slot] <= opts.tolerance {
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
                if x[i] <= opts.tolerance {
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

/// The `cols ≤ 2` subproblem solve of [`nnls_with`] (`solve_subproblem`
/// → `Matrix::lstsq` → `Matrix::solve`, ridge retry on singularity)
/// from a precomputed Gram matrix and right-hand side.
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
/// `n_rows` is the row count for `lstsq`'s under-determined check.
pub(crate) fn solve_sub2_cached(
    g00: f64,
    g01: f64,
    g11: f64,
    rhs2: [f64; 2],
    n_rows: usize,
    passive: [bool; 2],
) -> Result<([f64; 2], usize, [usize; 2]), FitError> {
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
        Ok(([z, 0.0], 1, slots))
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
        Ok((z, 2, slots))
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

/// [`nnls`] over `n_rows` rows of `width ≤ MAX_WIDTH` columns that
/// `row(r)` rebuilds on demand as `(features, target)`, without
/// allocating: the same coefficient bits, residual bits, iteration
/// count and error as `nnls` on the matrix of those rows.
///
/// It replays [`nnls_with`] with default options:
///
/// * **One Gram.** One pass over the rows builds the full `AᵀA` upper
///   triangle in `Matrix::gram`'s order (ascending rows, a term skipped
///   only when its row entry is exactly zero) and `Aᵀb` in
///   `Matrix::tr_mul_vec`'s. The submatrix of passive columns keeps
///   their ascending order, so its Gram and right-hand side are these
///   entries restricted to the passive set: the same sums term for
///   term. `solve_subproblem` → `Matrix::lstsq` is then replayed on the
///   stack: the under-determined check, then the very elimination and
///   ridge retry `lstsq` runs, on the restricted system (as
///   [`solve_sub2_cached`] does for two columns).
/// * **First dual.** At `x = 0` every `A·x` entry is `+0.0` (the rows
///   are finite by then), so `b − A·x` is `b` and the dual is `Aᵀb`.
///   The residual sum of squares at `x = 0` is summed in the same pass.
/// * **Later duals.** `w = Aᵀ(b − A·x)` is one pass that rebuilds each
///   row and accumulates `A·x` (`Matrix::mul_vec`'s order), the dual
///   and `‖A·x − b‖²` (`Matrix::residual_ss`'s order) at once, so the
///   final dual pass has already summed the returned residual.
/// * **Reuse.** A rejected entry leaves `x` unchanged, so its dual and
///   residual are reused, and the trial solve is the inner loop's
///   first solve (same passive set).
///
/// The error order is `nnls_with`'s: a non-finite target
/// (`"nnls rhs"`), then a non-finite feature (`"nnls matrix"`), then
/// subproblem and iteration-limit errors as they arise.
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
    let opts = NnlsOptions::default();
    let tol = opts.tolerance;

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
    let mut passive = [false; MAX_WIDTH];
    let mut rejected = [false; MAX_WIDTH];
    let mut w = atb;
    let mut dual_stale = false;
    let mut iterations = 0usize;

    loop {
        if dual_stale {
            (w, rss) = dual_pass(n_rows, width, &row, &x);
        }
        dual_stale = true;

        let mut best: Option<(usize, f64)> = None;
        for i in 0..width {
            if !passive[i] && !rejected[i] && w[i] > tol {
                match best {
                    Some((_, bw)) if bw >= w[i] => {}
                    _ => best = Some((i, w[i])),
                }
            }
        }
        let Some((enter, _)) = best else {
            return Ok(SmallNnlsSolution {
                x,
                residual_ss: rss,
                iterations,
            });
        };

        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(FitError::IterationLimit {
                limit: opts.max_iterations,
            });
        }

        passive[enter] = true;
        let (mut z, mut p_idx, mut m) = solve_passive(&gram, &atb, n_rows, width, &passive)?;
        let slot = p_idx[..m]
            .iter()
            .position(|&i| i == enter)
            .expect("enter in P");
        if z[slot] <= tol {
            passive[enter] = false;
            rejected[enter] = true;
            dual_stale = false;
            continue;
        }

        let mut first = true;
        loop {
            iterations += 1;
            if iterations > opts.max_iterations {
                return Err(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
            }
            if !first {
                (z, p_idx, m) = solve_passive(&gram, &atb, n_rows, width, &passive)?;
            }
            first = false;

            if z[..m].iter().all(|&zi| zi > tol) {
                for (slot, &i) in p_idx[..m].iter().enumerate() {
                    x[i] = z[slot];
                }
                for i in 0..width {
                    if !passive[i] {
                        x[i] = 0.0;
                    }
                }
                rejected = [false; MAX_WIDTH];
                break;
            }

            let mut alpha = f64::INFINITY;
            for (slot, &i) in p_idx[..m].iter().enumerate() {
                if z[slot] <= tol {
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
            for (slot, &i) in p_idx[..m].iter().enumerate() {
                x[i] += alpha * (z[slot] - x[i]);
            }
            for &i in &p_idx[..m] {
                if x[i] <= tol {
                    x[i] = 0.0;
                    passive[i] = false;
                }
            }
            if !passive.iter().any(|&p| p) {
                break;
            }
        }
    }
}

/// One pass of [`nnls_rows`] at iterate `x`: the dual `Aᵀ(b − A·x)` and
/// `‖A·x − b‖²`, in `nnls_with`'s operation order.
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
