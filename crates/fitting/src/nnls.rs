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

use crate::error::FitError;
use crate::linalg::Matrix;

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
