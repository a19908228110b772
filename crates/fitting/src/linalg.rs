//! Minimal dense linear algebra for least-squares problems.
//!
//! The fitting problems in Optimus are tiny (2–5 unknowns, tens to a few
//! thousand samples), so a straightforward row-major dense matrix with
//! Gaussian elimination and normal-equation least squares is both simple
//! and fast. Everything is `f64`.

use crate::error::FitError;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use optimus_fitting::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(a.get(1, 0), 3.0);
/// assert_eq!(a.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// Returns [`FitError::DimensionMismatch`] if the rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, FitError> {
        let r = rows.len();
        if r == 0 {
            return Err(FitError::DimensionMismatch {
                context: "from_rows: no rows",
            });
        }
        let c = rows[0].len();
        if c == 0 {
            return Err(FitError::DimensionMismatch {
                context: "from_rows: zero-length rows",
            });
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(FitError::DimensionMismatch {
                    context: "from_rows: ragged rows",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// Returns [`FitError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, FitError> {
        if data.len() != rows * cols {
            return Err(FitError::DimensionMismatch {
                context: "from_vec: data length != rows*cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Computes the matrix-vector product `A·x`.
    ///
    /// Returns [`FitError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, FitError> {
        if x.len() != self.cols {
            return Err(FitError::DimensionMismatch {
                context: "mul_vec: vector length != cols",
            });
        }
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Computes `Aᵀ·y` without materializing the transpose.
    ///
    /// Returns [`FitError::DimensionMismatch`] if `y.len() != rows`.
    pub fn tr_mul_vec(&self, y: &[f64]) -> Result<Vec<f64>, FitError> {
        if y.len() != self.rows {
            return Err(FitError::DimensionMismatch {
                context: "tr_mul_vec: vector length != rows",
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            let row = self.row(r);
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a * yr;
            }
        }
        Ok(out)
    }

    /// Computes the Gram matrix `AᵀA`.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for (j, &rj) in row.iter().enumerate().skip(i) {
                    let v = g.get(i, j) + ri * rj;
                    g.set(i, j, v);
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g.set(i, j, g.get(j, i));
            }
        }
        g
    }

    /// Solves the square system `A·x = b` by Gaussian elimination with
    /// partial pivoting.
    ///
    /// Returns [`FitError::SingularSystem`] when a pivot is numerically
    /// zero, and [`FitError::DimensionMismatch`] for shape errors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, FitError> {
        if self.rows != self.cols {
            return Err(FitError::DimensionMismatch {
                context: "solve: matrix not square",
            });
        }
        if b.len() != self.rows {
            return Err(FitError::DimensionMismatch {
                context: "solve: rhs length != rows",
            });
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        eliminate(&mut a, &mut x)?;
        Ok(x)
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` via the normal
    /// equations, with a tiny ridge retry when `AᵀA` is singular.
    ///
    /// The ridge retry (λ = 1e-10 · trace/n) keeps online fitting robust
    /// when a scheduler feeds duplicated sample points.
    pub fn lstsq(&self, b: &[f64]) -> Result<Vec<f64>, FitError> {
        if b.len() != self.rows {
            return Err(FitError::DimensionMismatch {
                context: "lstsq: rhs length != rows",
            });
        }
        if self.rows < self.cols {
            return Err(FitError::NotEnoughSamples {
                got: self.rows,
                need: self.cols,
            });
        }
        let g = self.gram();
        let rhs = self.tr_mul_vec(b)?;
        let mut work = vec![0.0; g.data.len()];
        let mut x = vec![0.0; rhs.len()];
        solve_normal(&g.data, &rhs, &mut work, &mut x)?;
        Ok(x)
    }

    /// Returns the residual sum of squares `‖A·x − b‖₂²`.
    pub fn residual_ss(&self, x: &[f64], b: &[f64]) -> Result<f64, FitError> {
        let ax = self.mul_vec(x)?;
        if b.len() != ax.len() {
            return Err(FitError::DimensionMismatch {
                context: "residual_ss: rhs length != rows",
            });
        }
        Ok(ax
            .iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum())
    }
}

/// [`Matrix::lstsq`]'s solve of the normal equations `g·x = rhs`
/// (`g` row-major `n × n`, `n = rhs.len()`): [`Matrix::solve`]'s
/// elimination, and on a singular system the ridge retry
/// `λ = 1e-10·max(trace/n, 1e-30)` on the diagonal. The caller owns the
/// `n × n` elimination workspace `work` and the solution `x`, so
/// `nnls::nnls_rows` runs this same code on the stack.
pub(crate) fn solve_normal(
    g: &[f64],
    rhs: &[f64],
    work: &mut [f64],
    x: &mut [f64],
) -> Result<(), FitError> {
    work.copy_from_slice(g);
    x.copy_from_slice(rhs);
    match eliminate(work, x) {
        Err(FitError::SingularSystem) => {
            let n = rhs.len();
            let mut trace = 0.0;
            for i in 0..n {
                trace += g[i * n + i];
            }
            let lambda = 1e-10 * (trace / n as f64).max(1e-30);
            work.copy_from_slice(g);
            for i in 0..n {
                work[i * n + i] += lambda;
            }
            x.copy_from_slice(rhs);
            eliminate(work, x)
        }
        res => res,
    }
}

/// Gaussian elimination with partial pivoting on the row-major
/// `n × n` system `a·x = b` (`n = x.len()`, `x` holds `b` on entry and
/// the solution on success). Returns [`FitError::SingularSystem`] when
/// a pivot is numerically zero.
fn eliminate(a: &mut [f64], x: &mut [f64]) -> Result<(), FitError> {
    let n = x.len();
    for col in 0..n {
        // Partial pivoting: find the largest pivot in this column.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-13 {
            return Err(FitError::SingularSystem);
        }
        if pivot_row != col {
            for c in 0..n {
                a.swap(col * n + c, pivot_row * n + c);
            }
            x.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for r in (col + 1)..n {
            let factor = a[r * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in (col + 1)..n {
            acc -= a[col * n + c] * x[c];
        }
        x[col] = acc / a[col * n + col];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Matrix::identity(3);
        let b = vec![1.0, -2.0, 5.5];
        let x = i.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the top-left forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(FitError::SingularSystem));
    }

    #[test]
    fn lstsq_recovers_exact_line() {
        // y = 3x + 2 sampled exactly.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&row_refs).unwrap();
        let b: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 2.0).collect();
        let coef = a.lstsq(&b).unwrap();
        assert_close(coef[0], 3.0, 1e-9);
        assert_close(coef[1], 2.0, 1e-9);
    }

    #[test]
    fn lstsq_overdetermined_noisy() {
        // y = 2x with symmetric noise: LS slope stays 2 exactly because the
        // noise is constructed orthogonal to the regressor.
        let a = Matrix::from_rows(&[&[1.0], &[-1.0], &[2.0], &[-2.0]]).unwrap();
        let b = [2.1, -1.9, 4.1, -3.9];
        let coef = a.lstsq(&b).unwrap();
        assert_close(coef[0], 2.0, 1e-9);
    }

    #[test]
    fn lstsq_underdetermined_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(matches!(
            a.lstsq(&[1.0]),
            Err(FitError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn gram_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        assert_close(g.get(0, 0), 35.0, 1e-12);
        assert_close(g.get(0, 1), 44.0, 1e-12);
        assert_close(g.get(1, 0), 44.0, 1e-12);
        assert_close(g.get(1, 1), 56.0, 1e-12);
    }

    #[test]
    fn tr_mul_vec_matches_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let y = [1.0, 0.5, -1.0];
        let direct = a.tr_mul_vec(&y).unwrap();
        let via_t = a.transpose().mul_vec(&y).unwrap();
        assert_eq!(direct, via_t);
    }

    #[test]
    fn residual_ss_zero_for_exact_solution() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]).unwrap();
        let rss = a.residual_ss(&[1.0, 2.0], &[2.0, 4.0]).unwrap();
        assert_close(rss, 0.0, 1e-15);
    }

    #[test]
    fn mul_vec_dimension_checked() {
        let a = Matrix::zeros(2, 3);
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
        assert!(a.tr_mul_vec(&[1.0, 2.0, 3.0]).is_err());
    }
}
