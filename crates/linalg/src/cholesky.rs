use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// The interior-point solver assembles Newton systems whose Hessians are SPD
/// by construction; Cholesky gives the cheapest and most stable solve for
/// them. [`Cholesky::factor_regularized`] adds a diagonal ridge before
/// factoring, which the solver uses to survive nearly-singular Hessians far
/// from the central path.
///
/// # Example
///
/// ```
/// use protemp_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = Cholesky::factor(&a).unwrap();
/// let x = ch.solve(&[2.0, 1.0]);
/// let ax = a.matvec(&x);
/// assert!((ax[0] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a non-positive pivot is met.
    /// * [`LinalgError::NotFinite`] if `a` has NaN or infinite entries.
    pub fn factor(a: &Matrix) -> Result<Self> {
        Self::factor_regularized(a, 0.0)
    }

    /// Factors `a + ridge * I`.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::factor`].
    pub fn factor_regularized(a: &Matrix, ridge: f64) -> Result<Self> {
        let mut ch = Cholesky::zeroed(a.rows());
        ch.factor_in_place(a, ridge)?;
        Ok(ch)
    }

    /// An unfactored placeholder whose storage [`Cholesky::factor_in_place`]
    /// reuses; it exists so callers can allocate the factor once and
    /// refactor in a hot loop. Solving before a successful factor is a
    /// programmer error: the zero diagonal produces non-finite values.
    pub fn zeroed(n: usize) -> Self {
        Cholesky {
            l: Matrix::zeros(n, n),
        }
    }

    /// Factors `a + ridge * I` into this factorization's existing storage.
    ///
    /// Only the lower triangle of `a` is read (the barrier solver assembles
    /// its Newton systems lower-triangle-only for exactly this reason). The
    /// factorization is blocked right-looking: the lower triangle is copied
    /// in once, then each diagonal block is factored unblocked, the panel
    /// below it is solved against the block, and the trailing lower triangle
    /// receives one rank-`NB` update — the same shape as the blocked
    /// `AᵀDA` assembly feeding it, so both stay cache-resident.
    ///
    /// No allocation when `a` has the same dimension as the current
    /// storage; otherwise the storage is resized once.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::factor`]. On error the storage contents are
    /// unspecified and the factorization must not be used for solves.
    pub fn factor_in_place(&mut self, a: &Matrix, ridge: f64) -> Result<()> {
        /// Block size: systems at or below this run the plain unblocked
        /// loop; larger ones get panel updates with better locality.
        const NB: usize = 24;
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        if self.l.shape() != (n, n) {
            self.l = Matrix::zeros(n, n);
        }
        // Seed the working lower triangle (plus ridge) and zero the strict
        // upper so the exposed factor is clean; reject non-finite input in
        // the same pass instead of re-scanning the whole matrix.
        let l = &mut self.l;
        let mut finite = true;
        for r in 0..n {
            let src = &a.as_slice()[r * n..r * n + r + 1];
            let dst = l.row_mut(r);
            for (d, &s) in dst[..=r].iter_mut().zip(src) {
                finite &= s.is_finite();
                *d = s;
            }
            dst[r] += ridge;
            dst[r + 1..].fill(0.0);
        }
        if !finite {
            return Err(LinalgError::NotFinite);
        }
        let mut j0 = 0;
        while j0 < n {
            let jb = NB.min(n - j0);
            // Factor the diagonal block in place (unblocked; contributions
            // from earlier blocks were already subtracted by their trailing
            // updates, so sums run over the block's own columns only).
            for j in j0..j0 + jb {
                let mut d = l[(j, j)];
                for k in j0..j {
                    d -= l[(j, k)] * l[(j, k)];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { index: j });
                }
                let dj = d.sqrt();
                l[(j, j)] = dj;
                for i in (j + 1)..(j0 + jb) {
                    let mut s = l[(i, j)];
                    for k in j0..j {
                        s -= l[(i, k)] * l[(j, k)];
                    }
                    l[(i, j)] = s / dj;
                }
            }
            // Panel solve: rows below the block against the block's factor.
            for i in (j0 + jb)..n {
                for j in j0..j0 + jb {
                    let mut s = l[(i, j)];
                    for k in j0..j {
                        s -= l[(i, k)] * l[(j, k)];
                    }
                    l[(i, j)] = s / l[(j, j)];
                }
            }
            // Trailing rank-`jb` update of the remaining lower triangle.
            for i in (j0 + jb)..n {
                for j in (j0 + jb)..=i {
                    let mut s = 0.0;
                    for k in j0..j0 + jb {
                        s += l[(i, k)] * l[(j, k)];
                    }
                    l[(i, j)] -= s;
                }
            }
            j0 += jb;
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        y
    }

    /// Solves `A x = b` in place: on return `b` holds the solution.
    ///
    /// The substitutions need no temporaries, so this is the allocation-free
    /// kernel behind every Newton step of the barrier solver.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    // Triangular substitution reads a prefix/suffix of `b` while writing
    // b[i]; the indexed form is the clearest way to express that.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve dimension mismatch");
        // Forward substitution L y = b.
        for i in 0..n {
            let mut acc = b[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * b[k];
            }
            b[i] = acc / self.l[(i, i)];
        }
        // Back substitution Lᵀ x = y.
        for i in (0..n).rev() {
            let mut acc = b[i];
            for k in (i + 1)..n {
                acc -= self.l[(k, i)] * b[k];
            }
            b[i] = acc / self.l[(i, i)];
        }
    }

    /// Log-determinant of `A` (twice the log-determinant of `L`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.l();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!((&llt - &a).norm_max() < 1e-12);
    }

    #[test]
    fn solve_gives_residual_zero() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x = ch.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_nan() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::factor(&a).is_err());
        let mut b = Matrix::identity(2);
        b[(0, 0)] = f64::NAN;
        assert!(matches!(Cholesky::factor(&b), Err(LinalgError::NotFinite)));
    }

    #[test]
    fn ridge_rescues_semidefinite() {
        // Singular PSD matrix: ones(2,2).
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor(&a).is_err());
        assert!(Cholesky::factor_regularized(&a, 1e-8).is_ok());
    }

    #[test]
    fn in_place_refactor_matches_fresh_factor() {
        let a = spd3();
        let fresh = Cholesky::factor(&a).unwrap();
        let mut reused = Cholesky::zeroed(3);
        // Factor something else first, then refactor with `a`: the reused
        // storage must end up identical to a fresh factorization.
        reused.factor_in_place(&Matrix::identity(3), 0.0).unwrap();
        reused.factor_in_place(&a, 0.0).unwrap();
        assert_eq!(reused.l(), fresh.l());
        let b = [1.0, -2.0, 3.0];
        let mut x = b;
        reused.solve_in_place(&mut x);
        assert_eq!(x.to_vec(), fresh.solve(&b));
    }

    #[test]
    fn in_place_factor_resizes_on_shape_change() {
        let mut ch = Cholesky::zeroed(2);
        ch.factor_in_place(&spd3(), 0.0).unwrap();
        assert_eq!(ch.dim(), 3);
    }

    #[test]
    fn blocked_factor_crosses_block_boundary() {
        // n = 40 spans two 24-wide blocks: build a well-conditioned SPD
        // matrix A = MᵀM + 40·I and check L·Lᵀ reconstructs it.
        let n = 40;
        let m = Matrix::from_fn(n, n, |r, c| (((r * 31 + c * 17) % 13) as f64 - 6.0) / 6.0);
        let mut a = m.transpose().matmul(&m).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let llt = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(
            (&llt - &a).norm_max() < 1e-9 * a.norm_max(),
            "reconstruction error {}",
            (&llt - &a).norm_max()
        );
        // And the solve inverts it.
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = ch.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn factor_reads_lower_triangle_only() {
        // Garbage (even NaN) in the strict upper triangle must not affect
        // the factorization: the barrier assembles lower-triangle-only.
        let mut a = spd3();
        let clean = Cholesky::factor(&a).unwrap();
        a[(0, 1)] = f64::NAN;
        a[(0, 2)] = 1e300;
        a[(1, 2)] = -7.0;
        let dirty = Cholesky::factor(&a).unwrap();
        assert_eq!(clean.l(), dirty.l());
    }

    #[test]
    fn log_det_matches_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert!(ch.log_det().abs() < 1e-14);
        let a = Matrix::from_diag(&[2.0, 3.0]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - 6.0_f64.ln()).abs() < 1e-12);
    }
}
