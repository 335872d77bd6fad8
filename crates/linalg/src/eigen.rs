//! Eigenvalue routines: power-iteration bounds and a full symmetric
//! eigensolver.
//!
//! The thermal integrators need the extremal eigenvalues of the (symmetric,
//! similarity-transformed) system matrix `C⁻¹G` to compute the forward-Euler
//! stability limit — the quantity behind the paper's statement that the
//! thermal equation "had to be solved with a time step of 0.4 ms" for
//! numerical stability. The limit reads the full spectrum from [`sym_eig`].

use crate::{LinalgError, Lu, Matrix, Result};

/// Default iteration cap for the power methods.
const MAX_ITERS: usize = 10_000;
/// Relative convergence tolerance on the Rayleigh quotient.
const TOL: f64 = 1e-10;
/// Sweep cap for the cyclic Jacobi eigensolver. Jacobi converges
/// quadratically once the off-diagonal mass is small; well-conditioned
/// symmetric matrices of the sizes this workspace uses (tens of rows) finish
/// in well under ten sweeps.
const MAX_JACOBI_SWEEPS: usize = 64;
/// Relative off-diagonal Frobenius threshold at which the Jacobi iteration
/// declares the matrix diagonalized.
const JACOBI_TOL: f64 = 1e-13;

/// Estimates the spectral radius of a square matrix by power iteration.
///
/// Uses a fixed deterministic starting vector with a small perturbation to
/// avoid starting orthogonal to the dominant eigenvector.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square.
/// * [`LinalgError::NoConvergence`] if the iteration stalls (e.g. complex
///   dominant pair with equal magnitude); the thermal matrices in this
///   workspace have real spectra, so this indicates misuse.
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            op: "spectral_radius",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(0.0);
    }
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 * (i as f64 + 1.0)).collect();
    normalize(&mut v);
    let mut lambda = 0.0;
    for it in 0..MAX_ITERS {
        let w = a.matvec(&v);
        let norm = crate::vecops::norm2(&w);
        if norm == 0.0 {
            return Ok(0.0); // v in nullspace and A nilpotent-like: radius 0 signal.
        }
        let new_lambda = crate::vecops::dot(&w, &v);
        v = w;
        normalize(&mut v);
        if it > 2 && (new_lambda - lambda).abs() <= TOL * new_lambda.abs().max(1e-30) {
            return Ok(new_lambda.abs());
        }
        lambda = new_lambda;
    }
    Err(LinalgError::NoConvergence {
        method: "power iteration",
        iterations: MAX_ITERS,
    })
}

/// Largest eigenvalue of a symmetric matrix by power iteration on `A + σI`.
///
/// The shift `σ = ‖A‖₁` makes all eigenvalues of the shifted matrix
/// non-negative so the dominant one corresponds to `λ_max(A)`.
///
/// # Errors
///
/// Same conditions as [`spectral_radius`].
pub fn sym_eig_max(a: &Matrix) -> Result<f64> {
    let sigma = a.norm_one();
    let n = a.rows();
    let mut shifted = a.clone();
    for i in 0..n {
        shifted[(i, i)] += sigma;
    }
    let r = spectral_radius(&shifted)?;
    Ok(r - sigma)
}

/// Smallest eigenvalue of a symmetric matrix (negated `sym_eig_max` of `-A`).
///
/// # Errors
///
/// Same conditions as [`spectral_radius`].
pub fn sym_eig_min(a: &Matrix) -> Result<f64> {
    let neg = a.scale(-1.0);
    Ok(-sym_eig_max(&neg)?)
}

/// Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
///
/// Returns `(lambda, v)` with the eigenvalues in **ascending** order and the
/// matching orthonormal eigenvectors as the columns of `v`, so that
/// `A = V · diag(λ) · Vᵀ`.
///
/// Only the symmetric part of `a` is meaningful; the routine reads both
/// triangles and assumes they agree (callers construct symmetric matrices).
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square.
/// * [`LinalgError::NotFinite`] if `a` contains non-finite entries.
/// * [`LinalgError::NoConvergence`] if the sweep cap is exhausted before the
///   off-diagonal mass falls below tolerance (does not happen for finite
///   symmetric input at the sizes used here).
pub fn sym_eig(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            op: "sym_eig",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), Matrix::zeros(0, 0)));
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let fro = m.norm_fro().max(f64::MIN_POSITIVE);
    for _sweep in 0..MAX_JACOBI_SWEEPS {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if (2.0 * off).sqrt() <= JACOBI_TOL * fro {
            return Ok(sorted_eigenpairs(&m, v));
        }
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq == 0.0 {
                    continue;
                }
                // Classic two-sided Jacobi rotation zeroing m[(p, q)].
                let tau = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                m[(p, p)] = app - t * apq;
                m[(q, q)] = aqq + t * apq;
                m[(p, q)] = 0.0;
                m[(q, p)] = 0.0;
                for r in 0..n {
                    if r == p || r == q {
                        continue;
                    }
                    let arp = m[(r, p)];
                    let arq = m[(r, q)];
                    m[(r, p)] = c * arp - s * arq;
                    m[(p, r)] = m[(r, p)];
                    m[(r, q)] = s * arp + c * arq;
                    m[(q, r)] = m[(r, q)];
                }
                for r in 0..n {
                    let vrp = v[(r, p)];
                    let vrq = v[(r, q)];
                    v[(r, p)] = c * vrp - s * vrq;
                    v[(r, q)] = s * vrp + c * vrq;
                }
            }
        }
    }
    Err(LinalgError::NoConvergence {
        method: "cyclic Jacobi",
        iterations: MAX_JACOBI_SWEEPS,
    })
}

/// Extracts the diagonal of a Jacobi-converged matrix and permutes the
/// accumulated rotation columns into ascending-eigenvalue order.
fn sorted_eigenpairs(m: &Matrix, v: Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).expect("finite diag"));
    let lambda: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vs = Matrix::from_fn(n, n, |r, col| v[(r, order[col])]);
    (lambda, vs)
}

/// Condition-number estimate `λ_max/λ_min` for a symmetric positive definite
/// matrix, using inverse power iteration for the smallest eigenvalue.
///
/// # Errors
///
/// * Propagates factorization failures if `a` is singular.
/// * Same convergence conditions as [`spectral_radius`].
pub fn spd_condition(a: &Matrix) -> Result<f64> {
    let lmax = sym_eig_max(a)?;
    let lu = Lu::factor(a)?;
    // Inverse power iteration: dominant eigenvalue of A⁻¹ is 1/λ_min.
    let n = a.rows();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 * (i as f64 + 1.0)).collect();
    normalize(&mut v);
    let mut mu = 0.0;
    for it in 0..MAX_ITERS {
        let w = lu.solve(&v)?;
        let new_mu = crate::vecops::dot(&w, &v);
        let mut w = w;
        normalize(&mut w);
        v = w;
        if it > 2 && (new_mu - mu).abs() <= TOL * new_mu.abs().max(1e-30) {
            let lmin = 1.0 / new_mu;
            return Ok(lmax / lmin);
        }
        mu = new_mu;
    }
    Err(LinalgError::NoConvergence {
        method: "inverse power iteration",
        iterations: MAX_ITERS,
    })
}

fn normalize(v: &mut [f64]) {
    let n = crate::vecops::norm2(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_spectral_radius() {
        let a = Matrix::from_diag(&[1.0, -3.0, 2.0]);
        let r = spectral_radius(&a).unwrap();
        assert!((r - 3.0).abs() < 1e-8);
    }

    #[test]
    fn sym_extremes() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        // Eigenvalues 1 and 3.
        assert!((sym_eig_max(&a).unwrap() - 3.0).abs() < 1e-8);
        assert!((sym_eig_min(&a).unwrap() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn condition_of_diag() {
        let a = Matrix::from_diag(&[10.0, 1.0, 2.0]);
        let c = spd_condition(&a).unwrap();
        assert!((c - 10.0).abs() < 1e-6, "got {c}");
    }

    #[test]
    fn non_square_rejected() {
        assert!(spectral_radius(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn zero_matrix_radius_zero() {
        assert_eq!(spectral_radius(&Matrix::zeros(3, 3)).unwrap(), 0.0);
    }

    #[test]
    fn sym_eig_known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (lambda, v) = sym_eig(&a).unwrap();
        assert!((lambda[0] - 1.0).abs() < 1e-12);
        assert!((lambda[1] - 3.0).abs() < 1e-12);
        // Columns orthonormal.
        let mut dot = 0.0;
        for r in 0..2 {
            dot += v[(r, 0)] * v[(r, 1)];
        }
        assert!(dot.abs() < 1e-12);
    }

    #[test]
    fn sym_eig_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.25], &[0.5, -0.25, 5.0]]);
        let (lambda, v) = sym_eig(&a).unwrap();
        let n = 3;
        let recon = Matrix::from_fn(n, n, |r, c| {
            (0..n).map(|j| v[(r, j)] * lambda[j] * v[(c, j)]).sum()
        });
        let mut diff = a.clone();
        diff.axpy(-1.0, &recon).unwrap();
        assert!(diff.norm_max() < 1e-10, "residual {}", diff.norm_max());
    }

    #[test]
    fn sym_eig_diag_is_sorted_identity_vectors() {
        let a = Matrix::from_diag(&[5.0, -1.0, 2.0]);
        let (lambda, v) = sym_eig(&a).unwrap();
        assert_eq!(lambda, vec![-1.0, 2.0, 5.0]);
        // Each column is a signed unit basis vector.
        for c in 0..3 {
            let norm: f64 = (0..3).map(|r| v[(r, c)] * v[(r, c)]).sum();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sym_eig_handles_1x1_and_empty() {
        let (lambda, v) = sym_eig(&Matrix::from_diag(&[7.5])).unwrap();
        assert_eq!(lambda, vec![7.5]);
        assert_eq!(v.shape(), (1, 1));
        assert!((v[(0, 0)].abs() - 1.0).abs() < 1e-15);
        let (lambda, v) = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(lambda.is_empty());
        assert_eq!(v.shape(), (0, 0));
    }

    #[test]
    fn sym_eig_rejects_bad_input() {
        assert!(sym_eig(&Matrix::zeros(2, 3)).is_err());
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = f64::NAN;
        assert!(sym_eig(&a).is_err());
    }

    #[test]
    fn sym_eig_agrees_with_power_extremes() {
        let a = Matrix::from_rows(&[
            &[6.0, 2.0, 1.0, 0.0],
            &[2.0, 5.0, 0.5, 0.25],
            &[1.0, 0.5, 4.0, 1.5],
            &[0.0, 0.25, 1.5, 7.0],
        ]);
        let (lambda, _) = sym_eig(&a).unwrap();
        let lmax = sym_eig_max(&a).unwrap();
        let lmin = sym_eig_min(&a).unwrap();
        assert!((lambda[3] - lmax).abs() < 1e-7);
        assert!((lambda[0] - lmin).abs() < 1e-7);
    }
}
