//! Property-based tests for the dense linear algebra kernels.

use proptest::prelude::*;
use protemp_linalg::{eigen, expm, vecops, Cholesky, Lu, Matrix, Qr};

/// Strategy: a well-conditioned SPD matrix A = BᵀB + n·I of side `n`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data);
        let mut a = b.transpose().matmul(&b).expect("square");
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    })
}

/// Strategy: a general square matrix with entries in [-1, 1] plus a strong
/// diagonal so it is comfortably nonsingular.
fn diag_dominant(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let mut a = Matrix::from_vec(n, n, data);
        for i in 0..n {
            a[(i, i)] += 2.0 * n as f64;
        }
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(5)) {
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.l();
        let llt = l.matmul(&l.transpose()).unwrap();
        prop_assert!((&llt - &a).norm_max() < 1e-9 * a.norm_max().max(1.0));
    }

    #[test]
    fn cholesky_solve_residual(a in spd_matrix(5), b in prop::collection::vec(-10.0..10.0f64, 5)) {
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        let r = vecops::sub(&a.matvec(&x), &b);
        prop_assert!(vecops::norm_inf(&r) < 1e-8);
    }

    #[test]
    fn lu_solve_residual(a in diag_dominant(6), b in prop::collection::vec(-10.0..10.0f64, 6)) {
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = vecops::sub(&a.matvec(&x), &b);
        prop_assert!(vecops::norm_inf(&r) < 1e-8);
    }

    #[test]
    fn lu_inverse_roundtrip(a in diag_dominant(4)) {
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!((&prod - &Matrix::identity(4)).norm_max() < 1e-9);
    }

    #[test]
    fn qr_orthogonality(data in prop::collection::vec(-1.0..1.0f64, 6 * 3)) {
        let mut a = Matrix::from_vec(6, 3, data);
        // Keep full column rank by boosting the top 3x3 diagonal.
        for i in 0..3 { a[(i, i)] += 5.0; }
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q();
        let qtq = q.transpose().matmul(&q).unwrap();
        prop_assert!((&qtq - &Matrix::identity(6)).norm_max() < 1e-10);
    }

    #[test]
    fn qr_least_squares_optimality(data in prop::collection::vec(-1.0..1.0f64, 6 * 2),
                                   b in prop::collection::vec(-5.0..5.0f64, 6)) {
        let mut a = Matrix::from_vec(6, 2, data);
        for i in 0..2 { a[(i, i)] += 5.0; }
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations residual: Aᵀ(Ax - b) == 0 at the optimum.
        let resid = vecops::sub(&a.matvec(&x), &b);
        let grad = a.matvec_t(&resid);
        prop_assert!(vecops::norm_inf(&grad) < 1e-8);
    }

    #[test]
    fn expm_inverse_property(data in prop::collection::vec(-0.5..0.5f64, 9)) {
        // exp(A) * exp(-A) == I for any square A.
        let a = Matrix::from_vec(3, 3, data);
        let e = expm(&a).unwrap();
        let einv = expm(&a.scale(-1.0)).unwrap();
        let prod = e.matmul(&einv).unwrap();
        prop_assert!((&prod - &Matrix::identity(3)).norm_max() < 1e-10);
    }

    #[test]
    fn matmul_associative(x in prop::collection::vec(-1.0..1.0f64, 9),
                          y in prop::collection::vec(-1.0..1.0f64, 9),
                          z in prop::collection::vec(-1.0..1.0f64, 9)) {
        let a = Matrix::from_vec(3, 3, x);
        let b = Matrix::from_vec(3, 3, y);
        let c = Matrix::from_vec(3, 3, z);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!((&left - &right).norm_max() < 1e-12);
    }

    #[test]
    fn transpose_involution(data in prop::collection::vec(-1.0..1.0f64, 12)) {
        let a = Matrix::from_vec(3, 4, data);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn dot_cauchy_schwarz(a in prop::collection::vec(-10.0..10.0f64, 8),
                          b in prop::collection::vec(-10.0..10.0f64, 8)) {
        let lhs = vecops::dot(&a, &b).abs();
        let rhs = vecops::norm2(&a) * vecops::norm2(&b);
        prop_assert!(lhs <= rhs + 1e-9);
    }

    /// The row-subset kernels must agree exactly with materializing the
    /// subset as its own matrix and running the full kernels — they are the
    /// same arithmetic in the same order, so equality is bitwise.
    #[test]
    fn row_subset_kernels_match_materialized_copy(
        data in prop::collection::vec(-2.0..2.0f64, 7 * 4),
        x in prop::collection::vec(-3.0..3.0f64, 4),
        w in prop::collection::vec(0.0..5.0f64, 7),
        mask in prop::collection::vec(0..2usize, 7),
    ) {
        let a = Matrix::from_vec(7, 4, data);
        let rows: Vec<usize> = (0..7).filter(|&i| mask[i] == 1).collect();
        let sub = Matrix::from_fn(rows.len(), 4, |r, c| a[(rows[r], c)]);
        let wsub: Vec<f64> = rows.iter().map(|&i| w[i]).collect();

        let mut y_view = vec![0.0; rows.len()];
        a.matvec_rows_into(&rows, &x, &mut y_view);
        let mut y_copy = vec![0.0; rows.len()];
        sub.matvec_into(&x, &mut y_copy);
        prop_assert_eq!(&y_view, &y_copy);

        let mut t_view = vec![0.0; 4];
        a.matvec_t_rows_into(&rows, &wsub, &mut t_view);
        let mut t_copy = vec![0.0; 4];
        sub.matvec_t_into(&wsub, &mut t_copy);
        prop_assert_eq!(&t_view, &t_copy);

        let mut h_view = Matrix::zeros(4, 4);
        h_view.syrk_lower_update_rows(&a, &rows, &wsub);
        let mut h_copy = Matrix::zeros(4, 4);
        h_copy.syrk_lower_update(&sub, &wsub);
        for r in 0..4 {
            for c in 0..=r {
                prop_assert_eq!(h_view[(r, c)], h_copy[(r, c)],
                    "lower triangle ({}, {})", r, c);
            }
        }
        // Strict upper triangle untouched by the subset kernel too.
        for r in 0..4 {
            for c in r + 1..4 {
                prop_assert_eq!(h_view[(r, c)], 0.0);
            }
        }
    }

    /// The Jacobi eigensolver agrees with the shifted power iterations on
    /// the extremal eigenvalues of random SPD matrices, its eigenvalues come
    /// back sorted, and `V·diag(λ)·Vᵀ` reconstructs the input.
    #[test]
    fn sym_eig_matches_power_extremes_and_reconstructs(a in spd_matrix(6)) {
        let (lambda, v) = eigen::sym_eig(&a).unwrap();
        prop_assert!(lambda.windows(2).all(|w| w[0] <= w[1]));
        let lmax = eigen::sym_eig_max(&a).unwrap();
        let lmin = eigen::sym_eig_min(&a).unwrap();
        let scale = a.norm_max().max(1.0);
        prop_assert!((lambda[5] - lmax).abs() < 1e-6 * scale,
            "lmax jacobi {} vs power {}", lambda[5], lmax);
        prop_assert!((lambda[0] - lmin).abs() < 1e-6 * scale,
            "lmin jacobi {} vs power {}", lambda[0], lmin);
        let recon = Matrix::from_fn(6, 6, |r, c| {
            (0..6).map(|j| v[(r, j)] * lambda[j] * v[(c, j)]).sum()
        });
        prop_assert!((&recon - &a).norm_max() < 1e-9 * scale,
            "reconstruction residual {}", (&recon - &a).norm_max());
        // Orthonormal eigenvectors: VᵀV == I.
        let vtv = v.transpose().matmul(&v).unwrap();
        prop_assert!((&vtv - &Matrix::identity(6)).norm_max() < 1e-10);
    }

    /// 1×1 matrices are their own eigendecomposition.
    #[test]
    fn sym_eig_scalar_case(x in -100.0..100.0f64) {
        let (lambda, v) = eigen::sym_eig(&Matrix::from_diag(&[x])).unwrap();
        prop_assert_eq!(lambda[0], x);
        prop_assert!((v[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    /// Repeated eigenvalues: `Q·diag(μ, μ, ν)·Qᵀ` still reconstructs and
    /// returns the repeated value twice, for any rotation Q (built from a QR
    /// factorization of a random matrix).
    #[test]
    fn sym_eig_repeated_eigenvalues(
        data in prop::collection::vec(-1.0..1.0f64, 9),
        mu in 1.0..5.0f64,
        gap in 1.0..4.0f64,
    ) {
        let mut g = Matrix::from_vec(3, 3, data);
        for i in 0..3 { g[(i, i)] += 4.0; }
        let q = Qr::factor(&g).unwrap().q();
        let d = Matrix::from_diag(&[mu, mu, mu + gap]);
        let a = q.matmul(&d).unwrap().matmul(&q.transpose()).unwrap();
        let (lambda, v) = eigen::sym_eig(&a).unwrap();
        prop_assert!((lambda[0] - mu).abs() < 1e-8);
        prop_assert!((lambda[1] - mu).abs() < 1e-8);
        prop_assert!((lambda[2] - (mu + gap)).abs() < 1e-8);
        let recon = Matrix::from_fn(3, 3, |r, c| {
            (0..3).map(|j| v[(r, j)] * lambda[j] * v[(c, j)]).sum()
        });
        prop_assert!((&recon - &a).norm_max() < 1e-8);
    }

    /// An identity subset (every row, in order) is the full kernel.
    #[test]
    fn row_subset_identity_is_full_kernel(
        data in prop::collection::vec(-2.0..2.0f64, 5 * 3),
        w in prop::collection::vec(0.0..4.0f64, 5),
    ) {
        let a = Matrix::from_vec(5, 3, data);
        let all: Vec<usize> = (0..5).collect();
        let mut h_sub = Matrix::zeros(3, 3);
        h_sub.syrk_lower_update_rows(&a, &all, &w);
        let mut h_full = Matrix::zeros(3, 3);
        h_full.syrk_lower_update(&a, &w);
        for r in 0..3 {
            for c in 0..=r {
                prop_assert_eq!(h_sub[(r, c)], h_full[(r, c)]);
            }
        }
    }
}
