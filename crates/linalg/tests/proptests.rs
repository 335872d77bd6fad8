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
        let spans = a.row_spans();
        let rows: Vec<usize> = (0..7).filter(|&i| mask[i] == 1).collect();
        let sub = Matrix::from_fn(rows.len(), 4, |r, c| a[(rows[r], c)]);
        let wsub: Vec<f64> = rows.iter().map(|&i| w[i]).collect();

        let mut y_view = vec![0.0; rows.len()];
        a.matvec_rows_into(&spans, Some(&rows), &x, &mut y_view);
        let mut y_copy = vec![0.0; rows.len()];
        sub.matvec_into(&x, &mut y_copy);
        prop_assert_eq!(&y_view, &y_copy);

        let mut t_view = vec![0.0; 4];
        a.matvec_t_rows_into(&spans, Some(&rows), &wsub, &mut t_view);
        let mut t_copy = vec![0.0; 4];
        sub.matvec_t_into(&wsub, &mut t_copy);
        prop_assert_eq!(&t_view, &t_copy);

        let mut h_view = Matrix::zeros(4, 4);
        h_view.syrk_lower_update_rows(&a, &spans, Some(&rows), &wsub);
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

    /// An identity subset (every row, in order) and the full view
    /// (`rows = None`) are the full kernel.
    #[test]
    fn row_subset_identity_is_full_kernel(
        data in prop::collection::vec(-2.0..2.0f64, 5 * 3),
        w in prop::collection::vec(0.0..4.0f64, 5),
    ) {
        let a = Matrix::from_vec(5, 3, data);
        let spans = a.row_spans();
        let all: Vec<usize> = (0..5).collect();
        let mut h_sub = Matrix::zeros(3, 3);
        h_sub.syrk_lower_update_rows(&a, &spans, Some(&all), &w);
        let mut h_none = Matrix::zeros(3, 3);
        h_none.syrk_lower_update_rows(&a, &spans, None, &w);
        let mut h_full = Matrix::zeros(3, 3);
        h_full.syrk_lower_update(&a, &w);
        for r in 0..3 {
            for c in 0..=r {
                prop_assert_eq!(h_sub[(r, c)], h_full[(r, c)]);
                prop_assert_eq!(h_none[(r, c)], h_full[(r, c)]);
            }
        }
    }

    /// The span-aware row kernels compute the same bits as the dense
    /// kernels they replaced ([`reference`]), on matrices built to stress
    /// the span logic: random zero patterns with `±0.0` entries, all-zero
    /// and single-entry rows, and runs of rows sharing one span that are
    /// longer than a syrk panel (8), so panels split mid-run. Weights and
    /// `x` hold `+0.0` and `−0.0` too, and the rows are viewed both as an
    /// ascending subset and in full (`None`).
    #[test]
    fn span_row_kernels_are_bit_identical_to_dense_reference(
        n in 1usize..10,
        m in 0usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = reference::SplitMix(seed);
        let a = reference::stress_matrix(&mut rng, m, n);
        let spans = a.row_spans();
        let x: Vec<f64> = (0..n).map(|_| reference::signed_zero_or(&mut rng, 3.0)).collect();
        let w_all: Vec<f64> = (0..m).map(|_| reference::weight(&mut rng)).collect();
        let subset: Vec<usize> = (0..m).filter(|_| rng.below(3) != 0).collect();
        let everything: Vec<usize> = (0..m).collect();
        let h0 = Matrix::from_fn(n, n, |_, _| rng.value(1.0));

        for view in [Some(&subset[..]), None] {
            let rows = view.unwrap_or(&everything);
            let w: Vec<f64> = rows.iter().map(|&r| w_all[r]).collect();

            let mut y = vec![f64::NAN; rows.len()];
            a.matvec_rows_into(&spans, view, &x, &mut y);
            let mut y_ref = vec![f64::NAN; rows.len()];
            reference::matvec_rows_into(&a, rows, &x, &mut y_ref);
            prop_assert_eq!(
                reference::bits(&y), reference::bits(&y_ref), "slacks, view {:?}", view
            );

            let mut t = vec![f64::NAN; n];
            a.matvec_t_rows_into(&spans, view, &w, &mut t);
            let mut t_ref = vec![f64::NAN; n];
            reference::matvec_t_rows_into(&a, rows, &w, &mut t_ref);
            prop_assert_eq!(
                reference::bits(&t), reference::bits(&t_ref), "Aᵀw, view {:?}", view
            );

            let mut h = h0.clone();
            h.syrk_lower_update_rows(&a, &spans, view, &w);
            let mut h_ref = h0.clone();
            reference::syrk_lower_impl(&mut h_ref, &a, rows.len(), |i| rows[i], &w);
            for r in 0..n {
                for c in 0..n {
                    let expect = if c <= r { h_ref[(r, c)] } else { h0[(r, c)] };
                    prop_assert_eq!(h[(r, c)].to_bits(), expect.to_bits(),
                        "syrk entry ({}, {}), view {:?}", r, c, view);
                }
            }
            if view.is_none() {
                // The full view also matches the dense entry points, and
                // `syrk_lower_update` (spans found on the fly) matches the
                // recorded-span kernel.
                let mut y_dense = vec![f64::NAN; m];
                a.matvec_into(&x, &mut y_dense);
                prop_assert_eq!(reference::bits(&y), reference::bits(&y_dense));
                let mut t_dense = vec![f64::NAN; n];
                a.matvec_t_into(&w, &mut t_dense);
                prop_assert_eq!(reference::bits(&t), reference::bits(&t_dense));
                let mut h_otf = h0.clone();
                h_otf.syrk_lower_update(&a, &w);
                prop_assert_eq!(
                    reference::bits(h_otf.as_slice()), reference::bits(h.as_slice())
                );
            }
        }
    }
}

/// The dense row kernels as they stood before the span-aware ones replaced
/// them — the reference the span-aware kernels must reproduce bit for bit —
/// plus the stress-input generators.
mod reference {
    use protemp_linalg::Matrix;

    /// Bit patterns, so `±0.0` and NaN payloads compare exactly.
    pub fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `y[i] = row(rows[i]) · x`, folded over every column from `+0.0`.
    pub fn matvec_rows_into(a: &Matrix, rows: &[usize], x: &[f64], y: &mut [f64]) {
        for (yr, &r) in y.iter_mut().zip(rows) {
            let row = a.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yr = acc;
        }
    }

    /// `y = Σᵢ w[i] · row(rows[i])` over every column, zero weights skipped.
    pub fn matvec_t_rows_into(a: &Matrix, rows: &[usize], w: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for (&r, &wr) in rows.iter().zip(w) {
            if wr == 0.0 {
                continue;
            }
            for (yc, a) in y.iter_mut().zip(a.row(r)) {
                *yc += a * wr;
            }
        }
    }

    fn nonzero_span(row: &[f64]) -> Option<(usize, usize)> {
        let lo = row.iter().position(|&v| v != 0.0)?;
        let hi = row.iter().rposition(|&v| v != 0.0)?;
        Some((lo, hi))
    }

    /// The span-panel syrk, rescanning each row's span and indexing the
    /// panel's rows through `base` entry by entry.
    pub fn syrk_lower_impl<F: Fn(usize) -> usize>(
        h: &mut Matrix,
        a: &Matrix,
        m: usize,
        base: F,
        w: &[f64],
    ) {
        const PANEL: usize = 8;
        let n = h.rows();
        let cols = a.cols();
        let data = a.as_slice();
        let hd = h.as_mut_slice();
        let mut k = 0;
        let mut coef = [0.0_f64; PANEL];
        while k < m {
            if w[k] == 0.0 {
                k += 1;
                continue;
            }
            let Some((lo, hi)) = nonzero_span(a.row(base(k))) else {
                k += 1;
                continue;
            };
            let mut end = k + 1;
            while end < m
                && end - k < PANEL
                && w[end] != 0.0
                && nonzero_span(a.row(base(end))) == Some((lo, hi))
            {
                end += 1;
            }
            for r in lo..=hi {
                for (j, c) in coef.iter_mut().enumerate().take(end - k) {
                    let row = a.row(base(k + j));
                    *c = w[k + j] * row[r];
                }
                let dst = &mut hd[r * n + lo..r * n + r + 1];
                for (ci, h) in dst.iter_mut().enumerate() {
                    let col = lo + ci;
                    let mut acc = 0.0;
                    for (j, c) in coef.iter().enumerate().take(end - k) {
                        acc += c * data[base(k + j) * cols + col];
                    }
                    *h += acc;
                }
            }
            k = end;
        }
    }

    /// A small deterministic generator (SplitMix64) for the stress inputs.
    pub struct SplitMix(pub u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..k`.
        pub fn below(&mut self, k: u64) -> u64 {
            self.next() % k
        }

        /// Uniform in `[−scale, scale)`.
        pub fn value(&mut self, scale: f64) -> f64 {
            ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
        }
    }

    /// `+0.0` or `−0.0` one time in four, else a value in `[−scale, scale)`.
    pub fn signed_zero_or(rng: &mut SplitMix, scale: f64) -> f64 {
        match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.value(scale),
        }
    }

    /// A barrier-style weight: `+0.0` or `−0.0` one time in four, else
    /// positive.
    pub fn weight(rng: &mut SplitMix) -> f64 {
        let v = signed_zero_or(rng, 5.0);
        if v == 0.0 {
            v
        } else {
            v.abs()
        }
    }

    /// An `m × n` matrix whose rows are, at random: all `±0.0`; a single
    /// entry; a random zero pattern; or, three times in four, a fresh row
    /// over the previous row's span (nonzero ends, random inner zeros),
    /// which chains into runs of one span longer than a syrk panel.
    pub fn stress_matrix(rng: &mut SplitMix, m: usize, n: usize) -> Matrix {
        let mut a = Matrix::zeros(m, n);
        let mut prev: Option<(usize, usize)> = None;
        let zero = |rng: &mut SplitMix| if rng.below(2) == 0 { 0.0 } else { -0.0 };
        let nonzero = |rng: &mut SplitMix| {
            let v = rng.value(2.0);
            if v == 0.0 {
                1.0
            } else {
                v
            }
        };
        for r in 0..m {
            let row = a.row_mut(r);
            for v in row.iter_mut() {
                *v = zero(rng);
            }
            match (rng.below(16), prev) {
                (0, _) => {}
                (1, _) => row[rng.below(n as u64) as usize] = nonzero(rng),
                (2 | 3, _) | (_, None) => {
                    for v in row.iter_mut() {
                        if rng.below(2) == 0 {
                            *v = nonzero(rng);
                        }
                    }
                }
                (_, Some((lo, hi))) => {
                    row[lo] = nonzero(rng);
                    row[hi] = nonzero(rng);
                    for v in row.iter_mut().take(hi).skip(lo + 1) {
                        if rng.below(4) != 0 {
                            *v = nonzero(rng);
                        }
                    }
                }
            }
            prev = nonzero_span(row).or(prev);
        }
        a
    }
}
