//! Property-based tests for the convex solver.
//!
//! These validate optimality through independent certificates: analytic
//! solutions for projections, KKT stationarity via finite differences, and
//! feasibility of every returned point.

use proptest::prelude::*;
use protemp_cvx::{Problem, SolveStatus, SolverOptions};
use protemp_linalg::{vecops, Matrix};

fn solve(p: &Problem) -> protemp_cvx::Result<protemp_cvx::Solution> {
    p.solve(&SolverOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Projection of a point onto a box has the closed form clamp(target).
    #[test]
    fn qp_box_projection_matches_clamp(tx in -3.0..3.0f64, ty in -3.0..3.0f64) {
        // minimize ‖x − t‖² = ½xᵀ(2I)x − 2tᵀx s.t. 0 ≤ x ≤ 1.
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![-2.0 * tx, -2.0 * ty]);
        p.add_box(0, 0.0, 1.0);
        p.add_box(1, 0.0, 1.0);
        let s = solve(&p).unwrap();
        prop_assert!(s.status.is_optimal());
        let cx = tx.clamp(0.0, 1.0);
        let cy = ty.clamp(0.0, 1.0);
        prop_assert!((s.x[0] - cx).abs() < 2e-3, "x {} vs clamp {}", s.x[0], cx);
        prop_assert!((s.x[1] - cy).abs() < 2e-3, "y {} vs clamp {}", s.x[1], cy);
    }

    /// LP over a simplex: optimum is the vertex of the smallest cost.
    #[test]
    fn lp_simplex_picks_min_cost_vertex(c in prop::collection::vec(-5.0..5.0f64, 3)) {
        // minimize cᵀx s.t. x ≥ 0, Σx = 1 (via two inequalities to keep phase I honest).
        let mut p = Problem::new(3);
        p.set_linear_objective(c.clone());
        for i in 0..3 {
            p.add_box(i, 0.0, f64::INFINITY);
        }
        p.add_eq(vec![1.0, 1.0, 1.0], 1.0);
        let s = solve(&p).unwrap();
        prop_assert!(s.status.is_optimal());
        let best = c.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((s.objective - best).abs() < 1e-4,
            "objective {} vs best vertex {}", s.objective, best);
        // Solution stays on the simplex.
        prop_assert!((vecops::sum(&s.x) - 1.0).abs() < 1e-6);
        prop_assert!(s.x.iter().all(|&v| v >= -1e-8));
    }

    /// Every optimal point returned is feasible.
    #[test]
    fn returned_points_are_feasible(
        rows in prop::collection::vec(prop::collection::vec(-1.0..1.0f64, 2), 1..6),
        rhs in prop::collection::vec(0.5..3.0f64, 6),
    ) {
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![1.0, 1.0]);
        p.add_box(0, -10.0, 10.0);
        p.add_box(1, -10.0, 10.0);
        for (i, row) in rows.iter().enumerate() {
            p.add_linear_le(row.clone(), rhs[i]);
        }
        // The box contains 0 and all rhs are positive, so 0 is strictly feasible.
        let s = solve(&p).unwrap();
        prop_assert!(s.status.is_optimal());
        prop_assert!(p.max_violation(&s.x) < 1e-6);
    }

    /// Quadratic-constrained problems: check the active constraint is tight
    /// and the point optimal via the known closed form.
    #[test]
    fn quad_ball_constraint(radius2 in 0.5..4.0f64) {
        // minimize -(x+y) s.t. x² + y² ≤ r² → x = y = r/√2.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![-1.0, -1.0]);
        p.add_quad_le(Matrix::from_diag(&[2.0, 2.0]), vec![0.0, 0.0], radius2);
        let s = solve(&p).unwrap();
        prop_assert!(s.status.is_optimal());
        let expect = (radius2 / 2.0).sqrt();
        prop_assert!((s.x[0] - expect).abs() < 2e-3, "x {} vs {}", s.x[0], expect);
        prop_assert!((s.x[1] - expect).abs() < 2e-3);
    }

    /// Infeasible boxes are detected as infeasible, never "solved".
    #[test]
    fn empty_box_is_infeasible(gap in 0.1..3.0f64) {
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        // x ≤ 0 and x ≥ gap.
        p.add_linear_le(vec![1.0], 0.0);
        p.add_linear_le(vec![-1.0], -gap);
        let s = solve(&p).unwrap();
        prop_assert_eq!(s.status, SolveStatus::Infeasible);
    }

    /// Scaling the objective does not move the optimizer.
    #[test]
    fn objective_scaling_invariance(scale in 0.1..50.0f64) {
        let build = |k: f64| {
            let mut p = Problem::new(2);
            p.set_linear_objective(vec![-k, -2.0 * k]);
            p.add_linear_le(vec![1.0, 1.0], 2.0);
            p.add_box(0, 0.0, 2.0);
            p.add_box(1, 0.0, 2.0);
            p
        };
        let s1 = solve(&build(1.0)).unwrap();
        let s2 = solve(&build(scale)).unwrap();
        prop_assert!((s1.x[0] - s2.x[0]).abs() < 5e-3);
        prop_assert!((s1.x[1] - s2.x[1]).abs() < 5e-3);
    }

    /// Infeasible detections carry a certificate that re-certifies the
    /// problem and keeps certifying any right-hand-side tightening of it.
    #[test]
    fn infeasibility_certificates_transfer_to_tightenings(
        gap in 0.1..3.0f64,
        tighten in 0.0..2.0f64,
    ) {
        let build = |g: f64| {
            let mut p = Problem::new(2);
            p.set_linear_objective(vec![1.0, 0.0]);
            p.add_box(0, -5.0, 0.0);
            p.add_box(1, -5.0, 5.0);
            // x₀ ≥ g contradicts x₀ ≤ 0.
            p.add_linear_le(vec![-1.0, 0.0], -g);
            p
        };
        let s = solve(&build(gap)).unwrap();
        prop_assert_eq!(s.status, SolveStatus::Infeasible);
        let cert = s.certificate.expect("certificate for a cleanly infeasible LP");
        prop_assert!(protemp_cvx::check_certificate(&build(gap), &cert));
        prop_assert!(protemp_cvx::check_certificate(&build(gap + tighten), &cert));
    }

    /// The polish continuation's whole contract: a duality-gap-bound
    /// verdict that left no usable certificate gets a bounded re-centering
    /// whose minted certificate (a) exists, (b) certifies its own problem,
    /// and (c) never certifies a feasible sibling — and the verdict itself
    /// is identical with polishing on or off.
    ///
    /// The generator is the asymmetric-conflict family
    /// `s·(x₀+x₁) ≤ −δ` vs `x₀+x₁ ≥ δ` over a box so large that the
    /// anchored linearization only turns positive once the multipliers
    /// reach their exact ratio — the shape whose loose-centered gap exit
    /// reliably precedes the in-run Farkas check.
    #[test]
    fn polished_certificates_are_sound(
        scale in 5.0..60.0f64,
        delta in 0.5..3.0f64,
        box_half in 1.0e3..1.0e5f64,
    ) {
        let build = |infeasible: bool| {
            let mut p = Problem::new(2);
            p.set_linear_objective(vec![1.0, 0.0]);
            p.add_box(0, -box_half, box_half);
            p.add_box(1, -box_half, box_half);
            p.add_linear_le(vec![scale, scale], -delta);
            if infeasible {
                // x₀ + x₁ ≥ δ contradicts s(x₀+x₁) ≤ −δ.
                p.add_linear_le(vec![-1.0, -1.0], -delta);
            } else {
                // Same shape, compatible side: feasible.
                p.add_linear_le(vec![-1.0, -1.0], 2.0 * delta / scale + delta);
            }
            p
        };
        let opts_with = |budget: usize| SolverOptions {
            polish_budget: budget,
            ..SolverOptions::default()
        };
        let plain = build(true).solve(&opts_with(0)).unwrap();
        let polished = build(true).solve(&opts_with(80)).unwrap();
        prop_assert_eq!(plain.status, SolveStatus::Infeasible);
        prop_assert_eq!(
            polished.status,
            SolveStatus::Infeasible,
            "polish must never flip a verdict"
        );
        if polished.polished {
            let cert = polished
                .certificate
                .as_ref()
                .expect("a polished run only reports `polished` after minting");
            // (a)+(b): certifies the problem it came from.
            prop_assert!(protemp_cvx::check_certificate(&build(true), cert));
            // (c): can never reject the feasible sibling.
            prop_assert!(!protemp_cvx::check_certificate(&build(false), cert));
            // And it survives the `.certs` text serde bit-exactly.
            let mut buf = Vec::new();
            cert.write_text(&mut buf).unwrap();
            let reread =
                protemp_cvx::Certificate::read_text(std::str::from_utf8(&buf).unwrap())
                    .unwrap();
            prop_assert_eq!(&reread, cert);
            prop_assert!(protemp_cvx::check_certificate(&build(true), &reread));
        }
    }

    /// Soundness fuzz: no certificate — however adversarial — may certify
    /// a problem with a known feasible point.
    #[test]
    fn certificates_never_reject_feasible_problems(
        lam in prop::collection::vec(0.0..5.0f64, 6),
        anchor in prop::collection::vec(-2.0..2.0f64, 2),
        fx in -1.0..1.0f64,
        fy in -1.0..1.0f64,
    ) {
        // Box [-1,1]² plus a halfspace through the feasible point (fx,fy).
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![1.0, 1.0]);
        p.add_box(0, -1.0, 1.0);
        p.add_box(1, -1.0, 1.0);
        p.add_linear_le(vec![1.0, 1.0], fx + fy + 0.5);
        p.add_linear_le(vec![-1.0, 1.0], fy - fx + 0.5);
        let cert = protemp_cvx::Certificate {
            lambda_lin: lam,
            lambda_quad: vec![],
            anchor,
        };
        prop_assert!(
            !protemp_cvx::check_certificate(&p, &cert),
            "feasible problem (contains ({fx},{fy})) must never be certified infeasible"
        );
    }
}

/// Deterministic polish regression: this exact asymmetric conflict is known
/// to exit phase I through the duality-gap bound with multipliers that fail
/// the Farkas check — without polish there is no certificate at all; with
/// it, one extra Newton step of re-centering mints a verified one.
#[test]
fn polish_mints_where_gap_verdict_left_no_certificate() {
    let build = || {
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![1.0, 0.0]);
        p.add_box(0, -1000.0, 1000.0);
        p.add_box(1, -1000.0, 1000.0);
        p.add_linear_le(vec![17.0, 17.0], -1.0);
        p.add_linear_le(vec![-1.0, -1.0], -1.0);
        p
    };
    let solve_with = |budget: usize| {
        let opts = SolverOptions {
            polish_budget: budget,
            ..SolverOptions::default()
        };
        build().solve(&opts).unwrap()
    };
    let plain = solve_with(0);
    assert_eq!(plain.status, SolveStatus::Infeasible);
    assert!(
        plain.certificate.is_none(),
        "this conflict's gap verdict must leave no certificate (or the \
         regression no longer exercises the polish path)"
    );
    let polished = solve_with(80);
    assert_eq!(polished.status, SolveStatus::Infeasible);
    assert!(polished.polished, "the bounded polish must mint here");
    let cert = polished.certificate.expect("polished certificate");
    assert!(protemp_cvx::check_certificate(&build(), &cert));
}

/// The optimum of a solve whose reduction pass pruned rows must be feasible
/// for the *full* row set, and match the unpruned optimum to solver
/// tolerance — pruning changes the barrier, never the feasible set.
#[test]
fn pruned_optimum_is_feasible_for_the_full_row_set() {
    let build = || {
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![-1.0, -1.0]);
        p.add_box(0, 0.0, 2.0);
        p.add_box(1, 0.0, 3.0);
        p.add_linear_le(vec![1.0, 1.0], 4.0);
        // Dominated copies of the binding row: pruned, yet the optimum
        // presses exactly against the face they shadow.
        p.add_linear_le(vec![1.0, 1.0], 4.0);
        p.add_linear_le(vec![1.5, 1.0], 7.0);
        p
    };
    let solve_with = |reduction: bool| {
        let opts = SolverOptions {
            row_reduction: reduction,
            ..SolverOptions::default()
        };
        build().solve(&opts).unwrap()
    };
    let pruned = solve_with(true);
    let full = solve_with(false);
    assert!(pruned.status.is_optimal());
    assert!(
        pruned.rows_pruned >= 2,
        "both dominated rows must be pruned"
    );
    assert_eq!(full.rows_pruned, 0);
    let p = build();
    assert!(
        p.max_violation(&pruned.x) <= 1e-9,
        "pruned optimum violates a pruned row by {:.3e}",
        p.max_violation(&pruned.x)
    );
    assert!(
        (pruned.objective - full.objective).abs() < 1e-4,
        "objectives must agree to solver tolerance: {} vs {}",
        pruned.objective,
        full.objective
    );
}

/// Deterministic regression: a miniature of the Pro-Temp problem shape —
/// linear objective in p, quadratic coupling f² ≤ p, frequency floor.
#[test]
fn protemp_shape_miniature() {
    let n = 4;
    let mut p = Problem::new(2 * n); // f then p
    let mut q0 = vec![0.0; 2 * n];
    for qi in q0.iter_mut().skip(n) {
        *qi = 1.0; // minimize Σ p_i
    }
    p.set_linear_objective(q0);
    for i in 0..n {
        p.add_box(i, 0.0, 1.0); // f ∈ [0, 1]
        p.add_box(n + i, 0.0, 4.0); // p ∈ [0, 4]
                                    // 4 f_i² ≤ p_i.
        let mut diag = vec![0.0; 2 * n];
        diag[i] = 8.0;
        let mut lin = vec![0.0; 2 * n];
        lin[n + i] = -1.0;
        p.add_quad_le(Matrix::from_diag(&diag), lin, 0.0);
    }
    // Σ f ≥ n·0.6.
    let mut row = vec![0.0; 2 * n];
    for ri in row.iter_mut().take(n) {
        *ri = -1.0;
    }
    p.add_linear_le(row, -(n as f64) * 0.6);
    let s = solve(&p).unwrap();
    assert!(s.status.is_optimal());
    // By symmetry+convexity every core runs at exactly 0.6, p = 4·0.36.
    for i in 0..n {
        assert!((s.x[i] - 0.6).abs() < 1e-3, "f{i} = {}", s.x[i]);
        assert!((s.x[n + i] - 1.44).abs() < 5e-3, "p{i} = {}", s.x[n + i]);
    }
}
