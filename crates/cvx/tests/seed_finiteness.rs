//! Every seeded [`FamilySolver`] entry point rejects a seed holding NaN or
//! ∞ with [`CvxError::NotFinite`] before any work, as it does a non-finite
//! right-hand side.
//!
//! Without the check a NaN coordinate would score as strictly feasible
//! (`f64::max` drops NaN operands): a feasibility query would return the
//! NaN seed itself as its feasible point after 0 Newton steps, and the
//! seeded solves would fail later with a misleading `NumericalTrouble`.

use std::sync::Arc;

use protemp_cvx::{CellSeed, CvxError, FamilySolver, Problem, ProblemFamily, SolverOptions};

/// The LP `min x + y` s.t. `x + 2y ≥ 2`, `x, y ∈ [0, 10]`.
fn lp() -> Problem {
    let mut p = Problem::new(2);
    p.set_linear_objective(vec![1.0, 1.0]);
    p.add_linear_le(vec![-1.0, -2.0], -2.0);
    p.add_box(0, 0.0, 10.0);
    p.add_box(1, 0.0, 10.0);
    p
}

/// The seeds every entry point must reject.
fn bad_seeds() -> [[f64; 2]; 3] {
    [[f64::NAN, f64::NAN], [1.0, f64::NAN], [f64::INFINITY, 1.0]]
}

fn family_solver() -> (FamilySolver, Vec<f64>) {
    let opts = SolverOptions::default();
    let prob = lp();
    let rhs = prob.lin_rhs().to_vec();
    let family = Arc::new(ProblemFamily::new(prob, &opts).unwrap());
    (FamilySolver::new(family, opts), rhs)
}

/// Asserts the outcome is `NotFinite`, naming the seed on failure.
fn assert_not_finite<T: std::fmt::Debug>(out: Result<T, CvxError>, seed: &[f64]) {
    assert!(
        matches!(out, Err(CvxError::NotFinite)),
        "seed {seed:?}: {out:?}"
    );
}

#[test]
fn solve_cell_rejects_non_finite_warm_seed() {
    let (mut solver, rhs) = family_solver();
    for seed in bad_seeds() {
        assert_not_finite(solver.solve_cell(&rhs, CellSeed::Warm(&seed)), &seed);
    }
}

#[test]
fn solve_cell_rejects_non_finite_seeded_seed() {
    let (mut solver, rhs) = family_solver();
    for seed in bad_seeds() {
        assert_not_finite(solver.solve_cell(&rhs, CellSeed::Seeded(&seed)), &seed);
    }
}

#[test]
fn find_feasible_cell_rejects_non_finite_seed() {
    let (mut solver, rhs) = family_solver();
    for seed in bad_seeds() {
        assert_not_finite(solver.find_feasible_cell(&rhs, Some(&seed)), &seed);
    }
}

/// The check rejects only non-finite seeds: after every rejection the same
/// solver still solves the problem from a finite seed.
#[test]
fn finite_seeds_still_solve_after_rejections() {
    let (mut solver, rhs) = family_solver();
    for seed in bad_seeds() {
        assert!(solver.solve_cell(&rhs, CellSeed::Warm(&seed)).is_err());
    }
    let sol = solver
        .solve_cell(&rhs, CellSeed::Warm(&[1.0, 1.0]))
        .unwrap();
    assert!((sol.objective - 1.0).abs() < 1e-4, "{sol:?}");
    let feas = solver.find_feasible_cell(&rhs, Some(&[1.0, 1.0])).unwrap();
    assert_eq!(feas.point.as_deref(), Some(&[1.0, 1.0][..]));
}
