//! Golden-output tests for the one-shot [`BarrierSolver`] surface: every
//! public solve method must keep reproducing outputs pinned from a
//! known-good build, bit for bit.
//!
//! Each digest folds the `Debug` rendering of the returned `Result` with
//! FNV-1a. `Debug` prints every `f64` in shortest round-trip form, so equal
//! digests mean bit-equal points, objectives, gap bounds, certificates,
//! Newton and phase-I counts, `rows_pruned` and `polished` flags, and
//! identical error variants.

use std::fmt::Debug;

use protemp_cvx::{BarrierSolver, Problem, SolverOptions};
use protemp_linalg::Matrix;

/// FNV-1a over the `Debug` renderings of a sequence of results.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, value: &impl Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A cell shaped like the Pro-Temp design points: four boxed variables, a
/// coupling row with a near-duplicate the reduction pass prunes, a
/// workload-style row whose rhs is `workload`, and a quadratic coupling.
fn cell(workload: f64) -> Problem {
    let n = 4;
    let mut p = Problem::new(n);
    p.set_linear_objective(vec![1.0, 1.0, 0.5, 0.25]);
    for i in 0..n {
        p.add_box(i, 0.0, 5.0);
    }
    p.add_linear_le(vec![1.0, 1.0, 1.0, 1.0], 8.0);
    p.add_linear_le(vec![1.0, 1.0, 1.0, 1.0], 9.0);
    p.add_linear_le(vec![-1.0, -1.0, 0.0, 0.0], workload);
    let mut diag = vec![0.0; n];
    diag[0] = 2.0;
    p.add_quad_le(Matrix::from_diag(&diag), vec![0.0; n], 16.0);
    p
}

/// A QP over three constraints whose optimum sits on two of them.
fn qp() -> Problem {
    let mut p = Problem::new(2);
    p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![-2.0, -6.0]);
    p.add_linear_le(vec![1.0, 1.0], 2.0);
    p.add_linear_le(vec![-1.0, 2.0], 2.0);
    p.add_linear_le(vec![2.0, 1.0], 3.0);
    p
}

/// [`cell`] with `x₀ = x₁` (the uniform-frequency shape) and a quadratic
/// objective pulling toward `(target, 0, 1, 1)`.
fn equality_qp(target: f64) -> Problem {
    let mut p = cell(-0.5);
    p.set_quadratic_objective(
        Matrix::from_diag(&[2.0, 2.0, 2.0, 2.0]),
        vec![-2.0 * target, 0.0, -2.0, -2.0],
    );
    p.add_eq(vec![1.0, -1.0, 0.0, 0.0], 0.0);
    p
}

/// `x₀ ≤ 0` and `x₀ ≥ 1` over a box: infeasible, with a clean Farkas pair.
fn infeasible_lp() -> Problem {
    let mut p = Problem::new(2);
    p.set_linear_objective(vec![1.0, 1.0]);
    p.add_box(0, -4.0, 4.0);
    p.add_box(1, -4.0, 4.0);
    p.add_linear_le(vec![1.0, 0.0], 0.0);
    p.add_linear_le(vec![-1.0, 0.0], -1.0);
    p
}

/// The asymmetric conflict `10·(x₀+x₁) ≤ −0.5` vs `x₀+x₁ ≥ 0.5` over a
/// wide box, whose duality-gap verdict precedes the in-run Farkas check,
/// so the polish continuation mints the certificate.
fn thin_conflict() -> Problem {
    let mut p = Problem::new(2);
    p.set_linear_objective(vec![1.0, 0.0]);
    p.add_box(0, -1.0e4, 1.0e4);
    p.add_box(1, -1.0e4, 1.0e4);
    p.add_linear_le(vec![10.0, 10.0], -0.5);
    p.add_linear_le(vec![-1.0, -1.0], -0.5);
    p
}

#[test]
fn solve_warm_and_seeded_are_pinned() {
    let opts = SolverOptions::default();
    let mut solver = BarrierSolver::new(opts);
    let mut d = Fnv::new();
    let cold = solver.solve(&cell(-0.5));
    d.add(&cold);
    let x = cold.unwrap().x;
    // Neighbouring cells through the same solver: warm from the previous
    // optimum, seeded from plain geometry, and no start at all.
    d.add(&solver.solve_warm(&cell(-1.0), &x));
    d.add(&solver.solve_seeded(&cell(-2.0), &[0.5; 4]));
    d.add(&solver.solve_with_start(&cell(-0.25), None));
    // A warm point that violates the cell seeds phase I instead; a
    // wrong-length one is ignored.
    d.add(&solver.solve_warm(&cell(-0.25), &[9.0; 4]));
    d.add(&solver.solve_warm(&cell(-0.25), &[1.0; 3]));
    // Another problem shape through the same solver, then back.
    let q = solver.solve(&qp());
    d.add(&q);
    d.add(&solver.solve_warm(&qp(), &q.unwrap().x));
    d.add(&solver.solve(&cell(-1.5)));
    // The one-shot conveniences on `Problem`.
    d.add(&cell(-1.0).solve(&opts));
    d.add(&cell(-1.0).solve_warm(&opts, &x));
    d.add(&qp().solve(&SolverOptions::fast()));
    assert_eq!(d.0, 0x29b9_d1cb_44f5_6e94, "digest {:#018x}", d.0);
}

#[test]
fn equality_constrained_solves_are_pinned() {
    let mut solver = BarrierSolver::new(SolverOptions::default());
    let mut d = Fnv::new();
    for target in [0.5, 2.0, 4.5] {
        let sol = solver.solve(&equality_qp(target));
        d.add(&sol);
        d.add(&solver.solve_warm(&equality_qp(target + 0.25), &sol.unwrap().x));
    }
    d.add(&solver.solve_seeded(&equality_qp(1.0), &[1.0, 1.0, 1.0, 1.0]));
    // Inconsistent equalities are an error, not a verdict.
    let mut bad = equality_qp(1.0);
    bad.add_eq(vec![1.0, -1.0, 0.0, 0.0], 1.0);
    d.add(&solver.solve(&bad));
    d.add(&solver.solve(&equality_qp(3.0)));
    assert_eq!(d.0, 0xcc64_cf20_1e7b_0327, "digest {:#018x}", d.0);
}

#[test]
fn infeasible_and_invalid_solves_are_pinned() {
    let mut solver = BarrierSolver::new(SolverOptions::default());
    let mut d = Fnv::new();
    // The minted certificate is part of the `Debug` rendering.
    let s = solver.solve(&infeasible_lp()).unwrap();
    assert!(s.certificate.is_some(), "infeasible LP mints a certificate");
    d.add(&s);
    d.add(&solver.solve_warm(&infeasible_lp(), &[0.5, 0.5]));
    let polished = solver.solve(&thin_conflict()).unwrap();
    assert!(
        polished.polished,
        "the thin conflict's certificate is polished"
    );
    d.add(&polished);
    // An infeasible Pro-Temp-shaped cell: the workload row demands more
    // than the tightened coupling row allows.
    let mut p = cell(-30.0);
    p.lin_rhs_mut()[8] = 4.0;
    d.add(&solver.solve(&p));
    // Non-finite data is rejected before any work.
    let mut nan = cell(-0.5);
    nan.lin_rhs_mut()[9] = f64::NAN;
    d.add(&solver.solve(&nan));
    d.add(&solver.solve(&cell(-0.5)));
    assert_eq!(d.0, 0xfc95_cdc5_d949_2fa7, "digest {:#018x}", d.0);
}

#[test]
fn feasibility_queries_are_pinned() {
    let mut solver = BarrierSolver::new(SolverOptions::default());
    let mut d = Fnv::new();
    d.add(&solver.find_feasible_with(&cell(-0.5), None));
    d.add(&solver.find_feasible_with(&cell(-2.0), Some(&[0.5; 4])));
    // An interior seed is accepted with zero Newton steps.
    d.add(&solver.find_feasible_with(&cell(-1.0), Some(&[1.0, 1.0, 1.0, 1.0])));
    d.add(&solver.find_feasible_with(&infeasible_lp(), None));
    d.add(&solver.find_feasible_with(&infeasible_lp(), Some(&[0.5, 0.5])));
    d.add(&solver.find_feasible_with(&thin_conflict(), None));
    d.add(&solver.find_feasible(&equality_qp(2.0)));
    d.add(&solver.find_feasible_with(&equality_qp(2.0), Some(&[1.0, 1.0, 1.0, 1.0])));
    let mut p = cell(-30.0);
    p.lin_rhs_mut()[8] = 4.0;
    d.add(&solver.find_feasible_with(&p, None));
    d.add(&solver.find_feasible(&cell(-0.25)));
    assert_eq!(d.0, 0x12b8_b9fe_ab4d_1afd, "digest {:#018x}", d.0);
}

#[test]
fn tick_budget_truncation_is_pinned() {
    let opts = SolverOptions {
        tick_budget: 5,
        ..SolverOptions::default()
    };
    let mut solver = BarrierSolver::new(opts);
    let mut d = Fnv::new();
    d.add(&solver.solve(&cell(-0.5)));
    d.add(&solver.solve_seeded(&cell(-1.0), &[0.5; 4]));
    d.add(&solver.solve(&qp()));
    d.add(&solver.solve(&infeasible_lp()));
    d.add(&solver.solve(&equality_qp(2.0)));
    d.add(&solver.find_feasible_with(&cell(-2.0), None));
    assert_eq!(d.0, 0x02cd_da27_1fc8_f49f, "digest {:#018x}", d.0);
}
