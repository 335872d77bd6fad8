//! Golden-output tests for the solver front-end: cold, warm, seeded and
//! budgeted cell solves and feasibility queries, each through a
//! [`FamilySolver`] over the problem's one-cell [`ProblemFamily`], must
//! keep reproducing outputs pinned from a known-good build, bit for bit.
//!
//! Each digest folds the `Debug` rendering of the returned `Result` with
//! FNV-1a. `Debug` prints every `f64` in shortest round-trip form, so equal
//! digests mean bit-equal points, objectives, gap bounds, certificates,
//! Newton and phase-I counts, `rows_pruned` and `polished` flags, and
//! identical error variants.

use std::fmt::Debug;
use std::sync::Arc;

use protemp_cvx::{
    CellSeed, FamilySolver, FeasibleOutcome, Problem, ProblemFamily, Result, Solution,
    SolverOptions,
};
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

/// A [`FamilySolver`] over `p`'s one-cell family.
fn family_solver(opts: SolverOptions, p: &Problem) -> Result<FamilySolver> {
    let family = ProblemFamily::new(p.clone(), &opts)?;
    Ok(FamilySolver::new(Arc::new(family), opts))
}

/// Solves `p` from `seed` under `opts` and a Newton-step budget (`0`:
/// none).
fn solve(opts: SolverOptions, budget: usize, p: &Problem, seed: CellSeed<'_>) -> Result<Solution> {
    let mut solver = family_solver(opts, p)?;
    solver.set_tick_budget(budget);
    solver.solve_cell(p.lin_rhs(), seed).cloned()
}

/// The phase-I-only feasibility query on `p`, optionally seeded.
fn find(p: &Problem, seed: Option<&[f64]>) -> Result<FeasibleOutcome> {
    family_solver(SolverOptions::default(), p)?
        .find_feasible_cell(p.lin_rhs(), seed)
        .cloned()
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

/// Cold, warm and seeded solves over neighbouring cells and two problem
/// shapes, in one fixed order.
fn warm_and_seeded_sequence() -> Vec<Result<Solution>> {
    let opts = SolverOptions::default();
    let cold = |p: &Problem| solve(opts, 0, p, CellSeed::None);
    let warm = |p: &Problem, x: &[f64]| solve(opts, 0, p, CellSeed::Warm(x));
    let mut out = Vec::new();
    let first = cold(&cell(-0.5));
    let x = first.clone().unwrap().x;
    out.push(first);
    // Neighbouring cells: warm from the previous optimum, seeded from
    // plain geometry, and no start at all.
    out.push(warm(&cell(-1.0), &x));
    out.push(solve(opts, 0, &cell(-2.0), CellSeed::Seeded(&[0.5; 4])));
    out.push(cold(&cell(-0.25)));
    // A warm point that violates the cell seeds phase I instead; a
    // wrong-length one is ignored.
    out.push(warm(&cell(-0.25), &[9.0; 4]));
    out.push(warm(&cell(-0.25), &[1.0; 3]));
    // Another problem shape, then back.
    let q = cold(&qp());
    let qx = q.clone().unwrap().x;
    out.push(q);
    out.push(warm(&qp(), &qx));
    out.push(cold(&cell(-1.5)));
    // The one-shot `Problem::solve`, and a warm solve of the same cell.
    out.push(cell(-1.0).solve(&opts));
    out.push(warm(&cell(-1.0), &x));
    out.push(qp().solve(&SolverOptions::fast()));
    out
}

#[test]
fn solve_warm_and_seeded_are_pinned() {
    let mut d = Fnv::new();
    for r in warm_and_seeded_sequence() {
        d.add(&r);
    }
    assert_eq!(d.0, 0x088b_7f53_7560_aad8, "digest {:#018x}", d.0);
}

/// The same sequence with the effort counters (`outer_iterations`,
/// `newton_steps`, `phase1_steps`) zeroed: equal digests mean bit-equal
/// statuses, points, objectives, gap bounds, certificates, `rows_pruned`
/// and `polished` flags and error variants, however many Newton steps the
/// solver spent reaching them.
#[test]
fn solve_warm_and_seeded_values_are_pinned() {
    let mut d = Fnv::new();
    for r in warm_and_seeded_sequence() {
        d.add(&r.map(|s| Solution {
            outer_iterations: 0,
            newton_steps: 0,
            phase1_steps: 0,
            ..s
        }));
    }
    assert_eq!(d.0, 0x24e1_b4a7_8fbb_a29f, "digest {:#018x}", d.0);
}

#[test]
fn equality_constrained_solves_are_pinned() {
    let opts = SolverOptions::default();
    let mut d = Fnv::new();
    for target in [0.5, 2.0, 4.5] {
        let sol = equality_qp(target).solve(&opts);
        d.add(&sol);
        let x = sol.unwrap().x;
        d.add(&solve(
            opts,
            0,
            &equality_qp(target + 0.25),
            CellSeed::Warm(&x),
        ));
    }
    d.add(&solve(
        opts,
        0,
        &equality_qp(1.0),
        CellSeed::Seeded(&[1.0, 1.0, 1.0, 1.0]),
    ));
    // Inconsistent equalities are an error, not a verdict.
    let mut bad = equality_qp(1.0);
    bad.add_eq(vec![1.0, -1.0, 0.0, 0.0], 1.0);
    d.add(&bad.solve(&opts));
    d.add(&equality_qp(3.0).solve(&opts));
    assert_eq!(d.0, 0xcc64_cf20_1e7b_0327, "digest {:#018x}", d.0);
}

#[test]
fn infeasible_and_invalid_solves_are_pinned() {
    let opts = SolverOptions::default();
    let mut d = Fnv::new();
    // The minted certificate is part of the `Debug` rendering.
    let s = infeasible_lp().solve(&opts).unwrap();
    assert!(s.certificate.is_some(), "infeasible LP mints a certificate");
    d.add(&s);
    d.add(&solve(
        opts,
        0,
        &infeasible_lp(),
        CellSeed::Warm(&[0.5, 0.5]),
    ));
    let polished = thin_conflict().solve(&opts).unwrap();
    assert!(
        polished.polished,
        "the thin conflict's certificate is polished"
    );
    d.add(&polished);
    // An infeasible Pro-Temp-shaped cell: the workload row demands more
    // than the tightened coupling row allows.
    let mut p = cell(-30.0);
    p.lin_rhs_mut()[8] = 4.0;
    d.add(&p.solve(&opts));
    // Non-finite data is rejected before any work.
    let mut nan = cell(-0.5);
    nan.lin_rhs_mut()[9] = f64::NAN;
    d.add(&nan.solve(&opts));
    d.add(&cell(-0.5).solve(&opts));
    assert_eq!(d.0, 0xfc95_cdc5_d949_2fa7, "digest {:#018x}", d.0);
}

#[test]
fn feasibility_queries_are_pinned() {
    let mut d = Fnv::new();
    d.add(&find(&cell(-0.5), None));
    d.add(&find(&cell(-2.0), Some(&[0.5; 4])));
    // An interior seed is accepted with zero Newton steps.
    d.add(&find(&cell(-1.0), Some(&[1.0, 1.0, 1.0, 1.0])));
    d.add(&find(&infeasible_lp(), None));
    d.add(&find(&infeasible_lp(), Some(&[0.5, 0.5])));
    d.add(&find(&thin_conflict(), None));
    // The point alone, as a plain feasibility check reports it.
    d.add(&find(&equality_qp(2.0), None).map(|o| o.point));
    d.add(&find(&equality_qp(2.0), Some(&[1.0, 1.0, 1.0, 1.0])));
    let mut p = cell(-30.0);
    p.lin_rhs_mut()[8] = 4.0;
    d.add(&find(&p, None));
    d.add(&find(&cell(-0.25), None).map(|o| o.point));
    assert_eq!(d.0, 0x12b8_b9fe_ab4d_1afd, "digest {:#018x}", d.0);
}

#[test]
fn tick_budget_truncation_is_pinned() {
    let opts = SolverOptions::default();
    let mut d = Fnv::new();
    d.add(&solve(opts, 5, &cell(-0.5), CellSeed::None));
    d.add(&solve(opts, 5, &cell(-1.0), CellSeed::Seeded(&[0.5; 4])));
    d.add(&solve(opts, 5, &qp(), CellSeed::None));
    d.add(&solve(opts, 5, &infeasible_lp(), CellSeed::None));
    d.add(&solve(opts, 5, &equality_qp(2.0), CellSeed::None));
    // Feasibility queries run no tick budget.
    d.add(&find(&cell(-2.0), None));
    assert_eq!(d.0, 0x02cd_da27_1fc8_f49f, "digest {:#018x}", d.0);
}
