//! Proof that barrier iterations are allocation-free after the first solve
//! on a given problem shape (the solver-scratch contract).
//!
//! A counting global allocator measures whole solves of one problem
//! through [`FamilySolver`]s over its one-cell family. Per-solve work
//! outside the iterations (the copy of the returned `Solution`) allocates
//! a fixed amount that does not depend on how many Newton/outer
//! iterations run, so:
//!
//! * a repeat solve on a warm solver must allocate strictly less than the
//!   first solve on a cold one (its scratch already exists), and
//! * two warm repeat solves that differ *only* in iteration count (driven
//!   by the duality-gap tolerance) must allocate exactly the same amount —
//!   if any matrix/vector were allocated per iteration, the tighter
//!   tolerance would show more allocations.
//!
//! Kept as a single `#[test]` so no concurrent test pollutes the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use protemp_cvx::{CellSeed, CertScratch, FamilySolver, Problem, ProblemFamily, SolverOptions};
use protemp_linalg::Matrix;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A QP in the shape family of the Pro-Temp design points: box bounds, a
/// coupling inequality and a quadratic constraint, so both the linear and
/// quadratic barrier paths run.
fn problem() -> Problem {
    let n = 6;
    let mut p = Problem::new(n);
    p.set_quadratic_objective(
        Matrix::from_diag(&vec![2.0; n]),
        (0..n).map(|i| -(i as f64) - 1.0).collect(),
    );
    for i in 0..n {
        p.add_box(i, -5.0, 5.0);
    }
    p.add_linear_le(vec![1.0; n], 3.0);
    let mut diag = vec![0.0; n];
    diag[0] = 2.0;
    diag[1] = 2.0;
    p.add_quad_le(Matrix::from_diag(&diag), vec![0.0; n], 9.0);
    p
}

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let result = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn barrier_iterations_do_not_allocate() {
    let p = problem();

    let loose = SolverOptions {
        tol: 1e-3,
        ..SolverOptions::default()
    };
    let tight = SolverOptions {
        tol: 1e-9,
        ..SolverOptions::default()
    };

    let family = Arc::new(ProblemFamily::new(p.clone(), &loose).unwrap());
    let mut solver_loose = FamilySolver::new(Arc::clone(&family), loose);
    let mut solver_tight = FamilySolver::new(family, tight);
    let solve = |solver: &mut FamilySolver| {
        solver
            .solve_cell(p.lin_rhs(), CellSeed::None)
            .cloned()
            .unwrap()
    };

    // Cold solves: grow each solver's scratch (and warm up lazy statics).
    let (cold_allocs, first) = allocs_during(|| solve(&mut solver_loose));
    solve(&mut solver_tight);
    assert!(first.status.is_optimal());

    // Warm repeats of the identical solve.
    let (loose_allocs, loose_sol) = allocs_during(|| solve(&mut solver_loose));
    let (tight_allocs, tight_sol) = allocs_during(|| solve(&mut solver_tight));

    assert!(
        loose_allocs < cold_allocs,
        "repeat solve must reuse the scratch: {loose_allocs} vs cold {cold_allocs}"
    );
    assert!(
        tight_sol.newton_steps > loose_sol.newton_steps,
        "tolerance must drive different iteration counts ({} vs {})",
        tight_sol.newton_steps,
        loose_sol.newton_steps
    );
    assert_eq!(
        loose_allocs,
        tight_allocs,
        "allocation count must be independent of the iteration count \
         ({} extra Newton steps allocated {} extra times)",
        tight_sol.newton_steps - loose_sol.newton_steps,
        tight_allocs as i64 - loose_allocs as i64
    );

    // Certificate screening is the other sweep hot path: after its
    // workspace has grown once, a check must be completely allocation-free.
    let infeasible = {
        let mut p = problem();
        // Contradict the box of x₀: x₀ ≤ 5 (from the box) and x₀ ≥ 6.
        let mut row = vec![0.0; 6];
        row[0] = -1.0;
        p.add_linear_le(row, -6.0);
        p
    };
    let sol = infeasible.solve(&loose).unwrap();
    let cert = sol
        .certificate
        .expect("infeasible solve yields a certificate");
    let mut ws = CertScratch::new();
    // Warm-up: grows the workspace buffers for this problem size.
    assert!(cert.certifies(&infeasible, &mut ws));
    let feasible = problem();
    let (check_allocs, verdicts) = allocs_during(|| {
        (
            cert.certifies(&infeasible, &mut ws),
            cert.certifies(&feasible, &mut ws),
        )
    });
    assert!(
        verdicts.0,
        "certificate must keep certifying its own problem"
    );
    assert!(
        !verdicts.1,
        "certificate must not certify a feasible problem"
    );
    assert_eq!(
        check_allocs, 0,
        "certificate checks must be allocation-free after warm-up"
    );
}
