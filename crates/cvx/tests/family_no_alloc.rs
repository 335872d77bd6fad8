//! Proof that [`protemp_cvx::FamilySolver::solve_cell`] performs **zero**
//! heap allocation once its buffers have grown — the family layer's
//! headline contract: per-cell work touches only per-cell data (rhs,
//! seed), everything else was hoisted into the family at construction.
//!
//! Own integration-test binary (not part of `no_alloc.rs`): each test file
//! is a separate process, and the counting allocator counts only the
//! thread inside [`allocs_during`], so this file's other test, running
//! concurrently on its own thread, cannot pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use protemp_cvx::{CellSeed, FamilySolver, Problem, ProblemFamily, SolveStatus, SolverOptions};
use protemp_linalg::Matrix;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread inside [`allocs_during`]; const-initialized, so
    /// reading it from the allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A family prototype in the Pro-Temp shape: boxes, near-duplicate
/// multi-entry rows (so the reduction pass has work), a workload-style
/// row, a quadratic coupling.
fn prototype() -> Problem {
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
    p.add_linear_le(vec![1.0; n], 4.0); // near-duplicate: prunable
    p.add_linear_le(vec![-1.0, -1.0, 0.0, 0.0, 0.0, 0.0], 6.0);
    let mut diag = vec![0.0; n];
    diag[0] = 2.0;
    diag[1] = 2.0;
    p.add_quad_le(Matrix::from_diag(&diag), vec![0.0; n], 9.0);
    p
}

/// One cell's rhs: the prototype's with the sum row moved.
fn rhs_for(sum_bound: f64) -> Vec<f64> {
    let mut rhs = prototype().lin_rhs().to_vec();
    let m = rhs.len();
    rhs[m - 3] = sum_bound;
    rhs
}

/// Allocations `f` makes on the calling thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn solve_cell_is_allocation_free_after_warmup() {
    let opts = SolverOptions::default();
    let family = Arc::new(ProblemFamily::new(prototype(), &opts).expect("family"));
    assert!(
        family.analysis().is_some(),
        "the prototype's near-duplicate rows must produce a reduction analysis"
    );
    let mut solver = FamilySolver::new(Arc::clone(&family), opts);

    // Warm-up: run the exact solve sequence measured below twice. Buffer
    // capacities and the vector pool evolve deterministically with the
    // solve sequence, so one full cycle reaches their fixed point — the
    // same way a sweep's columns repeat one path shape — and the repeat
    // cycle below must then allocate nothing at all. The warm seed comes
    // from a cold solve first (growing the phase-II buffers).
    let seed = vec![0.25; 6];
    let warm_x = {
        let sol = solver
            .solve_cell(&rhs_for(3.0), CellSeed::Seeded(&seed))
            .expect("warmup seeded solve");
        assert!(sol.status.is_optimal());
        sol.x.clone()
    };
    for _ in 0..2 {
        for bound in [3.0, 2.5, 0.0] {
            solver
                .solve_cell(&rhs_for(bound), CellSeed::Warm(&warm_x))
                .expect("warmup warm solve");
        }
    }

    // Steady state: a warm solve, a warm solve of a *different* cell
    // (different rhs → different reduction outcome and solve path), and a
    // phase-I-running cell — all allocation-free once each path's buffers
    // have grown (first contact with a longer path may grow a pooled
    // buffer once; the sweep's fixed-point is zero, which is what these
    // assert). The rhs vectors are prepared outside the measured
    // sections: assembling per-cell data is the caller's business (the
    // Pro-Temp layer reuses one buffer), the contract under test is the
    // solver's.
    let rhs_a = rhs_for(3.0);
    let rhs_b = rhs_for(2.5);
    let rhs_p1 = rhs_for(0.0);
    let (warm_allocs, status) = allocs_during(|| {
        solver
            .solve_cell(&rhs_a, CellSeed::Warm(&warm_x))
            .expect("warm solve")
            .status
    });
    assert!(status.is_optimal());
    assert_eq!(
        warm_allocs, 0,
        "warm solve_cell must not allocate after warm-up"
    );

    let (cold_allocs, status) = allocs_during(|| {
        solver
            .solve_cell(&rhs_b, CellSeed::Warm(&warm_x))
            .expect("neighbour cell solve")
            .status
    });
    assert!(status.is_optimal());
    assert_eq!(
        cold_allocs, 0,
        "a neighbouring cell's solve_cell must not allocate either"
    );

    let (phase1_allocs, sol_phase1) = allocs_during(|| {
        let sol = solver
            .solve_cell(&rhs_p1, CellSeed::Warm(&warm_x))
            .expect("phase-I cell solve");
        (sol.status, sol.phase1_steps)
    });
    assert!(sol_phase1.0.is_optimal());
    assert!(
        sol_phase1.1 > 0,
        "the tight cell must actually run phase I ({} steps)",
        sol_phase1.1
    );
    assert_eq!(
        phase1_allocs, 0,
        "even a phase-I-running feasible solve_cell must not allocate"
    );
}

#[test]
fn solve_cell_outcomes_are_stable_across_reuse() {
    // The buffer recycling must not leak state between cells: solving
    // A, B, then A again reproduces A's first answer bit for bit.
    let opts = SolverOptions::default();
    let family = Arc::new(ProblemFamily::new(prototype(), &opts).expect("family"));
    let mut solver = FamilySolver::new(Arc::clone(&family), opts);
    let seed = vec![0.25; 6];
    let first = {
        let sol = solver
            .solve_cell(&rhs_for(3.0), CellSeed::Seeded(&seed))
            .unwrap();
        (sol.status, sol.x.clone(), sol.newton_steps)
    };
    assert_eq!(first.0, SolveStatus::Optimal);
    solver
        .solve_cell(&rhs_for(1.0), CellSeed::Seeded(&seed))
        .unwrap();
    let again = solver
        .solve_cell(&rhs_for(3.0), CellSeed::Seeded(&seed))
        .unwrap();
    assert_eq!(again.status, first.0);
    assert_eq!(again.x, first.1, "reused buffers must not leak state");
    assert_eq!(again.newton_steps, first.2);
}
