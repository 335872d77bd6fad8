//! A from-scratch convex optimization solver for the Pro-Temp reproduction.
//!
//! The paper solves its thermal/workload-constrained power minimization
//! (model (3)–(5)) with CVX \[27\] and interior-point methods \[25\]. Mature
//! convex-solver crates are not available offline, so this crate implements
//! the required solver class directly:
//!
//! * [`Problem`] — a canonical convex program: (convex) quadratic objective,
//!   linear inequality constraints, convex quadratic inequality constraints
//!   and linear equality constraints.
//! * [`ProblemFamily`] / [`FamilySolver`] — the one solver front-end. A
//!   family derives everything its cells share (packed rows, row-reduction
//!   analysis, equality QR, phase-I system) once; a family solver then
//!   solves a cell from its right-hand sides alone, with a two-phase
//!   log-barrier interior-point method (Boyd & Vandenberghe, ch. 11):
//!   phase I finds a strictly feasible point or certifies infeasibility;
//!   phase II follows the central path with damped Newton steps. Equality
//!   constraints are eliminated through a QR nullspace parametrization so
//!   every Newton system stays symmetric positive definite. A
//!   [`CellSeed::Warm`] start re-enters phase II directly from a
//!   neighbouring optimum, and no iteration allocates after the first
//!   solve. [`Problem::solve`] is the one-shot form: it builds the
//!   problem's one-cell family and solves it once.
//! * [`Certificate`] — Farkas-style infeasibility certificates extracted
//!   from failed phase-I runs: [`Certificate::certifies`] soundly rejects
//!   a related problem with one matvec-equivalent pass instead of a
//!   solve, which is what lets design-space sweeps skip most of their
//!   frontier phase-I runs. Thin-frontier verdicts that arrive through the
//!   duality-gap bound get a bounded *polish* continuation so they mint a
//!   transferable certificate too.
//! * Row reduction — a box-grounded domination pass prunes provably
//!   redundant linear rows before phase I (structured constraint families
//!   carry many near-copies); the feasible set, and therefore every
//!   verdict, is unchanged, while `m` and the degenerate active sets
//!   shrink at the source.
//!
//! # Example
//!
//! ```
//! use protemp_cvx::{Problem, SolverOptions};
//!
//! // minimize x + y  s.t.  x + 2y >= 2, x >= 0, y >= 0
//! let mut p = Problem::new(2);
//! p.set_linear_objective(vec![1.0, 1.0]);
//! p.add_linear_le(vec![-1.0, -2.0], -2.0);
//! p.add_box(0, 0.0, f64::INFINITY);
//! p.add_box(1, 0.0, f64::INFINITY);
//! let sol = p.solve(&SolverOptions::default()).unwrap();
//! assert!((sol.objective - 1.0).abs() < 1e-5); // x=0, y=1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod certificate;
mod error;
mod family;
mod options;
mod problem;
mod reduce;
mod scratch;
mod status;

pub use barrier::FeasibleOutcome;
pub use certificate::{check_certificate, CertScratch, Certificate, ProblemView};
pub use error::CvxError;
pub use family::{CellSeed, FamilySolver, ProblemFamily};
pub use options::SolverOptions;
pub use problem::{Problem, QuadConstraint};
pub use reduce::ReduceAnalysis;
pub use status::{Solution, SolveStatus};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, CvxError>;

/// Monotone revision of the solver's *numerical semantics*: bumped whenever
/// a change alters what a solve computes (row-reduction selection rules,
/// centering/exit logic, seed handling, …) even though no [`SolverOptions`]
/// field moved. Consumers that persist solver outputs and later replay them
/// verbatim (the Pro-Temp table store's incremental rebuilds) must fold
/// this into their compatibility fingerprints — an artifact built under a
/// different revision would otherwise be replayed as if the solves were
/// still bit-identical.
///
/// Revision 5: box-free row-reduction analysis (dominators ranked by
/// coefficient distance, boxed maxima evaluated per cell) and the
/// stall-proof warm-chain re-entry blend.
pub const SOLVER_REVISION: u32 = 5;
