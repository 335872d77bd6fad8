//! Problem families: the one storage front-end every solve runs through.
//!
//! A Phase-1 table sweep solves a *family* of near-identical convex
//! programs: every grid cell shares the exact same constraint coefficients,
//! variable box, equality rows and objective — only the linear right-hand
//! sides (the thermal offsets and the workload bound) and the warm seed
//! change from cell to cell.
//!
//! [`ProblemFamily`] derives everything cell-invariant **once**: it owns
//! the packed row matrix, the box-free row-reduction analysis
//! ([`ReduceAnalysis`]), the equality elimination (particular solution +
//! nullspace basis from one QR), the pre-built phase-I augmented storage,
//! and the prototype [`Problem`] itself (for certificate checks and
//! structural comparisons). A [`FamilySolver`] then solves one cell at a
//! time through [`FamilySolver::solve_cell`], touching only per-cell data —
//! right-hand sides and seed — with **zero heap allocation and zero
//! re-analysis** on the feasible hot path once its buffers have grown (the
//! counting-allocator test pins this down).
//!
//! Sweeps, frontier probes and MPC windows hold a family directly; the
//! one-shot [`crate::BarrierSolver`] is a [`FamilySolver`] over a one-cell
//! family built from the problem it is handed.
//!
//! # The prototype's right-hand sides play no role
//!
//! Every cached quantity (packed rows, projected system, augmented system,
//! reduction analysis, equality QR) is a pure function of the prototype's
//! coefficients, quadratic constraints, equalities and objective — never
//! of its linear right-hand sides. A cell's solve therefore does not depend
//! on which cell's rhs the prototype carried: a family built from any
//! member solves every other member bit for bit like a family built from
//! that member itself, which this module's tests check and which lets a
//! sweep build its family from an arbitrary prototype cell.
//!
//! # When a family must be rebuilt
//!
//! A family is valid for exactly the cells whose problems differ from the
//! prototype only in linear-inequality right-hand sides. Any change to
//! constraint coefficients, quadratic constraints, equality rows *or
//! equality right-hand sides*, the objective, the variable count, or the
//! solver options that shape the analysis (`row_reduction`) requires a new
//! [`ProblemFamily`] — [`ProblemFamily::matches`] checks this structurally,
//! and the Pro-Temp layer keys its family cache on the context fingerprint
//! for the same reason.

use std::sync::Arc;
use std::time::Instant;

use protemp_linalg::{vecops, Matrix};

use crate::barrier::{
    feasible_flow, lift, lift_into, project_problem, reduce_equalities, solve_flow, AugStorage,
    FeasFlow, FlowVerdict, ProjStorage, VecPool,
};
use crate::certificate::{ProblemView, RowsRef};
use crate::reduce::{ReduceAnalysis, RowReducer};
use crate::scratch::SolverScratch;
use crate::{
    Certificate, CvxError, FeasibleOutcome, Problem, Result, Solution, SolveStatus, SolverOptions,
};

/// The immutable, sweep-invariant structure of one family of convex
/// programs; see the module docs. Build once per sweep with
/// [`ProblemFamily::new`], share across worker threads via `Arc`, and
/// solve cells through per-worker [`FamilySolver`]s.
#[derive(Debug, Clone)]
pub struct ProblemFamily {
    /// The prototype problem (coefficients, quads, equalities, objective;
    /// its own rhs is just the first cell's and carries no special role).
    proto: Problem,
    /// Equality elimination: particular solution (zeros when no
    /// equalities) …
    x_p: Vec<f64>,
    /// … and orthonormal nullspace basis (`None` when no equalities).
    f_basis: Option<Matrix>,
    /// Projected phase-II storage (packed rows, objective, quads).
    proj: ProjStorage,
    /// Pre-built phase-I augmented storage.
    aug: AugStorage,
    /// Box-free row-reduction analysis (`None` when reduction is off, the
    /// family has equalities, or nothing is ever prunable).
    analysis: Option<Arc<ReduceAnalysis>>,
    /// Wall-clock seconds the family construction took (analysis included).
    build_s: f64,
}

impl ProblemFamily {
    /// Builds the family structure from a prototype problem under the
    /// given solver options (only [`SolverOptions::row_reduction`] shapes
    /// the structure; the rest stay per-solver).
    ///
    /// # Errors
    ///
    /// Propagates prototype validation and equality-elimination failures.
    pub fn new(prototype: Problem, opts: &SolverOptions) -> Result<ProblemFamily> {
        let t0 = Instant::now();
        prototype.validate()?;
        let (x_p, f_basis) = reduce_equalities(&prototype)?;
        let proj = project_problem(&prototype, &x_p, f_basis.as_ref());
        let aug = AugStorage::new(&proj);
        let analysis = if opts.row_reduction && f_basis.is_none() && prototype.lin_rhs().len() >= 2
        {
            let a = ReduceAnalysis::build(&prototype);
            (!a.is_trivial()).then(|| Arc::new(a))
        } else {
            None
        };
        Ok(ProblemFamily {
            proto: prototype,
            x_p,
            f_basis,
            proj,
            aug,
            analysis,
            build_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// The prototype problem the family was built from.
    pub fn prototype(&self) -> &Problem {
        &self.proto
    }

    /// Number of variables (original space).
    pub fn num_vars(&self) -> usize {
        self.proto.num_vars()
    }

    /// Number of linear inequality rows a cell's `rhs` must cover.
    pub fn num_lin_rows(&self) -> usize {
        self.proto.lin_rhs().len()
    }

    /// Wall-clock seconds the one-time family construction took
    /// (row-reduction analysis included) — the `family_build_s` sweeps
    /// report.
    pub fn build_seconds(&self) -> f64 {
        self.build_s
    }

    /// The shared row-reduction analysis, when the family has one.
    pub fn analysis(&self) -> Option<&Arc<ReduceAnalysis>> {
        self.analysis.as_ref()
    }

    /// The inequality view of the cell whose linear right-hand sides are
    /// `rhs` — what certificate screens and seed-slack checks run on.
    /// Original variable space.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows.
    pub fn view_with<'a>(&'a self, rhs: &'a [f64]) -> ProblemView<'a> {
        assert_eq!(rhs.len(), self.num_lin_rows(), "cell rhs length");
        ProblemView {
            n: self.num_vars(),
            // Without equalities the packed projection *is* the original
            // rows (bit-identical copies); with them, fall back to the
            // prototype's row slices, which are original-space.
            rows: if self.f_basis.is_none() {
                RowsRef::Packed(&self.proj.a)
            } else {
                RowsRef::Slices(self.proto.lin_rows())
            },
            rhs,
            quad: self.proto.quad_constraints(),
        }
    }

    /// `true` when `prob` belongs to this family: identical coefficients,
    /// quadratic constraints, equalities (rows *and* right-hand sides),
    /// objective and variable count — everything except the linear
    /// inequality right-hand sides. [`FamilySolver::solve_cell`] on its rhs
    /// then solves exactly `prob`.
    pub fn matches(&self, prob: &Problem) -> bool {
        let (p0a, q0a, c0a) = self.proto.objective();
        let (p0b, q0b, c0b) = prob.objective();
        self.proto.num_vars() == prob.num_vars()
            && self.proto.lin_rows() == prob.lin_rows()
            && self.proto.quad_constraints() == prob.quad_constraints()
            && self.proto.equalities() == prob.equalities()
            && p0a == p0b
            && q0a == q0b
            && c0a == c0b
    }
}

/// How a cell solve should use its supplied start point; mirrors the
/// [`crate::BarrierSolver::solve_warm`] / `solve_seeded` split.
#[derive(Debug, Clone, Copy)]
pub enum CellSeed<'a> {
    /// No start point: phase I from the origin.
    None,
    /// A neighbouring optimum: re-enter the central path at the matching
    /// barrier parameter (`solve_warm` semantics).
    Warm(&'a [f64]),
    /// Good geometry only: phase II from the point, climbing from the
    /// configured `t₀` (`solve_seeded` semantics).
    Seeded(&'a [f64]),
}

impl<'a> CellSeed<'a> {
    fn point(&self) -> Option<&'a [f64]> {
        match self {
            CellSeed::None => None,
            CellSeed::Warm(x) | CellSeed::Seeded(x) => Some(x),
        }
    }

    fn is_warm(&self) -> bool {
        matches!(self, CellSeed::Warm(_))
    }
}

/// A per-worker solver over one shared [`ProblemFamily`]: owns the solver
/// scratch, the row-reduction state and every per-cell buffer, so
/// [`FamilySolver::solve_cell`] performs no heap allocation and no
/// re-analysis once warmed up (feasible path; infeasible cells allocate
/// only for the minted certificate).
#[derive(Debug, Clone)]
pub struct FamilySolver {
    family: Arc<ProblemFamily>,
    opts: SolverOptions,
    scratch: SolverScratch,
    reducer: RowReducer,
    pool: VecPool,
    /// Per-cell projected right-hand sides (reduced space).
    b_proj: Vec<f64>,
    /// Right-hand sides of the surviving rows after reduction.
    b_active: Vec<f64>,
    /// Projected seed (reduced space).
    z0: Vec<f64>,
    /// Original-space temporary (seed projection).
    tmp_n: Vec<f64>,
    /// Reused solve output.
    out: Solution,
    /// Reused feasibility-query output.
    out_feas: FeasibleOutcome,
}

impl FamilySolver {
    /// Creates a solver over `family` with the given options.
    ///
    /// # Panics
    ///
    /// Panics if the options are invalid (programmer error), as
    /// [`crate::BarrierSolver::new`] does.
    pub fn new(family: Arc<ProblemFamily>, opts: SolverOptions) -> FamilySolver {
        opts.validate().expect("solver options must validate");
        let reducer = RowReducer::new(family.analysis.clone());
        FamilySolver {
            family,
            opts,
            scratch: SolverScratch::new(),
            reducer,
            pool: VecPool::default(),
            b_proj: Vec::new(),
            b_active: Vec::new(),
            z0: Vec::new(),
            tmp_n: Vec::new(),
            out: Solution::infeasible(0, 0, 0, None, 0, false),
            out_feas: FeasibleOutcome {
                point: None,
                certificate: None,
                newton_steps: 0,
                rows_pruned: 0,
                polished: false,
            },
        }
    }

    /// The family this solver runs over.
    pub fn family(&self) -> &Arc<ProblemFamily> {
        &self.family
    }

    /// The options this solver runs with.
    pub fn options(&self) -> &SolverOptions {
        &self.opts
    }

    /// Replaces the per-solve Newton budget
    /// ([`SolverOptions::tick_budget`]) without touching the scratch or
    /// the shared family — the one option a deadline-driven caller
    /// retunes between solves to spread one tick's budget across several
    /// probes. `0` disables the budget.
    pub fn set_tick_budget(&mut self, budget: usize) {
        self.opts.tick_budget = budget;
    }

    /// Cumulative wall-clock seconds spent inside the per-cell
    /// row-reduction pass (`reduce_s` telemetry).
    pub fn reduce_seconds(&self) -> f64 {
        self.reducer.reduce_seconds()
    }

    /// Solves one cell of the family: the problem whose linear
    /// right-hand sides are `rhs` and whose every other datum is the
    /// prototype's.
    ///
    /// The returned reference borrows this solver's reused output buffer —
    /// copy out whatever must outlive the next call.
    ///
    /// # Errors
    ///
    /// [`CvxError::NotFinite`] when `rhs` or the seed point holds a
    /// non-finite value, before any work; otherwise the same conditions as
    /// [`Problem::solve`]. Infeasibility is *not* an error.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows.
    pub fn solve_cell(&mut self, rhs: &[f64], seed: CellSeed<'_>) -> Result<&Solution> {
        let family = Arc::clone(&self.family);
        let m = family.num_lin_rows();
        let n = family.num_vars();
        assert_eq!(rhs.len(), m, "cell rhs length");
        check_finite(rhs, seed.point())?;

        // Per-cell system data: project the rhs (no-op copy without
        // equalities), reduce rows, seed.
        project_rhs(&family, rhs, &mut self.b_proj);
        let kept = if self.opts.row_reduction && family.analysis.is_some() {
            self.reducer.select_rhs(rhs)
        } else {
            None
        };
        let rows_pruned = kept.map_or(0, |k| m - k.len());
        let (b, rows): (&[f64], Option<&[usize]>) = match kept {
            Some(k) => {
                self.b_active.clear();
                self.b_active.extend(k.iter().map(|&i| self.b_proj[i]));
                (&self.b_active, Some(k))
            }
            None => (&self.b_proj, None),
        };
        let z0 = seed.point().filter(|v| v.len() == n).map(|x0| {
            project_seed(&family, x0, &mut self.tmp_n, &mut self.z0);
            &*self.z0
        });

        let flow = solve_flow(
            &self.opts,
            &mut self.scratch,
            &mut self.pool,
            &family.proj,
            b,
            rows,
            &family.aug,
            family.f_basis.is_some(),
            z0,
            seed.is_warm(),
        )?;
        let out = &mut self.out;
        out.outer_iterations = flow.outer;
        out.newton_steps = flow.newton;
        out.phase1_steps = flow.phase1_steps;
        out.rows_pruned = rows_pruned;
        match flow.verdict {
            FlowVerdict::Feasible(run) => {
                lift_into(&family.x_p, family.f_basis.as_ref(), &run.x, &mut out.x);
                out.status = if run.converged {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::MaxIterations
                };
                // Same accumulation shape as `Problem::objective_value`,
                // without its temporary (bit-identical result).
                let quad = objective_quad(&family.proto, &out.x);
                let (_, q0, c0) = family.proto.objective();
                out.objective = quad + vecops::dot(q0, &out.x) + c0;
                out.gap_bound = run.gap;
                out.certificate = None;
                out.polished = false;
                self.pool.put(run.x);
            }
            FlowVerdict::Infeasible { cert, polished } => {
                let certificate = cert.and_then(|parts| {
                    let cert = Certificate {
                        lambda_lin: parts.lambda_lin,
                        lambda_quad: parts.lambda_quad,
                        anchor: lift(&family.x_p, family.f_basis.as_ref(), &parts.anchor_z),
                    };
                    cert.certifies_view(family.view_with(rhs), self.scratch.cert_ws())
                        .then_some(cert)
                });
                out.status = SolveStatus::Infeasible;
                out.x.clear();
                out.objective = f64::INFINITY;
                out.gap_bound = f64::INFINITY;
                // `polished` promises a minted certificate: if the final
                // verification pass (full rows, normalized multipliers)
                // rejects what the in-run check accepted, the polish
                // produced nothing transferable and must not be counted.
                out.polished = polished && certificate.is_some();
                out.certificate = certificate;
            }
            FlowVerdict::Budgeted(run) => {
                out.status = SolveStatus::Budgeted;
                out.certificate = None;
                out.polished = false;
                match run {
                    Some(run) => {
                        // Truncated but strictly feasible iterate: lift it
                        // and price it exactly like the feasible path.
                        lift_into(&family.x_p, family.f_basis.as_ref(), &run.x, &mut out.x);
                        let quad = objective_quad(&family.proto, &out.x);
                        let (_, q0, c0) = family.proto.objective();
                        out.objective = quad + vecops::dot(q0, &out.x) + c0;
                        out.gap_bound = run.gap;
                        self.pool.put(run.x);
                    }
                    None => {
                        // Budget died in phase I: feasibility undecided.
                        out.x.clear();
                        out.objective = f64::INFINITY;
                        out.gap_bound = f64::INFINITY;
                    }
                }
            }
        }
        Ok(&self.out)
    }

    /// Phase-I-only feasibility query on one cell (the frontier probes'
    /// workhorse), optionally seeded from a point of a neighbouring cell:
    /// returns a strictly feasible point, or a verified infeasibility
    /// [`Certificate`] when the cell has none, with the Newton cost. The
    /// returned reference borrows this solver's reused output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FamilySolver::solve_cell`]:
    /// [`CvxError::NotFinite`] when `rhs` or `seed` holds a non-finite
    /// value, before any work.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows.
    pub fn find_feasible_cell(
        &mut self,
        rhs: &[f64],
        seed: Option<&[f64]>,
    ) -> Result<&FeasibleOutcome> {
        let family = Arc::clone(&self.family);
        let m = family.num_lin_rows();
        let n = family.num_vars();
        assert_eq!(rhs.len(), m, "cell rhs length");
        check_finite(rhs, seed)?;

        project_rhs(&family, rhs, &mut self.b_proj);
        let kept = if self.opts.row_reduction && family.analysis.is_some() {
            self.reducer.select_rhs(rhs)
        } else {
            None
        };
        let rows_pruned = kept.map_or(0, |k| m - k.len());
        let (b, rows): (&[f64], Option<&[usize]>) = match kept {
            Some(k) => {
                self.b_active.clear();
                self.b_active.extend(k.iter().map(|&i| self.b_proj[i]));
                (&self.b_active, Some(k))
            }
            None => (&self.b_proj, None),
        };
        match seed.filter(|v| v.len() == n) {
            Some(x0) => project_seed(&family, x0, &mut self.tmp_n, &mut self.z0),
            None => {
                self.z0.clear();
                self.z0.resize(family.proj.n, 0.0);
            }
        }

        let flow = feasible_flow(
            &self.opts,
            &mut self.scratch,
            &mut self.pool,
            &family.proj,
            b,
            rows,
            &family.aug,
            family.f_basis.is_some(),
            &self.z0,
        )?;
        let out = &mut self.out_feas;
        out.rows_pruned = rows_pruned;
        out.certificate = None;
        match flow {
            FeasFlow::Instant => {
                let mut buf = out.point.take().unwrap_or_default();
                lift_into(&family.x_p, family.f_basis.as_ref(), &self.z0, &mut buf);
                out.point = Some(buf);
                out.newton_steps = 0;
                out.polished = false;
            }
            FeasFlow::Found(p1) => {
                let z = p1.z.expect("Found carries a feasible point");
                let mut buf = out.point.take().unwrap_or_default();
                lift_into(&family.x_p, family.f_basis.as_ref(), &z, &mut buf);
                out.point = Some(buf);
                self.pool.put(z);
                out.newton_steps = p1.newton;
                out.polished = false;
            }
            FeasFlow::Infeasible(p1) => {
                if let Some(v) = out.point.take() {
                    self.pool.put(v);
                }
                let certificate = p1.cert.and_then(|parts| {
                    let cert = Certificate {
                        lambda_lin: parts.lambda_lin,
                        lambda_quad: parts.lambda_quad,
                        anchor: lift(&family.x_p, family.f_basis.as_ref(), &parts.anchor_z),
                    };
                    cert.certifies_view(family.view_with(rhs), self.scratch.cert_ws())
                        .then_some(cert)
                });
                out.newton_steps = p1.newton;
                out.polished = p1.polished && certificate.is_some();
                out.certificate = certificate;
            }
        }
        Ok(&self.out_feas)
    }
}

/// [`CvxError::NotFinite`] unless the cell's right-hand sides and its seed
/// point, if any, are all finite. Without the seed check a NaN coordinate
/// would score as strictly feasible (`f64::max` drops NaN operands in
/// `Dense::max_violation`), and the span-aware row kernels match the dense
/// products bit for bit only on finite iterates.
fn check_finite(rhs: &[f64], seed: Option<&[f64]>) -> Result<()> {
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    if finite(rhs) && seed.is_none_or(finite) {
        Ok(())
    } else {
        Err(CvxError::NotFinite)
    }
}

/// Projects a cell's original-space rhs into the family's (possibly
/// equality-reduced) space: `b_i = rhs_i − rowᵢ·x_p` with equalities, a
/// plain copy without. Allocation-free once `out` has grown.
fn project_rhs(family: &ProblemFamily, rhs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    match &family.f_basis {
        Some(_) => out.extend(
            family
                .proto
                .lin_rows()
                .iter()
                .zip(rhs)
                .map(|(row, &r)| r - vecops::dot(row, &family.x_p)),
        ),
        None => out.extend_from_slice(rhs),
    }
}

/// Projects a seed into the reduced space: `z = Fᵀ(x₀ − x_p)` with
/// equalities, a plain copy without. Allocation-free once the buffers have
/// grown.
fn project_seed(family: &ProblemFamily, x0: &[f64], tmp: &mut Vec<f64>, z0: &mut Vec<f64>) {
    match &family.f_basis {
        Some(f) => {
            tmp.clear();
            tmp.resize(x0.len(), 0.0);
            vecops::sub_into(x0, &family.x_p, tmp);
            z0.clear();
            z0.resize(family.proj.n, 0.0);
            f.matvec_t_into(tmp, z0);
        }
        None => {
            z0.clear();
            z0.extend_from_slice(x0);
        }
    }
}

/// `½ xᵀP₀x` accumulated row by row, matching the accumulation shape (and
/// therefore the bits) of [`Problem::objective_value`] without its
/// temporary vector.
fn objective_quad(proto: &Problem, x: &[f64]) -> f64 {
    match proto.objective().0 {
        Some(p) => {
            let mut acc = 0.0;
            for (r, &xr) in x.iter().enumerate() {
                acc += vecops::dot(p.row(r), x) * xr;
            }
            0.5 * acc
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small family shaped like the Pro-Temp design points: boxes, a
    /// multi-entry coupling row family (prunable near-duplicates), a
    /// quadratic constraint, linear objective.
    fn prototype() -> Problem {
        let n = 4;
        let mut p = Problem::new(n);
        p.set_linear_objective(vec![1.0, 1.0, 0.5, 0.25]);
        for i in 0..n {
            p.add_box(i, 0.0, 5.0);
        }
        p.add_linear_le(vec![1.0, 1.0, 1.0, 1.0], 8.0);
        p.add_linear_le(vec![1.0, 1.0, 1.0, 1.0], 9.0); // near-duplicate
        p.add_linear_le(vec![-1.0, -1.0, 0.0, 0.0], -0.5); // workload-style
        let mut diag = vec![0.0; n];
        diag[0] = 2.0;
        p.add_quad_le(Matrix::from_diag(&diag), vec![0.0; n], 16.0);
        p
    }

    /// The same problem with one cell's rhs swapped in.
    fn cell_problem(rhs: &[f64]) -> Problem {
        let mut p = prototype();
        p.lin_rhs_mut().copy_from_slice(rhs);
        p
    }

    fn rhs_for(workload: f64) -> Vec<f64> {
        let mut rhs = prototype().lin_rhs().to_vec();
        let m = rhs.len();
        rhs[m - 1] = workload; // the "workload" row's rhs
        rhs
    }

    /// A solver over a family built from the cell's own problem: the
    /// reference a family built from another cell must reproduce.
    fn own_family_solver(prob: Problem, opts: SolverOptions) -> FamilySolver {
        FamilySolver::new(Arc::new(ProblemFamily::new(prob, &opts).unwrap()), opts)
    }

    /// A family's outputs do not depend on which cell's rhs its prototype
    /// carried: along a seeded-then-warm chain, the shared family solves
    /// every cell bit for bit like a family built from that cell's own
    /// problem. `AssignmentContext::family()` in the Pro-Temp layer builds
    /// its family from an arbitrary design point and relies on this.
    #[test]
    fn family_solve_cell_matches_per_cell_solver_bitwise() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let seed = vec![0.5, 0.5, 0.5, 0.5];
        let mut warm: Option<Vec<f64>> = None;
        for workload in [-0.5, -1.0, -2.0, -0.25] {
            let rhs = rhs_for(workload);
            let prob = cell_problem(&rhs);
            assert!(family.matches(&prob), "cells must belong to the family");
            let mut own = own_family_solver(prob, opts);
            let (fam_sol, own_sol) = match &warm {
                None => (
                    fam.solve_cell(&rhs, CellSeed::Seeded(&seed)).unwrap(),
                    own.solve_cell(&rhs, CellSeed::Seeded(&seed)).unwrap(),
                ),
                Some(w) => (
                    fam.solve_cell(&rhs, CellSeed::Warm(w)).unwrap(),
                    own.solve_cell(&rhs, CellSeed::Warm(w)).unwrap(),
                ),
            };
            assert_eq!(fam_sol.status, own_sol.status, "workload {workload}");
            assert_eq!(fam_sol.x, own_sol.x, "bit-identical x at {workload}");
            assert_eq!(fam_sol.objective.to_bits(), own_sol.objective.to_bits());
            assert_eq!(fam_sol.newton_steps, own_sol.newton_steps);
            assert_eq!(fam_sol.phase1_steps, own_sol.phase1_steps);
            assert_eq!(fam_sol.rows_pruned, own_sol.rows_pruned);
            warm = Some(fam_sol.x.clone());
        }
    }

    /// As above for an infeasible cell: the same verdict, Newton bill and
    /// minted certificate, bit for bit, whichever cell built the family.
    #[test]
    fn family_infeasible_cell_matches_per_cell_certificate() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        // Demand more than the box total allows: Σ over first two ≥ 30.
        let mut rhs = rhs_for(-30.0);
        // Also tighten the sum row so the conflict is linear.
        rhs[8] = 4.0;
        let prob = cell_problem(&rhs);
        let mut own = own_family_solver(prob.clone(), opts);
        let fam_sol = fam.solve_cell(&rhs, CellSeed::None).unwrap();
        let own_sol = own.solve_cell(&rhs, CellSeed::None).unwrap();
        assert_eq!(fam_sol.status, SolveStatus::Infeasible);
        assert_eq!(own_sol.status, SolveStatus::Infeasible);
        assert_eq!(fam_sol.newton_steps, own_sol.newton_steps);
        assert_eq!(
            fam_sol.certificate, own_sol.certificate,
            "minted certificates must be bit-identical"
        );
        if let Some(cert) = &fam_sol.certificate {
            assert!(cert.certifies_view(family.view_with(&rhs), &mut crate::CertScratch::new()));
            assert!(crate::check_certificate(&prob, cert));
        }
    }

    /// As above on the equality-eliminated path, whose projected rhs and
    /// seeds go through the family's one QR.
    #[test]
    fn family_with_equalities_matches_per_cell() {
        let opts = SolverOptions::default();
        let mut proto = prototype();
        proto.add_eq(vec![1.0, -1.0, 0.0, 0.0], 0.0); // x0 = x1 (uniform-style)
        let family = Arc::new(ProblemFamily::new(proto.clone(), &opts).unwrap());
        assert!(
            family.analysis().is_none(),
            "equality families skip row reduction"
        );
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        for workload in [-0.5, -1.5] {
            let rhs = rhs_for(workload);
            let mut prob = proto.clone();
            prob.lin_rhs_mut().copy_from_slice(&rhs);
            let mut own = own_family_solver(prob, opts);
            let fam_sol = fam.solve_cell(&rhs, CellSeed::None).unwrap();
            let own_sol = own.solve_cell(&rhs, CellSeed::None).unwrap();
            assert_eq!(fam_sol.status, own_sol.status);
            assert_eq!(fam_sol.x, own_sol.x, "bit-identical x at {workload}");
            assert_eq!(fam_sol.newton_steps, own_sol.newton_steps);
        }
    }

    /// As above for phase-I-only queries, feasible and infeasible.
    #[test]
    fn find_feasible_cell_matches_per_cell() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        for workload in [-0.5, -30.0] {
            let rhs = rhs_for(workload);
            let mut own = own_family_solver(cell_problem(&rhs), opts);
            let fam_out = fam.find_feasible_cell(&rhs, None).unwrap();
            let own_out = own.find_feasible_cell(&rhs, None).unwrap();
            assert_eq!(fam_out.point, own_out.point, "workload {workload}");
            assert_eq!(fam_out.newton_steps, own_out.newton_steps);
            assert_eq!(fam_out.certificate, own_out.certificate);
        }
    }

    #[test]
    fn family_rejects_foreign_problems() {
        let opts = SolverOptions::default();
        let family = ProblemFamily::new(prototype(), &opts).unwrap();
        assert!(family.matches(&prototype()));
        let mut other = prototype();
        other.add_linear_le(vec![1.0, 0.0, 0.0, 0.0], 2.0);
        assert!(!family.matches(&other), "extra row breaks membership");
        let mut other = prototype();
        other.set_linear_objective(vec![2.0, 1.0, 0.5, 0.25]);
        assert!(
            !family.matches(&other),
            "objective change breaks membership"
        );
    }

    /// Cells whose workload rhs is NaN or infinite.
    fn non_finite_cells() -> [Vec<f64>; 2] {
        [rhs_for(f64::NAN), rhs_for(f64::INFINITY)]
    }

    fn fresh_solver() -> FamilySolver {
        let opts = SolverOptions::default();
        FamilySolver::new(
            Arc::new(ProblemFamily::new(prototype(), &opts).unwrap()),
            opts,
        )
    }

    #[test]
    fn solve_cell_rejects_non_finite_rhs() {
        let mut fam = fresh_solver();
        for rhs in non_finite_cells() {
            let out = fam.solve_cell(&rhs, CellSeed::None);
            assert!(matches!(out, Err(crate::CvxError::NotFinite)), "{out:?}");
        }
    }

    #[test]
    fn find_feasible_cell_rejects_non_finite_rhs() {
        let mut fam = fresh_solver();
        for rhs in non_finite_cells() {
            let out = fam.find_feasible_cell(&rhs, None);
            assert!(matches!(out, Err(crate::CvxError::NotFinite)), "{out:?}");
        }
    }
}
