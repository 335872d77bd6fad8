//! Sweep-shared problem families: hoist everything cell-invariant out of
//! the per-cell solve path.
//!
//! A Phase-1 table sweep solves a *family* of near-identical convex
//! programs: every grid cell shares the exact same constraint coefficients,
//! variable box, equality rows and objective — only the linear right-hand
//! sides (the thermal offsets and the workload bound) and the warm seed
//! change from cell to cell. The per-cell [`crate::BarrierSolver`] path
//! nevertheless re-derives per-solve everything that is actually
//! sweep-invariant: it packs the rows into a fresh matrix, re-keys the
//! row-reduction analysis, re-checks the equality QR cache, rebuilds the
//! phase-I augmented system and allocates every intermediate vector.
//!
//! [`ProblemFamily`] performs all of that **once**: it owns the packed row
//! matrix, the box-free row-reduction analysis ([`ReduceAnalysis`]), the
//! equality elimination (particular solution + nullspace basis via the
//! cached QR), the pre-built phase-I augmented storage, and the prototype
//! [`Problem`] itself (for certificate checks and structural comparisons).
//! A [`FamilySolver`] then solves one cell at a time through
//! [`FamilySolver::solve_cell`], touching only per-cell data — right-hand
//! sides, optional objective override, seed — with **zero heap allocation
//! and zero re-analysis** on the feasible hot path once its buffers have
//! grown (the counting-allocator test pins this down).
//!
//! # Bit-identity with the per-cell path
//!
//! Family solves run the *same engine* (`solve_flow`, `run_barrier`,
//! `phase1` in the `barrier` module) over views of the family's storage,
//! and every cached quantity (packed rows, projected system, augmented
//! system, reduction analysis, equality QR) is a pure function of data
//! that is bit-identical to what the per-cell path would derive from the
//! cell's own [`Problem`]. The produced solutions, verdicts and
//! certificates are therefore bit-identical to
//! [`crate::BarrierSolver::solve_seeded`]/[`crate::BarrierSolver::solve_warm`]
//! on the equivalent per-cell problem — the one-shot [`crate::BarrierSolver`]
//! is the reference this module's tests compare against bit for bit.
//!
//! # When a family must be rebuilt
//!
//! A family is valid for exactly the cells whose problems differ from the
//! prototype only in linear-inequality right-hand sides (and, via the
//! explicit override, the linear objective). Any change to constraint
//! coefficients, quadratic constraints, equality rows *or equality
//! right-hand sides*, the variable count, or the solver options that shape
//! the analysis (`row_reduction`) requires a new [`ProblemFamily`] —
//! [`ProblemFamily::matches`] checks this structurally, and the Pro-Temp
//! layer keys its family cache on the context fingerprint for the same
//! reason.

use std::sync::Arc;
use std::time::Instant;

use protemp_linalg::{vecops, Matrix};

use crate::barrier::{
    feasible_flow, lift, lift_into, project_problem, reduce_equalities_cached, solve_flow,
    AugSource, AugStorage, FeasFlow, FlowVerdict, ProjStorage, VecPool,
};
use crate::certificate::{boxed_bound_accepts, single_entry, ProblemView, RowsRef};
use crate::reduce::{ReduceAnalysis, RowReducer};
use crate::{
    Certificate, FeasibleOutcome, Problem, Result, Solution, SolveStatus, SolverOptions,
    SolverScratch,
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
    f_basis: Option<Arc<Matrix>>,
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
        let mut eq_cache = None;
        let (x_p, f_basis) = reduce_equalities_cached(&mut eq_cache, &prototype)?;
        let proj = project_problem(&prototype, &x_p, f_basis.as_deref());
        let mut aug = AugStorage::default();
        aug.fill_from(&proj);
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
    /// inequality right-hand sides. Such a problem's per-cell solve is
    /// bit-identical to [`FamilySolver::solve_cell`] on its rhs.
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
/// scratch, the pinned row-reduction state and every per-cell buffer, so
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
    /// Projected objective override, when one is supplied.
    q0_override: Vec<f64>,
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
        let mut reducer = RowReducer::default();
        if let Some(analysis) = &family.analysis {
            reducer.pin(Arc::clone(analysis));
        }
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
            q0_override: Vec::new(),
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
    /// prototype's. Bit-identical to the per-cell
    /// [`crate::BarrierSolver`] on the equivalent [`Problem`].
    ///
    /// The returned reference borrows this solver's reused output buffer —
    /// copy out whatever must outlive the next call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`]; infeasibility is *not* an
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows.
    pub fn solve_cell(&mut self, rhs: &[f64], seed: CellSeed<'_>) -> Result<&Solution> {
        self.solve_cell_impl(rhs, None, seed, None)
    }

    /// As [`FamilySolver::solve_cell`], consuming the kept-row mask a prior
    /// [`FamilySolver::screen_cells`] call computed for `cell` instead of
    /// re-running the per-cell reduction compare. Bit-identical to
    /// [`FamilySolver::solve_cell`] on the same rhs: the cached mask *is*
    /// the reducer's verdict for this rhs (a pure function of it), so the
    /// solve consumes identical row subsets either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FamilySolver::solve_cell`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows or `cell` is out of
    /// range for `screen`.
    pub fn solve_cell_screened(
        &mut self,
        rhs: &[f64],
        seed: CellSeed<'_>,
        screen: &ColumnScreen,
        cell: usize,
    ) -> Result<&Solution> {
        self.solve_cell_impl(rhs, None, seed, Some(screen.kept(cell)))
    }

    /// As [`FamilySolver::solve_cell`], with a per-cell linear objective
    /// `q₀` override (length = variable count). The quadratic objective
    /// part and constant stay the prototype's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FamilySolver::solve_cell`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` or `objective` have the wrong length.
    pub fn solve_cell_objective(
        &mut self,
        rhs: &[f64],
        objective: &[f64],
        seed: CellSeed<'_>,
    ) -> Result<&Solution> {
        assert_eq!(objective.len(), self.family.num_vars(), "objective length");
        self.solve_cell_impl(rhs, Some(objective), seed, None)
    }

    fn solve_cell_impl(
        &mut self,
        rhs: &[f64],
        objective: Option<&[f64]>,
        seed: CellSeed<'_>,
        mask: Option<Option<&[usize]>>,
    ) -> Result<&Solution> {
        let family = Arc::clone(&self.family);
        let m = family.num_lin_rows();
        let n = family.num_vars();
        assert_eq!(rhs.len(), m, "cell rhs length");

        // Per-cell system data: project the rhs (no-op copy without
        // equalities) and the objective override, reduce rows, seed.
        project_rhs(&family, rhs, &mut self.b_proj);
        let q0_active = project_override(&family, objective, &mut self.q0_override);
        let kept = match mask {
            // A batched screen already ran this rhs through the reducer;
            // its cached mask is the same pure function of the rhs.
            Some(k) => k,
            None if self.opts.row_reduction && family.analysis.is_some() => {
                self.reducer.select_rhs(rhs)
            }
            None => None,
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

        let mut aug = AugSource::Prebuilt(&family.aug);
        let flow = solve_flow(
            &self.opts,
            &mut self.scratch,
            &mut self.pool,
            &family.proj,
            q0_active,
            b,
            rows,
            &mut aug,
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
                lift_into(&family.x_p, family.f_basis.as_deref(), &run.x, &mut out.x);
                out.status = if run.converged {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::MaxIterations
                };
                // Same accumulation shape as `Problem::objective_value`,
                // without its temporary (bit-identical result).
                let quad = objective_quad(&family.proto, &out.x);
                let (_, proto_q0, c0) = family.proto.objective();
                let q0_full = objective.unwrap_or(proto_q0);
                out.objective = quad + vecops::dot(q0_full, &out.x) + c0;
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
                        anchor: lift(&family.x_p, family.f_basis.as_deref(), &parts.anchor_z),
                    };
                    cert.certifies_view(family.view_with(rhs), self.scratch.cert_ws())
                        .then_some(cert)
                });
                out.status = SolveStatus::Infeasible;
                out.x.clear();
                out.objective = f64::INFINITY;
                out.gap_bound = f64::INFINITY;
                // As in the per-cell path: `polished` only counts when the
                // verified certificate actually materialized.
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
                        lift_into(&family.x_p, family.f_basis.as_deref(), &run.x, &mut out.x);
                        let quad = objective_quad(&family.proto, &out.x);
                        let (_, proto_q0, c0) = family.proto.objective();
                        let q0_full = objective.unwrap_or(proto_q0);
                        out.objective = quad + vecops::dot(q0_full, &out.x) + c0;
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
    /// workhorse), optionally seeded. Bit-identical to
    /// [`crate::BarrierSolver::find_feasible_with`] on the equivalent
    /// problem. The returned reference borrows this solver's reused output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FamilySolver::solve_cell`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows.
    pub fn find_feasible_cell(
        &mut self,
        rhs: &[f64],
        seed: Option<&[f64]>,
    ) -> Result<&FeasibleOutcome> {
        self.find_feasible_impl(rhs, seed, None)
    }

    /// As [`FamilySolver::find_feasible_cell`], consuming the kept-row mask
    /// a prior [`FamilySolver::screen_cells`] call computed for `cell` —
    /// the frontier prober's path, which screens each bisection probe as a
    /// one-column panel and must not pay the reduction compare twice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FamilySolver::solve_cell`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not cover the family's rows or `cell` is out of
    /// range for `screen`.
    pub fn find_feasible_cell_screened(
        &mut self,
        rhs: &[f64],
        seed: Option<&[f64]>,
        screen: &ColumnScreen,
        cell: usize,
    ) -> Result<&FeasibleOutcome> {
        self.find_feasible_impl(rhs, seed, Some(screen.kept(cell)))
    }

    fn find_feasible_impl(
        &mut self,
        rhs: &[f64],
        seed: Option<&[f64]>,
        mask: Option<Option<&[usize]>>,
    ) -> Result<&FeasibleOutcome> {
        let family = Arc::clone(&self.family);
        let m = family.num_lin_rows();
        let n = family.num_vars();
        assert_eq!(rhs.len(), m, "cell rhs length");

        project_rhs(&family, rhs, &mut self.b_proj);
        let kept = match mask {
            Some(k) => k,
            None if self.opts.row_reduction && family.analysis.is_some() => {
                self.reducer.select_rhs(rhs)
            }
            None => None,
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

        let mut aug = AugSource::Prebuilt(&family.aug);
        let flow = feasible_flow(
            &self.opts,
            &mut self.scratch,
            &mut self.pool,
            &family.proj,
            None,
            b,
            rows,
            &mut aug,
            family.f_basis.is_some(),
            &self.z0,
        )?;
        let out = &mut self.out_feas;
        out.rows_pruned = rows_pruned;
        out.certificate = None;
        match flow {
            FeasFlow::Instant => {
                let mut buf = out.point.take().unwrap_or_default();
                lift_into(&family.x_p, family.f_basis.as_deref(), &self.z0, &mut buf);
                out.point = Some(buf);
                out.newton_steps = 0;
                out.polished = false;
            }
            FeasFlow::Found(p1) => {
                let z = p1.z.expect("Found carries a feasible point");
                let mut buf = out.point.take().unwrap_or_default();
                lift_into(&family.x_p, family.f_basis.as_deref(), &z, &mut buf);
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
                        anchor: lift(&family.x_p, family.f_basis.as_deref(), &parts.anchor_z),
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

    /// One fused pass over an entire grid column of cells: runs the
    /// certificate screen *and* the box-free reduction rhs-compare for
    /// every cell of a column-major rhs panel (`rhs_ncols` columns of
    /// length `num_lin_rows`, one column per cell), leaving per-cell
    /// verdicts and kept-row masks in `out`.
    ///
    /// Per-certificate work that does not depend on the rhs — validity,
    /// the aggregated gradient `ρ = Σλᵢ∇fᵢ(x̂)`, the anchor dot products
    /// `A·x̂` for **all** certificates via one
    /// [`Matrix::matvec_panel_into`], the quadratic terms, the single-entry
    /// row list — is hoisted into a prep keyed on `(certs_epoch,
    /// certs.len())` and reused across calls while the pool is unchanged.
    /// Each cell then costs only `O(nnz(λ))` rhs-compares per certificate
    /// instead of a full `O(m·n)` re-aggregation.
    ///
    /// # Bit-identity with the scalar path
    ///
    /// For every cell, `out.hit(cell)` equals the index the scalar
    /// `certs.iter().position(|c| c.certifies_view(view, ws))` loop would
    /// return, and `out.kept(cell)` equals the reducer's `select_rhs`
    /// verdict (masks are computed only for unscreened cells — screened
    /// cells are never solved). This holds because every floating-point
    /// operation is the same operation in the same order as
    /// [`Certificate::certifies_view`]: the panel matvec folds each anchor
    /// dot exactly as `vecops::dot`; the hoisted ρ accumulates the same
    /// axpy sequence into a zeroed buffer; the box harvest replays the
    /// single-entry min/max sequence in row order; the per-cell fold adds
    /// linear terms in row order and then the cached quadratic terms in
    /// constraint order, exactly as the scalar loop interleaves them (the
    /// lin/quad accumulators never mix); and the final verdict funnels
    /// through the same [`boxed_bound_accepts`]. Splitting the scalar
    /// fused loop into prep + per-cell phases is bit-safe because the
    /// lo/hi harvest and the value/mag/ρ aggregation write disjoint
    /// accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `rhs_panel.len() != num_lin_rows() * rhs_ncols`.
    pub fn screen_cells(
        &mut self,
        rhs_panel: &[f64],
        rhs_ncols: usize,
        certs: &[&Certificate],
        certs_epoch: u64,
        out: &mut ColumnScreen,
    ) {
        let family = Arc::clone(&self.family);
        let m = family.num_lin_rows();
        assert_eq!(rhs_panel.len(), m * rhs_ncols, "rhs panel length");
        out.prepare_certs(&family, certs, certs_epoch);
        out.ncells = rhs_ncols;
        out.hits.clear();
        out.kept_flat.clear();
        out.kept_span.clear();
        let reduce = self.opts.row_reduction && family.analysis.is_some();
        for c in 0..rhs_ncols {
            let rhs = &rhs_panel[c * m..(c + 1) * m];
            let hit = out.screen_one(certs, rhs);
            out.hits.push(hit);
            let span = if reduce && hit.is_none() {
                self.reducer.select_rhs(rhs).map(|k| {
                    let start = out.kept_flat.len();
                    out.kept_flat.extend_from_slice(k);
                    (start, out.kept_flat.len())
                })
            } else {
                None
            };
            out.kept_span.push(span);
        }
    }
}

/// Caller-owned scratch and results for [`FamilySolver::screen_cells`]:
/// the hoisted per-certificate prep (reused across calls while the
/// certificate pool is unchanged) plus the per-cell verdicts and kept-row
/// masks of the most recent screened column. Hold one per worker next to
/// its [`FamilySolver`].
#[derive(Debug, Clone, Default)]
pub struct ColumnScreen {
    /// Prep identity: `(certs_epoch, certs.len())` of the hoisted state.
    prep_key: Option<(u64, usize)>,
    /// Family dimensions the prep was taken at.
    m: usize,
    n: usize,
    /// Per input certificate: passes the shape/structural gate?
    valid: Vec<bool>,
    /// Per input certificate: its column in the valid-cert panels
    /// (`usize::MAX` when invalid).
    slot: Vec<usize>,
    /// Aggregated gradients, one `n`-column per valid certificate.
    rho: Vec<f64>,
    /// Anchor dot products `A·x̂`, one `m`-column per valid certificate.
    d: Vec<f64>,
    /// Anchor panel (`n` × valid), column-major.
    anchors: Vec<f64>,
    /// Nonzero-λ linear terms, flattened: row index and multiplier…
    lin_idx: Vec<u32>,
    lin_l: Vec<f64>,
    /// …with one `(start, end)` span per valid certificate.
    lin_span: Vec<(usize, usize)>,
    /// Cached quadratic `(λ·f, λ·|f|)` terms (rhs-independent), flattened…
    quad_terms: Vec<(f64, f64)>,
    /// …with one span per valid certificate.
    quad_span: Vec<(usize, usize)>,
    /// Single-entry rows `(row, var, coeff)` in row order.
    singles: Vec<(u32, u32, f64)>,
    /// Quadratic-gradient temporary.
    qgrad: Vec<f64>,
    /// Per-cell box harvest.
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Cells in the most recent screened panel.
    ncells: usize,
    /// Per cell: index of the first certifying certificate, if any.
    hits: Vec<Option<usize>>,
    /// Kept-row masks, flattened into one arena…
    kept_flat: Vec<usize>,
    /// …with one optional span per cell (`None` = keep all rows).
    kept_span: Vec<Option<(usize, usize)>>,
}

impl ColumnScreen {
    /// An empty screen; buffers grow on first use.
    pub fn new() -> ColumnScreen {
        ColumnScreen::default()
    }

    /// Cells in the most recently screened panel.
    pub fn ncells(&self) -> usize {
        self.ncells
    }

    /// The index (into the `certs` slice handed to
    /// [`FamilySolver::screen_cells`]) of the first certificate that
    /// certifies `cell` infeasible, or `None` when the cell survived the
    /// screen — exactly the scalar first-hit verdict.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn hit(&self, cell: usize) -> Option<usize> {
        self.hits[cell]
    }

    /// The reducer's kept-row mask for `cell` (`None` = all rows kept, or
    /// the cell was screened and never needed one).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn kept(&self, cell: usize) -> Option<&[usize]> {
        self.kept_span[cell].map(|(s, e)| &self.kept_flat[s..e])
    }

    /// Hoists everything rhs-independent out of the per-cell screen; a
    /// no-op when the pool is unchanged since the last prep (same epoch,
    /// same length).
    fn prepare_certs(&mut self, family: &ProblemFamily, certs: &[&Certificate], epoch: u64) {
        if self.prep_key == Some((epoch, certs.len())) {
            return;
        }
        let m = family.num_lin_rows();
        let n = family.num_vars();
        let quad = family.proto.quad_constraints();
        let rows = if family.f_basis.is_none() {
            RowsRef::Packed(&family.proj.a)
        } else {
            RowsRef::Slices(family.proto.lin_rows())
        };
        self.m = m;
        self.n = n;

        self.valid.clear();
        self.slot.clear();
        let mut nvalid = 0usize;
        for c in certs {
            // The same gate `certifies_view` applies before aggregating.
            let ok = c.anchor.len() == n
                && c.lambda_lin.len() == m
                && c.lambda_quad.len() == quad.len()
                && c.structurally_valid();
            self.valid.push(ok);
            self.slot.push(if ok {
                nvalid += 1;
                nvalid - 1
            } else {
                usize::MAX
            });
        }

        self.singles.clear();
        for i in 0..m {
            if let Some((j, c)) = single_entry(rows.row(i)) {
                self.singles.push((i as u32, j as u32, c));
            }
        }

        self.anchors.clear();
        self.anchors.resize(n * nvalid, 0.0);
        self.rho.clear();
        self.rho.resize(n * nvalid, 0.0);
        self.qgrad.clear();
        self.qgrad.resize(n, 0.0);
        self.lin_idx.clear();
        self.lin_l.clear();
        self.lin_span.clear();
        self.quad_terms.clear();
        self.quad_span.clear();
        for (k, c) in certs.iter().enumerate() {
            if !self.valid[k] {
                continue;
            }
            let v = self.slot[k];
            self.anchors[v * n..(v + 1) * n].copy_from_slice(&c.anchor);
            // Same axpy sequence into a zeroed buffer as the scalar
            // aggregation: linear rows in row order, then quadratic
            // gradients in constraint order.
            let rho = &mut self.rho[v * n..(v + 1) * n];
            let lin_start = self.lin_idx.len();
            for (i, &l) in c.lambda_lin.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                self.lin_idx.push(i as u32);
                self.lin_l.push(l);
                vecops::axpy(l, rows.row(i), rho);
            }
            self.lin_span.push((lin_start, self.lin_idx.len()));
            let quad_start = self.quad_terms.len();
            for (q, &l) in quad.iter().zip(&c.lambda_quad) {
                if l == 0.0 {
                    continue;
                }
                let f = q.eval(&c.anchor);
                self.quad_terms.push((l * f, l * f.abs()));
                q.gradient_into(&c.anchor, &mut self.qgrad);
                vecops::axpy(l, &self.qgrad, rho);
            }
            self.quad_span.push((quad_start, self.quad_terms.len()));
        }

        // Anchor dots for all rows × all valid certificates in one panel
        // matvec (the packed family case; equality families keep per-row
        // slices and fall back to the identical scalar fold).
        self.d.clear();
        self.d.resize(m * nvalid, 0.0);
        match rows {
            RowsRef::Packed(a) => a.matvec_panel_into(&self.anchors, nvalid, &mut self.d),
            RowsRef::Slices(rs) => {
                for v in 0..nvalid {
                    let anchor = &self.anchors[v * n..(v + 1) * n];
                    for (i, row) in rs.iter().enumerate() {
                        self.d[v * m + i] = vecops::dot(row, anchor);
                    }
                }
            }
        }
        self.prep_key = Some((epoch, certs.len()));
    }

    /// The scalar first-hit screen for one cell, over the hoisted prep.
    fn screen_one(&mut self, certs: &[&Certificate], rhs: &[f64]) -> Option<usize> {
        if certs.is_empty() {
            return None;
        }
        let (m, n) = (self.m, self.n);
        // Box harvest: the same min/max sequence in row order the scalar
        // screen replays per certificate (a pure function of the rhs, so
        // harvesting once per cell yields the identical bounds).
        self.lo.clear();
        self.lo.resize(n, f64::NEG_INFINITY);
        self.hi.clear();
        self.hi.resize(n, f64::INFINITY);
        for &(i, j, c) in &self.singles {
            let bound = rhs[i as usize] / c;
            if c > 0.0 {
                self.hi[j as usize] = self.hi[j as usize].min(bound);
            } else {
                self.lo[j as usize] = self.lo[j as usize].max(bound);
            }
        }
        for (k, cert) in certs.iter().enumerate() {
            if !self.valid[k] {
                continue;
            }
            let v = self.slot[k];
            let mut value = 0.0;
            let mut mag = 0.0;
            let d = &self.d[v * m..(v + 1) * m];
            let (ls, le) = self.lin_span[v];
            for t in ls..le {
                let i = self.lin_idx[t] as usize;
                let l = self.lin_l[t];
                let f = d[i] - rhs[i];
                value += l * f;
                mag += l * f.abs();
            }
            let (qs, qe) = self.quad_span[v];
            for &(qv, qm) in &self.quad_terms[qs..qe] {
                value += qv;
                mag += qm;
            }
            if boxed_bound_accepts(
                value,
                mag,
                &self.rho[v * n..(v + 1) * n],
                &self.lo,
                &self.hi,
                &cert.anchor,
            ) {
                return Some(k);
            }
        }
        None
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

/// Projects a per-cell linear-objective override into the reduced space
/// when the family has equalities (the same `Fᵀ(P x_p + q₀)` formula
/// `project_problem` uses); returns the active reduced-space q₀ slice, or
/// `None` when no override was supplied (the family's own stays active).
fn project_override<'a>(
    family: &ProblemFamily,
    objective: Option<&'a [f64]>,
    buf: &'a mut Vec<f64>,
) -> Option<&'a [f64]> {
    let q0 = objective?;
    match &family.f_basis {
        Some(f) => {
            let (p0, _, _) = family.proto.objective();
            buf.clear();
            buf.resize(family.proj.n, 0.0);
            match p0 {
                Some(p) => {
                    let px = p.matvec(&family.x_p);
                    f.matvec_t_into(&vecops::add(&px, q0), buf);
                }
                None => f.matvec_t_into(q0, buf),
            }
            Some(buf)
        }
        None => Some(q0),
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
    use crate::BarrierSolver;

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

    #[test]
    fn family_solve_cell_matches_per_cell_solver_bitwise() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let mut per_cell = BarrierSolver::new(opts);
        let seed = vec![0.5, 0.5, 0.5, 0.5];
        let mut warm: Option<Vec<f64>> = None;
        for workload in [-0.5, -1.0, -2.0, -0.25] {
            let rhs = rhs_for(workload);
            let prob = cell_problem(&rhs);
            assert!(family.matches(&prob), "cells must belong to the family");
            let (fam_sol, cell_sol) = match &warm {
                None => (
                    fam.solve_cell(&rhs, CellSeed::Seeded(&seed)).unwrap(),
                    per_cell.solve_seeded(&prob, &seed).unwrap(),
                ),
                Some(w) => (
                    fam.solve_cell(&rhs, CellSeed::Warm(w)).unwrap(),
                    per_cell.solve_warm(&prob, w).unwrap(),
                ),
            };
            assert_eq!(fam_sol.status, cell_sol.status, "workload {workload}");
            assert_eq!(fam_sol.x, cell_sol.x, "bit-identical x at {workload}");
            assert_eq!(fam_sol.objective.to_bits(), cell_sol.objective.to_bits());
            assert_eq!(fam_sol.newton_steps, cell_sol.newton_steps);
            assert_eq!(fam_sol.phase1_steps, cell_sol.phase1_steps);
            assert_eq!(fam_sol.rows_pruned, cell_sol.rows_pruned);
            warm = Some(fam_sol.x.clone());
        }
    }

    #[test]
    fn family_infeasible_cell_matches_per_cell_certificate() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let mut per_cell = BarrierSolver::new(opts);
        // Demand more than the box total allows: Σ over first two ≥ 30.
        let mut rhs = rhs_for(-30.0);
        // Also tighten the sum row so the conflict is linear.
        rhs[8] = 4.0;
        let prob = cell_problem(&rhs);
        let fam_sol = fam.solve_cell(&rhs, CellSeed::None).unwrap();
        let cell_sol = per_cell.solve(&prob).unwrap();
        assert_eq!(fam_sol.status, SolveStatus::Infeasible);
        assert_eq!(cell_sol.status, SolveStatus::Infeasible);
        assert_eq!(fam_sol.newton_steps, cell_sol.newton_steps);
        assert_eq!(
            fam_sol.certificate, cell_sol.certificate,
            "minted certificates must be bit-identical"
        );
        if let Some(cert) = &fam_sol.certificate {
            assert!(cert.certifies_view(family.view_with(&rhs), &mut crate::CertScratch::new()));
            assert!(crate::check_certificate(&prob, cert));
        }
    }

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
        let mut per_cell = BarrierSolver::new(opts);
        for workload in [-0.5, -1.5] {
            let rhs = rhs_for(workload);
            let mut prob = proto.clone();
            prob.lin_rhs_mut().copy_from_slice(&rhs);
            let fam_sol = fam.solve_cell(&rhs, CellSeed::None).unwrap();
            let cell_sol = per_cell.solve(&prob).unwrap();
            assert_eq!(fam_sol.status, cell_sol.status);
            assert_eq!(fam_sol.x, cell_sol.x, "bit-identical x at {workload}");
            assert_eq!(fam_sol.newton_steps, cell_sol.newton_steps);
        }
    }

    #[test]
    fn find_feasible_cell_matches_per_cell() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let mut per_cell = BarrierSolver::new(opts);
        for workload in [-0.5, -30.0] {
            let rhs = rhs_for(workload);
            let prob = cell_problem(&rhs);
            let fam_out = fam.find_feasible_cell(&rhs, None).unwrap();
            let cell_out = per_cell.find_feasible_with(&prob, None).unwrap();
            assert_eq!(fam_out.point, cell_out.point, "workload {workload}");
            assert_eq!(fam_out.newton_steps, cell_out.newton_steps);
            assert_eq!(fam_out.certificate, cell_out.certificate);
        }
    }

    #[test]
    fn objective_override_is_respected() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let rhs = rhs_for(-0.5);
        let base = fam.solve_cell(&rhs, CellSeed::None).unwrap().x.clone();
        // Flip the objective: maximize instead of minimize the first var.
        let q0 = vec![-5.0, 1.0, 0.5, 0.25];
        let over = fam.solve_cell_objective(&rhs, &q0, CellSeed::None).unwrap();
        assert!(
            over.x[0] > base[0] + 0.5,
            "override must push x0 up: {} vs {}",
            over.x[0],
            base[0]
        );
        // And it matches the per-cell solver on the same objective.
        let mut prob = cell_problem(&rhs);
        prob.set_linear_objective(q0);
        let cell = BarrierSolver::new(opts).solve(&prob).unwrap();
        assert_eq!(over.x, cell.x, "override must be bit-identical too");
    }

    /// A mixed panel: feasible cells, a linearly infeasible cell, then
    /// more feasible ones — the shape of a sweep column around the
    /// feasibility frontier.
    fn mixed_panel() -> (Vec<Vec<f64>>, Vec<f64>) {
        let cells: Vec<Vec<f64>> = [-0.5, -1.0, -30.0, -2.0, -0.25]
            .iter()
            .map(|&w| {
                let mut rhs = rhs_for(w);
                if w == -30.0 {
                    rhs[8] = 4.0;
                }
                rhs
            })
            .collect();
        let mut panel = Vec::new();
        for rhs in &cells {
            panel.extend_from_slice(rhs);
        }
        (cells, panel)
    }

    /// Mints a verified certificate from the family's infeasible cell.
    fn minted_certificate(family: &Arc<ProblemFamily>, opts: SolverOptions) -> Certificate {
        let mut fam = FamilySolver::new(Arc::clone(family), opts);
        let mut rhs = rhs_for(-30.0);
        rhs[8] = 4.0;
        let sol = fam.solve_cell(&rhs, CellSeed::None).unwrap();
        sol.certificate.clone().expect("infeasible cell must mint")
    }

    #[test]
    fn screen_cells_matches_sequential_scalar_screen() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let cert = minted_certificate(&family, opts);
        // A second, structurally invalid certificate exercises the prep's
        // validity gate (scalar `certifies_view` rejects it per call).
        let bogus = Certificate {
            lambda_lin: vec![1.0],
            lambda_quad: vec![],
            anchor: vec![0.0],
        };
        let certs: Vec<&Certificate> = vec![&bogus, &cert];
        let (cells, panel) = mixed_panel();

        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let mut screen = ColumnScreen::new();
        fam.screen_cells(&panel, cells.len(), &certs, 0, &mut screen);
        assert_eq!(screen.ncells(), cells.len());

        let mut ws = crate::CertScratch::new();
        let mut reducer = RowReducer::default();
        reducer.pin(Arc::clone(family.analysis().expect("family has analysis")));
        for (i, rhs) in cells.iter().enumerate() {
            let scalar_hit = certs
                .iter()
                .position(|c| c.certifies_view(family.view_with(rhs), &mut ws));
            assert_eq!(screen.hit(i), scalar_hit, "cell {i} verdict");
            if scalar_hit.is_none() {
                let scalar_kept = reducer.select_rhs(rhs).map(<[usize]>::to_vec);
                assert_eq!(screen.kept(i), scalar_kept.as_deref(), "cell {i} kept mask");
            }
        }
        // The infeasible cell must actually be hit by the real certificate
        // (index 1 — the bogus one at index 0 never certifies).
        assert_eq!(screen.hit(2), Some(1), "minted cert kills its own cell");

        // Re-screening at the same epoch reuses the prep and reproduces
        // the verdicts bit-identically.
        let hits: Vec<_> = (0..cells.len()).map(|i| screen.hit(i)).collect();
        fam.screen_cells(&panel, cells.len(), &certs, 0, &mut screen);
        assert_eq!(
            hits,
            (0..cells.len()).map(|i| screen.hit(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn screen_cells_without_certificates_still_yields_masks() {
        let opts = SolverOptions::default();
        let family = Arc::new(ProblemFamily::new(prototype(), &opts).unwrap());
        let mut fam = FamilySolver::new(Arc::clone(&family), opts);
        let (cells, panel) = mixed_panel();
        let mut screen = ColumnScreen::new();
        fam.screen_cells(&panel, cells.len(), &[], 0, &mut screen);
        let mut reducer = RowReducer::default();
        reducer.pin(Arc::clone(family.analysis().unwrap()));
        for (i, rhs) in cells.iter().enumerate() {
            assert_eq!(screen.hit(i), None);
            let scalar_kept = reducer.select_rhs(rhs).map(<[usize]>::to_vec);
            assert_eq!(screen.kept(i), scalar_kept.as_deref(), "cell {i}");
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
}
