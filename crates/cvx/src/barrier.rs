use std::sync::{Arc, OnceLock};

use protemp_linalg::{vecops, Matrix, Qr, RowSpan};

use crate::scratch::{DimScratch, SolverScratch};
use crate::{
    CellSeed, CertScratch, Certificate, CvxError, FamilySolver, Problem, ProblemFamily,
    QuadConstraint, Result, Solution, SolverOptions,
};

/// Newton-step budget for the speculative warm-start attempt: enough for a
/// genuine warm start (a few steps to re-center, then the gap check), small
/// enough that a mismatched start fails over to the seeded path cheaply.
const WARM_TRY_BUDGET: usize = 32;

/// Centering-stall detector: a centering is abandoned when this many
/// consecutive Newton steps fail to shrink the decrement by at least 30 %.
/// Near-degenerate active sets (many close-to-redundant rows, e.g. the
/// pairwise gradient constraints at low targets) push the decrement onto an
/// `f64` noise plateau above `tol_inner`, where a centering would otherwise
/// burn its whole `max_newton` budget making no progress — at every outer
/// iteration of the climb. The barrier method tolerates inexact centering,
/// so breaking early trades nothing but the wasted steps.
const PLATEAU_BREAK: usize = 12;
/// A step must beat the best decrement seen this centering by this factor
/// to count as progress for the stall detector.
const PLATEAU_IMPROVE: f64 = 0.7;

/// Loose centering certificate for the final gap check: a run whose last
/// centering stalled (plateau or line search) still counts as converged
/// when its final Newton decrement satisfies `λ²/2 ≤` this bound — by
/// B&V §9.6.3 the iterate is then within ~λ² of the exact center, so the
/// reported duality gap is honest to that accuracy. A run stalling *above*
/// this is reported as `MaxIterations`, not `Optimal`.
const LOOSE_CENTER_TOL: f64 = 1e-2;

/// `true` when `PROTEMP_CVX_DEBUG` is set; read once per process so the
/// Newton loop stays free of environment lookups (which allocate).
fn debug_enabled() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("PROTEMP_CVX_DEBUG").is_some())
}

/// Two-phase log-barrier interior-point solver.
///
/// Phase I minimizes the worst constraint violation to find a strictly
/// feasible point (or certify infeasibility); phase II follows the central
/// path `minimize t·f₀(x) − Σ log(−fᵢ(x))` with damped Newton centering
/// steps, multiplying `t` by `µ` between centerings until the duality-gap
/// bound `m/t` meets the tolerance. Equality constraints are eliminated
/// up-front by a QR nullspace parametrization, so every Newton system is
/// symmetric positive definite and solved by Cholesky.
///
/// This is the algorithm of Boyd & Vandenberghe, *Convex Optimization*,
/// chapter 11 — the paper's reference \[25\].
///
/// # One front-end: a one-cell family
///
/// The solver holds its options and one [`FamilySolver`] over a one-cell
/// [`ProblemFamily`]. Every method hands the problem's linear right-hand
/// sides to that family solver and returns a copy of its answer — the
/// out-of-place API over the in-place one. The family is built from the
/// first problem the solver is handed and reused while later problems
/// differ from it only in those right-hand sides
/// ([`ProblemFamily::matches`]): the packed rows, the row-reduction
/// analysis, the equality QR, the phase-I augmented system and every
/// Newton buffer carry over, so such solves perform no per-iteration heap
/// allocation after the first. Any other change rebuilds the family.
///
/// [`BarrierSolver::solve_warm`] starts phase II directly from a supplied
/// strictly-feasible point, skipping phase I — the Phase-1 table sweep and
/// the MPC-style online controller both re-solve from a neighbouring
/// optimum this way. For *sweeps*, hold a [`ProblemFamily`] and
/// [`FamilySolver`] directly: cells are then handed over as right-hand
/// sides, with no per-cell [`Problem`] and no membership check.
///
/// # Row reduction
///
/// With [`SolverOptions::row_reduction`] on (the default), linear
/// inequality rows that another retained row provably implies over the
/// variable box are pruned before phase I (see the `reduce` module docs
/// for the certificate). The pruned system has exactly the same feasible
/// set, so feasibility verdicts are identical by construction and optima
/// agree within the solver tolerance; what changes is `m` — the duality
/// gap `m/t`, the Newton assembly cost and, decisively, the
/// near-degenerate active sets that redundant row families create. The
/// full packed row matrix is kept and the KKT assembly runs over the
/// surviving subset through the row-view linalg kernels, so no reduced
/// copy is materialized. Systems with equality constraints skip the pass
/// (their projected rows lose the box structure).
///
/// # Infeasibility certificates
///
/// When phase I fails, the solver extracts a Farkas-style [`Certificate`]
/// from the final centered iterate and attaches it to the returned
/// [`Solution`] (after verifying it against the problem). Sweeps feed these
/// to [`Certificate::certifies`] to reject neighbouring design points with
/// one matvec instead of a fresh phase-I run. Phase I itself stops as soon
/// as its duality bound proves no sufficiently feasible point exists,
/// instead of polishing an infeasibility verdict it already knows — and
/// when that early verdict leaves multipliers too rough to verify, a
/// bounded *polish* continuation ([`SolverOptions::polish_budget`]) climbs
/// until the Farkas check passes, so thin-frontier cells still mint a
/// transferable certificate.
///
/// # Example
///
/// ```
/// use protemp_cvx::{BarrierSolver, Problem, SolverOptions};
///
/// // minimize -x - y  s.t. x + y <= 1, 0 <= x, 0 <= y  (optimum -1)
/// let mut p = Problem::new(2);
/// p.set_linear_objective(vec![-1.0, -1.0]);
/// p.add_linear_le(vec![1.0, 1.0], 1.0);
/// p.add_box(0, 0.0, f64::INFINITY);
/// p.add_box(1, 0.0, f64::INFINITY);
/// let sol = BarrierSolver::new(SolverOptions::default()).solve(&p).unwrap();
/// assert!((sol.objective + 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BarrierSolver {
    opts: SolverOptions,
    /// Solver over the one-cell family of the most recent problem; `None`
    /// until the first solve.
    cell: Option<FamilySolver>,
}

/// A tiny free-list of `Vec<f64>` buffers so the solve flow can move
/// vectors through the barrier runs (which consume and return them) without
/// per-solve heap traffic: after a few solves of one shape every pooled
/// vector has enough capacity and take/put never allocate.
#[derive(Debug, Clone, Default)]
pub(crate) struct VecPool {
    spare: Vec<Vec<f64>>,
}

impl VecPool {
    /// A zero-filled buffer of length `len`.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f64> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// A buffer holding a copy of `src`.
    pub(crate) fn take_from(&mut self, src: &[f64]) -> Vec<f64> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v.extend_from_slice(src);
        v
    }

    /// Returns a buffer to the pool (capacity retained).
    pub(crate) fn put(&mut self, v: Vec<f64>) {
        self.spare.push(v);
    }
}

/// Feasibility predicate for phase I's early exit (checked every step).
type EarlyExit<'a> = &'a dyn Fn(&[f64]) -> bool;
/// Infeasibility predicate `(x, gap, centered) -> stop` checked after each
/// outer iteration; `gap = m/t` is a valid duality bound only when
/// `centered` is true, but certificate-based checks are sound anywhere.
type BoundExit<'a> = &'a dyn Fn(&[f64], f64, bool) -> bool;

/// Loop controls for one barrier run.
#[derive(Default, Clone, Copy)]
struct RunCtrl<'a> {
    early_exit: Option<EarlyExit<'a>>,
    bound_exit: Option<BoundExit<'a>>,
    newton_budget: Option<usize>,
}

/// Borrowed view of an inequality-only problem in the (possibly reduced)
/// variable space — the type the whole Newton engine runs on.
///
/// Linear rows are packed into one row-major matrix so the Newton assembly
/// can run matvecs and the blocked `AᵀDA` update over contiguous memory.
/// After the row-reduction pass `rows` lists the surviving base rows and
/// `b` holds their right-hand sides: the KKT assembly runs that subset
/// through the row-view linalg kernels instead of materializing a
/// reduced copy per solve. [`crate::FamilySolver`] builds one of these per
/// cell over its family's storage and the cell's right-hand sides.
///
/// Every per-row pass of a Newton step — slacks, `Aᵀw`, the `AᵀDA`
/// update, the line search's barrier values and [`Dense::max_step`] —
/// reads a row only over its nonzero span, recorded once per family in
/// `spans`. That is exact for finite operands (see [`RowSpan`]): the
/// coefficients and right-hand sides are checked finite before a solve
/// starts, and so are seeds.
#[derive(Clone, Copy)]
pub(crate) struct Dense<'a> {
    pub(crate) n: usize,
    pub(crate) p0: Option<&'a Matrix>,
    pub(crate) q0: &'a [f64],
    /// Packed linear inequality rows (`m_full × n`).
    pub(crate) a: &'a Matrix,
    /// Nonzero span of every row of `a` (`m_full` entries).
    pub(crate) spans: &'a [RowSpan],
    /// Linear right-hand sides, aligned with the *active* rows.
    pub(crate) b: &'a [f64],
    /// Active base-row indices into `a` when a reduction pruned rows
    /// (ascending); `None` means every row of `a` is active.
    pub(crate) rows: Option<&'a [usize]>,
    pub(crate) quad: &'a [QuadConstraint],
}

/// Owned phase-II system storage in the (possibly reduced) variable space,
/// without right-hand sides (those are per cell); [`project_problem`]
/// builds one from a family's prototype.
#[derive(Debug, Clone)]
pub(crate) struct ProjStorage {
    pub(crate) n: usize,
    pub(crate) p0: Option<Matrix>,
    pub(crate) q0: Vec<f64>,
    pub(crate) a: Matrix,
    /// `a.row_spans()`, recorded once.
    pub(crate) spans: Vec<RowSpan>,
    pub(crate) quad: Vec<QuadConstraint>,
}

impl ProjStorage {
    /// The phase-II view over this storage with per-cell `b` and row
    /// subset.
    pub(crate) fn view<'a>(&'a self, b: &'a [f64], rows: Option<&'a [usize]>) -> Dense<'a> {
        Dense {
            n: self.n,
            p0: self.p0.as_ref(),
            q0: &self.q0,
            a: &self.a,
            spans: &self.spans,
            b,
            rows,
            quad: &self.quad,
        }
    }
}

/// Owned phase-I (augmented) system storage: rows `[aᵢ, −1]` over the
/// *full* packed row matrix — the per-cell active subset indexes into it —
/// with their nonzero spans (each ends at the `−1` column), objective
/// `minimize s`, and the augmented quadratic constraints. A
/// [`crate::ProblemFamily`] builds it once, for every cell.
#[derive(Debug, Clone)]
pub(crate) struct AugStorage {
    pub(crate) a: Matrix,
    pub(crate) spans: Vec<RowSpan>,
    pub(crate) q0: Vec<f64>,
    pub(crate) quad: Vec<QuadConstraint>,
}

impl AugStorage {
    /// Builds the augmented system of a phase-II storage.
    pub(crate) fn new(proj: &ProjStorage) -> AugStorage {
        let nz = proj.n;
        let n_aug = nz + 1;
        let m = proj.a.rows();
        let mut a = Matrix::zeros(m, n_aug);
        for i in 0..m {
            let row = a.row_mut(i);
            row[..nz].copy_from_slice(proj.a.row(i));
            row[nz] = -1.0;
        }
        let mut q0 = vec![0.0; n_aug];
        q0[nz] = 1.0; // minimize s
        let quad = proj
            .quad
            .iter()
            .map(|q| {
                let mut p = Matrix::zeros(n_aug, n_aug);
                for r in 0..nz {
                    for c in 0..nz {
                        p[(r, c)] = q.p[(r, c)];
                    }
                }
                let mut qv = q.q.clone();
                qv.push(-1.0);
                QuadConstraint { p, q: qv, r: q.r }
            })
            .collect();
        let spans = a.row_spans();
        AugStorage { a, spans, q0, quad }
    }

    /// The phase-I view sharing the phase-II view's `b` and row subset.
    pub(crate) fn view<'a>(&'a self, dense: &Dense<'a>) -> Dense<'a> {
        Dense {
            n: dense.n + 1,
            p0: None,
            q0: &self.q0,
            a: &self.a,
            spans: &self.spans,
            b: dense.b,
            rows: dense.rows,
            quad: &self.quad,
        }
    }
}

impl Dense<'_> {
    fn num_lin(&self) -> usize {
        self.b.len()
    }

    /// The `i`-th *active* linear row's coefficients.
    fn lin_row(&self, i: usize) -> &[f64] {
        match self.rows {
            Some(r) => self.a.row(r[i]),
            None => self.a.row(i),
        }
    }

    /// The `i`-th *active* linear row's nonzero span and its coefficients
    /// over that span.
    fn lin_row_span(&self, i: usize) -> (std::ops::Range<usize>, &[f64]) {
        let r = self.rows.map_or(i, |rows| rows[i]);
        let cols = self.spans[r].range();
        (cols.clone(), &self.a.row(r)[cols])
    }

    /// Active slacks `s = b − Ax` written into `slack` (length
    /// [`Dense::num_lin`]).
    fn slacks_into(&self, x: &[f64], slack: &mut [f64]) {
        self.a.matvec_rows_into(self.spans, self.rows, x, slack);
        for (sl, &bi) in slack.iter_mut().zip(self.b) {
            *sl = bi - *sl;
        }
    }

    /// `y = Aᵀw` over the active rows (`w` aligned with them).
    fn lin_combine_into(&self, w: &[f64], y: &mut [f64]) {
        self.a.matvec_t_rows_into(self.spans, self.rows, w, y);
    }

    fn num_ineq(&self) -> usize {
        self.num_lin() + self.quad.len()
    }

    /// Worst constraint value (≤ 0 ⇒ feasible).
    fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for i in 0..self.num_lin() {
            worst = worst.max(vecops::dot(self.lin_row(i), x) - self.b[i]);
        }
        for q in self.quad {
            worst = worst.max(q.eval(x));
        }
        if self.num_ineq() == 0 {
            f64::NEG_INFINITY
        } else {
            worst
        }
    }

    fn objective(&self, x: &[f64]) -> f64 {
        let quad = match self.p0 {
            Some(p) => {
                let mut acc = 0.0;
                for (r, &xr) in x.iter().enumerate() {
                    acc += xr * vecops::dot(p.row(r), x);
                }
                0.5 * acc
            }
            None => 0.0,
        };
        quad + vecops::dot(self.q0, x)
    }

    /// Barrier function `t·f₀(x) − Σ log(sᵢ)`; `None` if any slack ≤ 0.
    fn barrier_value(&self, t: f64, x: &[f64]) -> Option<f64> {
        let slacks = (0..self.num_lin()).map(|i| {
            let (cols, row) = self.lin_row_span(i);
            self.b[i] - vecops::dot(row, &x[cols])
        });
        self.barrier_with(t, x, slacks)
    }

    /// [`Dense::barrier_value`] at the point whose linear slacks
    /// [`Dense::grad_hess_into`] just wrote into `slack`, without
    /// recomputing them.
    ///
    /// The same bits as `barrier_value(t, x)`. The two slack sums differ
    /// only in the sign of an all-zero sum: `vecops::dot` folds from
    /// `−0.0`, [`Matrix::matvec_rows_into`] from `+0.0`. `bᵢ − ·` maps both
    /// signs to the same slack unless `bᵢ = ±0.0`, and then both slacks are
    /// `≤ 0`, so both paths return `None`.
    fn barrier_value_at_slacks(&self, t: f64, x: &[f64], slack: &[f64]) -> Option<f64> {
        self.barrier_with(t, x, slack.iter().copied())
    }

    /// `t·f₀(x) − Σ log(sᵢ)` over the linear slacks `slacks` (in row
    /// order, pulled only while they stay positive) and the quadratic
    /// ones.
    fn barrier_with(&self, t: f64, x: &[f64], slacks: impl Iterator<Item = f64>) -> Option<f64> {
        let mut v = t * self.objective(x);
        for s in slacks {
            if s <= 0.0 {
                return None;
            }
            v -= s.ln();
        }
        for q in self.quad {
            let s = -q.eval(x);
            if s <= 0.0 {
                return None;
            }
            v -= s.ln();
        }
        v.is_finite().then_some(v)
    }

    /// The largest step fraction `α ∈ (0, 1]` keeping `x + α·dx` strictly
    /// inside every constraint (the interior-point fraction-to-boundary
    /// rule, backed off by 1 %). Starting the backtracking line search here
    /// instead of at `α = 1` matters when `x` hugs the boundary — a warm
    /// start from a neighbouring optimum — where a full Newton step lands
    /// far outside the region and Armijo would shrink `α` to nothing.
    /// `slack` holds the linear slacks at `x` as [`Dense::grad_hess_into`]
    /// wrote them; at a strictly feasible `x` each is positive and equals
    /// `bᵢ − aᵢ·x` bit for bit. `tmp` is clobbered (a length-`n` buffer).
    /// Allocation-free.
    fn max_step(&self, x: &[f64], dx: &[f64], slack: &[f64], tmp: &mut [f64]) -> f64 {
        let mut alpha = 1.0_f64;
        for (i, &sl) in slack.iter().enumerate() {
            let (cols, row) = self.lin_row_span(i);
            let deriv = vecops::dot(row, &dx[cols]);
            if deriv > 0.0 {
                alpha = alpha.min(0.99 * sl / deriv);
            }
        }
        for q in self.quad {
            // First-order boundary estimate along dx; the backtracking
            // loop still guards the (convex) second-order term.
            q.gradient_into(x, tmp);
            let deriv = vecops::dot(tmp, dx);
            if deriv > 0.0 {
                let slack = -q.eval(x);
                alpha = alpha.min(0.99 * slack / deriv);
            }
        }
        alpha.max(1e-14)
    }

    /// Pure barrier gradient `∇φ` (no objective term) at a strictly
    /// feasible `x`, written into `s.grad` (`s.qgrad` and the row buffers
    /// are clobbered). Unlike [`Dense::grad_hess_into`] this skips the
    /// Hessian assembly — the warm-start `t₀` estimate only needs the
    /// gradient.
    fn barrier_gradient_into(&self, x: &[f64], s: &mut DimScratch) {
        let m = self.num_lin();
        s.ensure_rows(m);
        let DimScratch {
            grad,
            qgrad,
            slack,
            w,
            ..
        } = s;
        grad.fill(0.0);
        if m > 0 {
            let slack = &mut slack[..m];
            let w = &mut w[..m];
            self.slacks_into(x, slack);
            for (wi, &sl) in w.iter_mut().zip(slack.iter()) {
                *wi = 1.0 / sl;
            }
            self.lin_combine_into(w, qgrad);
            vecops::axpy(1.0, qgrad, grad);
        }
        for q in self.quad {
            let slack = -q.eval(x);
            q.gradient_into(x, qgrad);
            vecops::axpy(1.0 / slack, qgrad, grad);
        }
    }

    /// Gradient and *lower-triangle* Hessian of the barrier function at a
    /// strictly feasible `x`, written into the scratch buffers (`s.grad`,
    /// `s.hess`; `s.qgrad` and the row buffers are clobbered). The strict
    /// upper triangle of `s.hess` is left unspecified — everything
    /// downstream (Jacobi scaling, Cholesky) reads the lower triangle only.
    ///
    /// The linear-constraint contribution `Aᵀ D A` (with `Dᵢᵢ = 1/sᵢ²`) is
    /// one blocked syrk-style rank-k update over the packed rows instead of
    /// `m` full-matrix rank-1 updates; this is the hot kernel of the whole
    /// sweep. Allocation-free after the row buffers have grown.
    fn grad_hess_into(&self, t: f64, x: &[f64], s: &mut DimScratch) {
        let m = self.num_lin();
        s.ensure_rows(m);
        let DimScratch {
            grad,
            hess,
            qgrad,
            slack,
            w,
            ..
        } = s;
        grad.fill(0.0);
        hess.set_zero();
        // Objective part.
        if let Some(p) = self.p0 {
            p.matvec_into(x, qgrad);
            vecops::axpy(t, qgrad, grad);
            hess.axpy_lower(t, p).expect("shape");
        }
        vecops::axpy(t, self.q0, grad);
        // Linear constraints: slacks s = b − Ax, then grad += Aᵀ(1/s) and
        // hess += Aᵀ diag(1/s²) A in one blocked pass.
        if m > 0 {
            let slack = &mut slack[..m];
            let w = &mut w[..m];
            self.slacks_into(x, slack);
            for (wi, &sl) in w.iter_mut().zip(slack.iter()) {
                *wi = 1.0 / sl;
            }
            self.lin_combine_into(w, qgrad);
            vecops::axpy(1.0, qgrad, grad);
            for wi in w.iter_mut() {
                *wi *= *wi;
            }
            hess.syrk_lower_update_rows(self.a, self.spans, self.rows, w);
        }
        // Quadratic constraints.
        for q in self.quad {
            let sl = -q.eval(x);
            let inv = 1.0 / sl;
            q.gradient_into(x, qgrad);
            vecops::axpy(inv, qgrad, grad);
            hess.rank1_update_lower(inv * inv, qgrad);
            hess.axpy_lower(inv, &q.p).expect("shape");
        }
    }
}

/// Outcome of the inner barrier loop.
pub(crate) struct BarrierRun {
    pub(crate) x: Vec<f64>,
    pub(crate) outer: usize,
    pub(crate) newton: usize,
    pub(crate) gap: f64,
    /// Barrier parameter at termination (certificate extraction needs it).
    pub(crate) t: f64,
    pub(crate) converged: bool,
    /// `true` when the final centering ended by driving the Newton
    /// decrement under `tol_inner` (so the duality-gap bound `m/t` is
    /// trustworthy), `false` when it ended in a line-search stall. A stalled
    /// warm run falls back to the cold path instead of being certified.
    pub(crate) centered: bool,
}

/// Raw certificate pieces in the reduced variable space, as extracted from
/// a failed phase-I run (multipliers per original constraint, anchor `z`).
pub(crate) struct CertParts {
    pub(crate) lambda_lin: Vec<f64>,
    pub(crate) lambda_quad: Vec<f64>,
    pub(crate) anchor_z: Vec<f64>,
}

/// Outcome of one phase-I run.
pub(crate) struct Phase1Outcome {
    /// A strictly feasible reduced point, or `None` when infeasible.
    pub(crate) z: Option<Vec<f64>>,
    pub(crate) outer: usize,
    pub(crate) newton: usize,
    /// Raw certificate material when the run proved infeasibility,
    /// with multipliers already scattered back to the full row space.
    pub(crate) cert: Option<CertParts>,
    /// `true` when the certificate came out of the bounded polish
    /// continuation (the verdict itself arrived earlier, via the centered
    /// duality-gap bound).
    pub(crate) polished: bool,
    /// `true` when the run was cut off by the caller-supplied Newton
    /// budget before either sound exit fired: the feasibility question is
    /// *undecided*, not proven infeasible (`z` is `None`, `cert` is
    /// `None`). Never set on the unbudgeted path.
    pub(crate) budgeted: bool,
}

/// Result of a feasibility-only query
/// ([`BarrierSolver::find_feasible_with`],
/// [`crate::FamilySolver::find_feasible_cell`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibleOutcome {
    /// A strictly feasible point in the original variable space, or `None`
    /// when the problem is infeasible.
    pub point: Option<Vec<f64>>,
    /// Verified infeasibility certificate, when the problem is infeasible
    /// and extraction succeeded.
    pub certificate: Option<Certificate>,
    /// Newton steps the query consumed (0 when the seed or origin was
    /// already strictly feasible). Includes any polish continuation.
    pub newton_steps: usize,
    /// Linear rows the reduction pass pruned before the solve.
    pub rows_pruned: usize,
    /// `true` when the certificate was minted by the bounded polish
    /// continuation after a duality-gap-bound verdict.
    pub polished: bool,
}

/// How the shared solve flow finished.
pub(crate) enum FlowVerdict {
    /// The feasible path finished with this barrier run (reduced space).
    Feasible(BarrierRun),
    /// Phase I certified infeasibility.
    Infeasible {
        cert: Option<CertParts>,
        polished: bool,
    },
    /// The deterministic tick budget ([`SolverOptions::tick_budget`]) ran
    /// out before a certified verdict. `Some(run)` carries the truncated —
    /// still strictly feasible — barrier iterate (reduced space); `None`
    /// means the budget died inside phase I with the feasibility question
    /// undecided.
    Budgeted(Option<BarrierRun>),
}

/// The shared flow's result: verdict plus the iteration accounting.
pub(crate) struct FlowOutcome {
    pub(crate) verdict: FlowVerdict,
    pub(crate) outer: usize,
    pub(crate) newton: usize,
    pub(crate) phase1_steps: usize,
}

// ---------------------------------------------------------------------------
// The engine: free functions over `Dense` views of a family's storage and
// one cell's right-hand sides. `FamilySolver` is their only caller.
// ---------------------------------------------------------------------------

/// The full two-phase solve flow over prepared storage: warm fast path,
/// seeded phase II, phase-I fallback with warm resume, final cold climb.
///
/// `x0` is the supplied start already projected into the reduced space (a
/// warm point when `estimate_t`, a heuristic seed otherwise); `reduced`
/// marks an equality-eliminated system (skips the box-grounded Farkas
/// exits, whose harvesting needs original-space single-entry rows).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_flow(
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    pool: &mut VecPool,
    proj: &ProjStorage,
    b: &[f64],
    rows: Option<&[usize]>,
    aug: &AugStorage,
    reduced: bool,
    x0: Option<&[f64]>,
    estimate_t: bool,
) -> Result<FlowOutcome> {
    let dense = proj.view(b, rows);
    let nz = dense.n;

    let mut outer_total = 0;
    let mut newton_total = 0;
    let mut phase1_steps = 0;

    // Deterministic tick budget: remaining Newton steps across the whole
    // flow (phase I + every centering). `None` = unbudgeted (the default
    // path, bit-identical to the pre-budget flow: every `RunCtrl` below
    // then carries exactly the caps it always carried). `run_barrier`
    // returns from its budget check before any exit can fire, so a run
    // that spent its entire effective budget is *exactly* a truncated run
    // — `run.newton >= remaining` is the discriminator throughout.
    let mut remaining: Option<usize> = (opts.tick_budget > 0).then_some(opts.tick_budget);
    fn capped(base: Option<usize>, remaining: Option<usize>) -> Option<usize> {
        match (base, remaining) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    // Warm fast path: a strictly interior supplied point enters phase II
    // directly — the log barrier only needs positive slacks, and a
    // neighbouring optimum's active constraints carry slacks far below
    // `phase1_margin` (they shrink like the reciprocal of the final
    // barrier parameter) — at the barrier parameter that best matches
    // the point (Boyd & Vandenberghe §11.3.1, t₀ = argmin‖t∇f₀ + ∇φ‖;
    // starting a near-optimal point at t₀ = 1 would drag it back toward
    // the analytic center and waste the whole warm start). If the
    // centering stalls — the supplied point fit a *different* problem —
    // fall through to the cold path rather than certify a stale point.
    let mut phase1_seed: Option<&[f64]> = None;
    if let Some(z0) = x0 {
        if dense.num_ineq() > 0 && dense.max_violation(z0) < 0.0 {
            if estimate_t {
                // The attempt gets a small Newton budget: a genuine
                // warm start (neighbouring optimum, matching barrier
                // parameter) re-centers in a handful of steps, while a
                // mismatched one stalls against the boundary — detect
                // that cheaply and fall back instead of grinding.
                let t_start = estimate_warm_t0(opts, scratch, &dense, z0);
                let ctrl = RunCtrl {
                    newton_budget: capped(Some(WARM_TRY_BUDGET), remaining),
                    ..RunCtrl::default()
                };
                let start = pool.take_from(z0);
                let run = run_barrier(opts, scratch, &dense, start, t_start, ctrl)?;
                outer_total += run.outer;
                newton_total += run.newton;
                if run.centered {
                    return Ok(FlowOutcome {
                        verdict: FlowVerdict::Feasible(run),
                        outer: outer_total,
                        newton: newton_total,
                        phase1_steps,
                    });
                }
                if remaining.is_some_and(|r| run.newton >= r) {
                    // The tick budget (not the warm-try cap) was binding:
                    // hand back the truncated iterate, which is still
                    // strictly feasible (barrier iterates never leave the
                    // interior).
                    return Ok(FlowOutcome {
                        verdict: FlowVerdict::Budgeted(Some(run)),
                        outer: outer_total,
                        newton: newton_total,
                        phase1_steps,
                    });
                }
                if let Some(r) = remaining.as_mut() {
                    *r = r.saturating_sub(run.newton);
                }
                pool.put(run.x);
                // Stalled: the point hugs a corner where phase II at
                // t₀ would crawl for hundreds of steps. Hand it to the
                // cold path below — its margin rule sends slack-< margin
                // points through phase I, which re-centers them off the
                // boundary far more cheaply than barrier descent can.
                phase1_seed = Some(z0);
            } else {
                // Seed mode: phase II from the point at the configured
                // t₀ (seeds are interior by construction).
                let start = pool.take_from(z0);
                let ctrl = RunCtrl {
                    newton_budget: remaining,
                    ..RunCtrl::default()
                };
                let run = run_barrier(opts, scratch, &dense, start, opts.t0, ctrl)?;
                outer_total += run.outer;
                newton_total += run.newton;
                let verdict = if remaining.is_some_and(|r| run.newton >= r) {
                    FlowVerdict::Budgeted(Some(run))
                } else {
                    FlowVerdict::Feasible(run)
                };
                return Ok(FlowOutcome {
                    verdict,
                    outer: outer_total,
                    newton: newton_total,
                    phase1_steps,
                });
            }
        } else {
            // Infeasible for the new problem: still a better phase-I
            // seed than the origin.
            phase1_seed = Some(z0);
        }
    }

    // Cold path (and the fallback for a stalled warm run).
    let warm_origin = phase1_seed.is_some() && estimate_t;
    let mut z0 = match phase1_seed {
        Some(seed) => pool.take_from(seed),
        None => pool.take(nz),
    };
    if dense.num_ineq() > 0 && dense.max_violation(&z0) >= -opts.phase1_margin {
        if remaining == Some(0) {
            // Not a single Newton step left to decide feasibility: the
            // verdict is undecided, not infeasible.
            pool.put(z0);
            return Ok(FlowOutcome {
                verdict: FlowVerdict::Budgeted(None),
                outer: outer_total,
                newton: newton_total,
                phase1_steps,
            });
        }
        let aug_view = aug.view(&dense);
        let p1 = phase1(
            opts, scratch, pool, &dense, &aug_view, &z0, reduced, remaining,
        )?;
        outer_total += p1.outer;
        newton_total += p1.newton;
        phase1_steps += p1.newton;
        if let Some(r) = remaining.as_mut() {
            *r = r.saturating_sub(p1.newton);
        }
        if p1.budgeted {
            pool.put(z0);
            return Ok(FlowOutcome {
                verdict: FlowVerdict::Budgeted(None),
                outer: outer_total,
                newton: newton_total,
                phase1_steps,
            });
        }
        match p1.z {
            Some(z_feas) => {
                pool.put(z0);
                z0 = z_feas;
            }
            None => {
                pool.put(z0);
                return Ok(FlowOutcome {
                    verdict: FlowVerdict::Infeasible {
                        cert: p1.cert,
                        polished: p1.polished,
                    },
                    outer: outer_total,
                    newton: newton_total,
                    phase1_steps,
                });
            }
        }
        // Warm resume: when the supplied point was a neighbouring
        // optimum (warm semantics) that phase I just nudged back into
        // the strict interior — it stalled against the boundary, or
        // violated the new constraints slightly — it is still
        // essentially optimal, so re-enter the central path at the
        // matching barrier parameter instead of re-climbing from t₀.
        // Without this, a degenerate active set (e.g. the gradient
        // rows at low targets, whose optimum has machine-epsilon
        // slack) costs a full cold climb on every link of a warm
        // chain. The attempt is budgeted exactly like the direct warm
        // fast path and falls back to the cold climb if it stalls.
        if warm_origin && remaining != Some(0) {
            let t_start = estimate_warm_t0(opts, scratch, &dense, &z0);
            let ctrl = RunCtrl {
                newton_budget: capped(Some(WARM_TRY_BUDGET), remaining),
                ..RunCtrl::default()
            };
            let start = pool.take_from(&z0);
            let run = run_barrier(opts, scratch, &dense, start, t_start, ctrl)?;
            outer_total += run.outer;
            newton_total += run.newton;
            if run.converged && run.centered {
                pool.put(z0);
                return Ok(FlowOutcome {
                    verdict: FlowVerdict::Feasible(run),
                    outer: outer_total,
                    newton: newton_total,
                    phase1_steps,
                });
            }
            if remaining.is_some_and(|r| run.newton >= r) {
                pool.put(z0);
                return Ok(FlowOutcome {
                    verdict: FlowVerdict::Budgeted(Some(run)),
                    outer: outer_total,
                    newton: newton_total,
                    phase1_steps,
                });
            }
            if let Some(r) = remaining.as_mut() {
                *r = r.saturating_sub(run.newton);
            }
            pool.put(run.x);
        }
    }
    if remaining == Some(0) {
        // Phase I spent the whole budget certifying feasibility: return
        // its strictly feasible point as the truncated answer instead of
        // spending even one unbudgeted centering step.
        let run = BarrierRun {
            x: z0,
            outer: 0,
            newton: 0,
            gap: f64::INFINITY,
            t: opts.t0,
            converged: false,
            centered: false,
        };
        return Ok(FlowOutcome {
            verdict: FlowVerdict::Budgeted(Some(run)),
            outer: outer_total,
            newton: newton_total,
            phase1_steps,
        });
    }
    let ctrl = RunCtrl {
        newton_budget: remaining,
        ..RunCtrl::default()
    };
    let run = run_barrier(opts, scratch, &dense, z0, opts.t0, ctrl)?;
    outer_total += run.outer;
    newton_total += run.newton;
    let verdict = if remaining.is_some_and(|r| run.newton >= r) {
        FlowVerdict::Budgeted(Some(run))
    } else {
        FlowVerdict::Feasible(run)
    };
    Ok(FlowOutcome {
        verdict,
        outer: outer_total,
        newton: newton_total,
        phase1_steps,
    })
}

/// The feasibility-only flow (phase I, no optimization): instant accept of
/// a sufficiently interior seed, else one phase-I run — what
/// [`crate::FamilySolver::find_feasible_cell`] and the frontier probes run.
pub(crate) enum FeasFlow {
    /// The supplied seed (or origin) is already strictly feasible beyond
    /// the phase-I margin; no Newton steps were spent.
    Instant,
    Found(Phase1Outcome),
    Infeasible(Phase1Outcome),
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn feasible_flow(
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    pool: &mut VecPool,
    proj: &ProjStorage,
    b: &[f64],
    rows: Option<&[usize]>,
    aug: &AugStorage,
    reduced: bool,
    z0: &[f64],
) -> Result<FeasFlow> {
    let dense = proj.view(b, rows);
    if dense.num_ineq() == 0 || dense.max_violation(z0) < -opts.phase1_margin {
        return Ok(FeasFlow::Instant);
    }
    let aug_view = aug.view(&dense);
    // Feasibility probes stay unbudgeted: frontier bisections need a real
    // verdict, and their callers never run under a tick deadline.
    let p1 = phase1(opts, scratch, pool, &dense, &aug_view, z0, reduced, None)?;
    if p1.z.is_some() {
        Ok(FeasFlow::Found(p1))
    } else {
        Ok(FeasFlow::Infeasible(p1))
    }
}

/// The warm-start barrier parameter `t₀ = −⟨∇f₀, ∇φ⟩ / ‖∇f₀‖²` at a
/// strictly feasible `x`: the `t` whose centering condition
/// `t∇f₀ + ∇φ = 0` the supplied point comes closest to satisfying. At a
/// near-optimal warm start this recovers the `t` of the neighbouring
/// solve's final centering, so phase II resumes where it left off
/// instead of re-climbing the central path from `t₀`.
fn estimate_warm_t0(
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    dense: &Dense<'_>,
    x: &[f64],
) -> f64 {
    let s = scratch.for_dim(dense.n);
    // s.grad = ∇φ (pure barrier gradient, no Hessian assembly).
    dense.barrier_gradient_into(x, s);
    // s.bs = ∇f₀.
    if let Some(p) = dense.p0 {
        p.matvec_into(x, &mut s.bs);
        vecops::axpy(1.0, dense.q0, &mut s.bs);
    } else {
        s.bs.copy_from_slice(dense.q0);
    }
    let gg = vecops::dot(&s.bs, &s.bs);
    if !gg.is_finite() || gg <= 1e-300 {
        return opts.t0;
    }
    let t = -vecops::dot(&s.bs, &s.grad) / gg;
    if t.is_finite() {
        // The upper clamp bound must not fall below t0 (clamp panics on
        // an inverted range, and validate() allows arbitrarily large t0).
        t.clamp(opts.t0, opts.t0.max(1e12))
    } else {
        opts.t0
    }
}

/// Phase I: minimize `s` subject to `fᵢ(z) ≤ s`. Returns a strictly
/// feasible `z` (or `None`), the iteration counts — which cover the
/// failed case too — and, on failure, the raw Farkas certificate
/// material from the final centered iterate.
///
/// Two early exits bound the work: the run stops the moment any iterate
/// certifies feasibility (`s < −margin`), and stops with an
/// infeasibility verdict as soon as the duality bound proves
/// `s* > −margin` (`s_cur − 2·gap > −margin`, with a factor-2 cushion
/// for the inexact centering) — deeply infeasible cells no longer
/// polish a verdict to tolerance that was already decided.
/// `reduced` marks an equality-eliminated problem: its projected rows
/// are dense, so the box-harvesting Farkas exit can never fire and is
/// skipped (the centered duality-gap exit still applies).
///
/// `budget` caps the total Newton steps (climb + polish together). A run
/// cut off by the budget before either sound exit fires is reported with
/// `budgeted: true` — the verdict is *undecided*, never misreported as
/// certified infeasible. `None` (the default path) is exactly the
/// historical unbudgeted behavior.
#[allow(clippy::too_many_arguments)]
fn phase1(
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    pool: &mut VecPool,
    dense: &Dense<'_>,
    aug: &Dense<'_>,
    z0: &[f64],
    reduced: bool,
    budget: Option<usize>,
) -> Result<Phase1Outcome> {
    let nz = dense.n;

    let viol = dense.max_violation(z0);
    let mut start = pool.take_from(z0);
    let s0 = viol + f64::max(1.0, viol.abs() * 0.1);
    start.push(s0);

    // Start the barrier parameter high enough that the first centering
    // weights the objective comparably to the (many) barrier terms;
    // otherwise the analytic center throws `s` far upward and the
    // solver wastes centerings crawling back down.
    let t0 = (aug.num_ineq() as f64 / (s0.abs() + 1.0)).max(opts.t0);
    let margin = opts.phase1_margin;
    // Feasibility is decided by `s* < -margin`, so phase I must drive
    // its duality gap below the margin — a frontier point with
    // `s* ∈ (-tol, -margin)` would otherwise be misreported as
    // infeasible when the loose sweep tolerance stops the climb early.
    // The early exits fire the moment either verdict is certain, so the
    // tighter gap only costs outers on razor-thin frontier cells.
    let mut p1_opts = *opts;
    p1_opts.tol = opts.tol.min(margin.max(1e-12));
    let feasible_exit = |pt: &[f64]| pt[nz] < -margin;
    // Infeasibility is decided two ways, both sound: at a centered
    // point the duality bound `s* ≥ s − 2·gap` (factor-2 cushion for
    // the inexact centering) proves `s* > −margin`; at *any* iterate
    // the Farkas candidate `λᵢ = 1/(s − fᵢ(z))` may already certify
    // through the box-grounded bound — which is what rescues the runs
    // whose centerings stall near the end of the climb.
    // Borrow the solver's warm certificate workspace for the duration
    // of the run (a RefCell because the exit closure only sees `&self`
    // borrows); returned below so repeated phase-I runs stay
    // allocation-free once the buffers have grown.
    let cert_ws = std::cell::RefCell::new(std::mem::take(scratch.cert_ws()));
    let infeasible_exit = |pt: &[f64], gap: f64, centered: bool| {
        (centered && pt[nz] - 2.0 * gap > -margin)
            || (!reduced && phase1_infeas_check(dense, pt, &mut cert_ws.borrow_mut()))
    };
    let ctrl = RunCtrl {
        early_exit: Some(&feasible_exit),
        bound_exit: Some(&infeasible_exit),
        newton_budget: budget,
    };
    let run = run_barrier(&p1_opts, scratch, aug, start, t0, ctrl);
    let outcome = match run {
        Err(e) => Err(e),
        Ok(run) if run.x[nz] < -margin => {
            // Sound even when the run was budget-truncated: the final
            // iterate itself certifies strict feasibility.
            let z = pool.take_from(&run.x[..nz]);
            let out = Phase1Outcome {
                z: Some(z),
                outer: run.outer,
                newton: run.newton,
                cert: None,
                polished: false,
                budgeted: false,
            };
            pool.put(run.x);
            Ok(out)
        }
        Ok(run) if budget.is_some_and(|b| run.newton >= b) => {
            // The budget check returns before any exit can fire, so a
            // run that spent it all ended by truncation: neither the
            // feasible nor the infeasible proof materialized. Reporting
            // this as `Infeasible` would be an unsound verdict — hand
            // back "undecided" and let the caller degrade.
            let out = Phase1Outcome {
                z: None,
                outer: run.outer,
                newton: run.newton,
                cert: None,
                polished: false,
                budgeted: true,
            };
            pool.put(run.x);
            Ok(out)
        }
        Ok(run) => {
            // Infeasible. The verdict is final (both exits are sound
            // proofs of `s* > −margin`), but a verdict that arrived
            // through the centered duality-gap bound leaves multipliers
            // that often fail certificate verification — the neighbours
            // then re-pay a full phase I. The *polish* continuation
            // climbs a little further with the Farkas check as its only
            // exit: as `t` grows the centered multipliers concentrate
            // on the genuinely conflicting rows and the box-grounded
            // bound turns positive, minting a transferable certificate.
            // Bounded by `polish_budget` Newton steps; numerical
            // trouble inside the polish (the climb can push `t` into
            // ill-conditioned territory) keeps the original iterate —
            // it must never overturn or error out a settled verdict.
            let mut final_run = run;
            let mut polished = false;
            // Under a tick budget the polish may only spend what the
            // climb left over, so the whole phase-I bill stays within
            // the deterministic cap.
            let polish_cap = match budget {
                Some(b) => opts.polish_budget.min(b.saturating_sub(final_run.newton)),
                None => opts.polish_budget,
            };
            if !reduced
                && polish_cap > 0
                && !phase1_infeas_check(dense, &final_run.x, &mut cert_ws.borrow_mut())
            {
                // The box-grounded bound's slack is exactly the
                // centering residual: at an *exact* center the
                // aggregated gradient ρ vanishes and the bound equals
                // the (positive) dual value, so the polish re-centers
                // at essentially the same barrier parameter — tiny µ,
                // much tighter inner tolerance — instead of climbing
                // into the ill-conditioned large-`t` regime where the
                // verdict's centerings already stalled.
                let mut polish_opts = p1_opts;
                polish_opts.mu = 1.5;
                polish_opts.tol_inner = (p1_opts.tol_inner * 1e-4).max(1e-12);
                let polish_exit = |pt: &[f64], _gap: f64, _centered: bool| {
                    phase1_infeas_check(dense, pt, &mut cert_ws.borrow_mut())
                };
                let pctrl = RunCtrl {
                    early_exit: None,
                    bound_exit: Some(&polish_exit),
                    newton_budget: Some(polish_cap),
                };
                let pstart = pool.take_from(&final_run.x);
                let polish_run =
                    run_barrier(&polish_opts, scratch, aug, pstart, final_run.t, pctrl);
                if let Ok(prun) = polish_run {
                    let minted = phase1_infeas_check(dense, &prun.x, &mut cert_ws.borrow_mut());
                    // The polish's work is paid either way.
                    final_run.outer += prun.outer;
                    final_run.newton += prun.newton;
                    if minted {
                        pool.put(std::mem::replace(&mut final_run.x, prun.x));
                        final_run.t = prun.t;
                        polished = true;
                    } else {
                        pool.put(prun.x);
                    }
                }
            }
            // Scatter the multipliers of a pruned system back to the
            // full row space (zero weight on pruned rows changes no
            // verdict) so the certificate matches the original
            // problem's rows and can circulate.
            let cert = extract_cert_parts(aug, &final_run).map(|mut parts| {
                if let Some(rows) = dense.rows {
                    let mut full = vec![0.0; dense.a.rows()];
                    for (pos, &ri) in rows.iter().enumerate() {
                        full[ri] = parts.lambda_lin[pos];
                    }
                    parts.lambda_lin = full;
                }
                parts
            });
            let out = Phase1Outcome {
                z: None,
                outer: final_run.outer,
                newton: final_run.newton,
                cert,
                polished,
                budgeted: false,
            };
            pool.put(final_run.x);
            Ok(out)
        }
    };
    *scratch.cert_ws() = cert_ws.into_inner();
    outcome
}

fn run_barrier(
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    dense: &Dense<'_>,
    x0: Vec<f64>,
    t0: f64,
    ctrl: RunCtrl<'_>,
) -> Result<BarrierRun> {
    let o = *opts;
    let newton_budget = ctrl.newton_budget.unwrap_or(usize::MAX);
    let s = scratch.for_dim(dense.n);
    let m = dense.num_ineq() as f64;
    let m_lin = dense.num_lin();
    let mut x = x0;
    let mut newton_total = 0;

    // Unconstrained case: a single Newton solve on the objective.
    if dense.num_ineq() == 0 {
        dense.grad_hess_into(1.0, &x, s);
        if dense.p0.is_none() {
            // Pure linear objective with no constraints is unbounded
            // unless the gradient is zero.
            if vecops::norm_inf(&s.grad) > 1e-12 {
                return Err(CvxError::NumericalTrouble {
                    phase: "unconstrained solve (unbounded objective)",
                });
            }
            return Ok(BarrierRun {
                x,
                outer: 0,
                newton: 0,
                gap: 0.0,
                t: t0,
                converged: true,
                centered: true,
            });
        }
        solve_spd_in_place(s)?;
        vecops::axpy(1.0, &s.dx, &mut x);
        return Ok(BarrierRun {
            x,
            outer: 1,
            newton: 1,
            gap: 0.0,
            t: t0,
            converged: true,
            centered: true,
        });
    }

    debug_assert!(
        dense.max_violation(&x) < 0.0,
        "barrier loop requires a strictly feasible start"
    );

    let mut t = t0;
    let mut outer = 0;
    let mut last_lambda2 = f64::INFINITY;
    // Barrier parameter of the last *cleanly centered* outer iterate
    // (the point itself is kept in `s.center`): the fallback when the
    // final centering stalls.
    let mut center_t: Option<f64> = None;
    loop {
        // Centering at parameter t; `centered` records whether it ended
        // by Newton-decrement convergence (vs a stall).
        let mut centered = false;
        let mut best_lambda2 = f64::INFINITY;
        let mut steps_since_progress = 0usize;
        // The barrier value at `x` for this `t`, once a step of this
        // centering has been accepted: the line search already evaluated
        // it at the accepted trial point, which is now `x`.
        let mut psi_x: Option<f64> = None;
        for _ in 0..o.max_newton {
            dense.grad_hess_into(t, &x, s);
            solve_spd_in_place(s)?;
            let lambda2 = -vecops::dot(&s.grad, &s.dx);
            if !lambda2.is_finite() {
                return Err(CvxError::NumericalTrouble { phase: "newton" });
            }
            last_lambda2 = lambda2;
            if lambda2 / 2.0 <= o.tol_inner {
                centered = true;
                break;
            }
            // Decrement plateau: the centering has hit its noise floor;
            // abandon it instead of grinding out the whole budget.
            if lambda2 < PLATEAU_IMPROVE * best_lambda2 {
                best_lambda2 = lambda2;
                steps_since_progress = 0;
            } else {
                steps_since_progress += 1;
                if steps_since_progress >= PLATEAU_BREAK {
                    break;
                }
            }
            // Backtracking line search on the barrier function, entered
            // at the fraction-to-boundary step so near-boundary starts
            // get real candidates instead of infeasible ones. Its start
            // value ψ₀ = ψ(x) is already known after an accepted step of
            // this centering; on the centering's first step it comes from
            // the slacks `grad_hess_into` just wrote. Either way it is the
            // same expression on the same inputs as a fresh
            // `barrier_value(t, x)`, which debug builds check.
            let slack = &s.slack[..m_lin];
            let psi0 = match psi_x {
                Some(v) => Some(v),
                None => dense.barrier_value_at_slacks(t, &x, slack),
            }
            .ok_or(CvxError::NumericalTrouble {
                phase: "line search",
            })?;
            debug_assert_eq!(
                Some(psi0.to_bits()),
                dense.barrier_value(t, &x).map(f64::to_bits),
                "the reused line-search start value must equal a fresh one"
            );
            let mut alpha = dense.max_step(&x, &s.dx, slack, &mut s.qgrad);
            let mut accepted = false;
            while alpha > 1e-14 {
                vecops::add_scaled_into(&x, alpha, &s.dx, &mut s.cand);
                if let Some(psi) = dense.barrier_value(t, &s.cand) {
                    if psi <= psi0 - o.armijo * alpha * lambda2 {
                        std::mem::swap(&mut x, &mut s.cand);
                        psi_x = Some(psi);
                        accepted = true;
                        break;
                    }
                }
                alpha *= o.beta;
            }
            newton_total += 1;
            if newton_total >= newton_budget {
                return Ok(BarrierRun {
                    x,
                    outer,
                    newton: newton_total,
                    gap: m / t,
                    t,
                    converged: false,
                    centered: false,
                });
            }
            if debug_enabled() && newton_total % 16 == 0 {
                eprintln!(
                    "[newton {newton_total}] t={t:.1e} lambda2={lambda2:.3e} alpha={:.3e} accepted={accepted}",
                    alpha
                );
            }
            if !accepted {
                // Line search stalled: no certified center at this t.
                break;
            }
            if let Some(exit) = ctrl.early_exit {
                if exit(&x) {
                    return Ok(BarrierRun {
                        x,
                        outer,
                        newton: newton_total,
                        gap: m / t,
                        t,
                        converged: true,
                        centered: true,
                    });
                }
            }
        }
        outer += 1;
        if centered {
            s.center.copy_from_slice(&x);
            center_t = Some(t);
        }
        if debug_enabled() {
            eprintln!(
                "[barrier] outer {outer}: t={t:.3e} newton_total={newton_total} centered={centered} x_last={:.6e} obj={:.6e}",
                x.last().copied().unwrap_or(f64::NAN),
                dense.objective(&x)
            );
        }
        if let Some(exit) = ctrl.early_exit {
            if exit(&x) {
                return Ok(BarrierRun {
                    x,
                    outer,
                    newton: newton_total,
                    gap: m / t,
                    t,
                    converged: true,
                    centered: true,
                });
            }
        }
        // Infeasibility exit (phase I's verdict): checked after every
        // outer iteration; the predicate receives `centered` so it can
        // gate its duality-gap test while running certificate tests —
        // which are sound at any iterate — unconditionally.
        if let Some(exit) = ctrl.bound_exit {
            if exit(&x, m / t, centered) {
                return Ok(BarrierRun {
                    x,
                    outer,
                    newton: newton_total,
                    gap: m / t,
                    t,
                    converged: true,
                    centered,
                });
            }
        }
        if m / t < o.tol {
            // A stalled final centering only counts as converged when
            // its decrement certifies the iterate is near the center —
            // otherwise the gap bound would be fiction and the caller
            // must see `MaxIterations`.
            let near_center = centered || last_lambda2 / 2.0 <= LOOSE_CENTER_TOL;
            if !near_center {
                // Only the *immediately preceding* outer's center
                // qualifies (gap within µ·tol): an older center's bound
                // is too loose to hand back as an answer, and those
                // cells keep the stalled iterate exactly as before.
                if let Some(tc) = center_t.filter(|&tc| tc < t && m / tc <= o.tol * o.mu) {
                    // Fall back to the last clean center: a one-µ-looser
                    // but *honest* duality bound, and — decisive for the
                    // sweep's warm chains — healthy slacks. The stalled
                    // iterate sits pressed against the boundary (slacks
                    // at the f64 noise floor), and every neighbouring
                    // cell that warm-starts from it would pay a full
                    // cold climb to recover.
                    x.copy_from_slice(&s.center);
                    return Ok(BarrierRun {
                        x,
                        outer,
                        newton: newton_total,
                        gap: m / tc,
                        t: tc,
                        converged: false,
                        centered: true,
                    });
                }
            }
            return Ok(BarrierRun {
                x,
                outer,
                newton: newton_total,
                gap: m / t,
                t,
                converged: near_center,
                centered,
            });
        }
        if outer >= o.max_outer {
            return Ok(BarrierRun {
                x,
                outer,
                newton: newton_total,
                gap: m / t,
                t,
                converged: false,
                centered,
            });
        }
        t *= o.mu;
    }
}

impl BarrierSolver {
    /// Creates a solver with the given options.
    ///
    /// # Panics
    ///
    /// Panics if the options are invalid (programmer error).
    pub fn new(opts: SolverOptions) -> Self {
        opts.validate().expect("solver options must validate");
        BarrierSolver { opts, cell: None }
    }

    /// The options this solver runs with.
    pub fn options(&self) -> &SolverOptions {
        &self.opts
    }

    /// Solves a [`Problem`].
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`].
    pub fn solve(&mut self, prob: &Problem) -> Result<Solution> {
        self.solve_with_start(prob, None)
    }

    /// Solves a [`Problem`] warm: phase II starts from `x0` when it is
    /// strictly feasible (skipping phase I entirely), and phase I itself
    /// starts near `x0` otherwise. Neighbouring Phase-1 grid points and
    /// consecutive MPC windows have nearby optima, which typically cuts the
    /// Newton-step count by an integer factor versus a cold solve.
    ///
    /// The result is within solver tolerance of the cold-start optimum, not
    /// bit-identical to it.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`]; also [`CvxError::NotFinite`] when `x0` holds
    /// a non-finite value, before any Newton step.
    pub fn solve_warm(&mut self, prob: &Problem, x0: &[f64]) -> Result<Solution> {
        self.solve_with_start(prob, Some(x0))
    }

    /// Solves a [`Problem`], optionally warm-starting from `x0`
    /// (see [`BarrierSolver::solve_warm`]).
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`]; also [`CvxError::NotFinite`] when `x0` holds
    /// a non-finite value, before any Newton step.
    pub fn solve_with_start(&mut self, prob: &Problem, x0: Option<&[f64]>) -> Result<Solution> {
        let seed = match x0 {
            Some(x0) => CellSeed::Warm(x0),
            None => CellSeed::None,
        };
        self.cell_solver(prob)?
            .solve_cell(prob.lin_rhs(), seed)
            .cloned()
    }

    /// Solves a [`Problem`] from a *seed* point: `x0` becomes the phase-II
    /// start (or the phase-I seed when infeasible) but the central-path
    /// climb still begins at the configured `t₀`.
    ///
    /// Use this for heuristic starting points that are merely good
    /// geometry; use [`BarrierSolver::solve_warm`] for points that are
    /// near-optimal for a neighbouring problem, where re-entering the path
    /// at the matching barrier parameter is the whole point.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`]; also [`CvxError::NotFinite`] when `x0` holds
    /// a non-finite value, before any Newton step.
    pub fn solve_seeded(&mut self, prob: &Problem, x0: &[f64]) -> Result<Solution> {
        self.cell_solver(prob)?
            .solve_cell(prob.lin_rhs(), CellSeed::Seeded(x0))
            .cloned()
    }

    /// Runs phase I only: returns a strictly feasible point for the
    /// problem's constraints, or `None` when none exists.
    ///
    /// This is much cheaper than a full solve. Phase I starts from the
    /// origin, so a razor-thin frontier cell that a seeded full solve
    /// finds feasible can still be reported infeasible.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BarrierSolver::solve`].
    pub fn find_feasible(&mut self, prob: &Problem) -> Result<Option<Vec<f64>>> {
        Ok(self.find_feasible_with(prob, None)?.point)
    }

    /// As [`BarrierSolver::find_feasible`], but optionally seeds phase I
    /// from `seed` (a feasible point of a neighbouring problem is excellent
    /// geometry even when it violates the new constraints slightly), and
    /// reports the Newton cost plus a verified infeasibility
    /// [`Certificate`] when the problem has none.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BarrierSolver::solve`]; also
    /// [`CvxError::NotFinite`] when `seed` holds a non-finite value, before
    /// any Newton step.
    pub fn find_feasible_with(
        &mut self,
        prob: &Problem,
        seed: Option<&[f64]>,
    ) -> Result<FeasibleOutcome> {
        self.cell_solver(prob)?
            .find_feasible_cell(prob.lin_rhs(), seed)
            .cloned()
    }

    /// The cached solver over a one-cell family that `prob` belongs to,
    /// rebuilding the family from `prob` when it does not belong to the
    /// cached one.
    fn cell_solver(&mut self, prob: &Problem) -> Result<&mut FamilySolver> {
        prob.validate()?;
        if !self.cell.as_ref().is_some_and(|c| c.family().matches(prob)) {
            let family = ProblemFamily::new(prob.clone(), &self.opts)?;
            self.cell = Some(FamilySolver::new(Arc::new(family), self.opts));
        }
        Ok(self.cell.as_mut().expect("built above when missing"))
    }
}

/// Computes a particular solution and nullspace basis for the equality
/// system `A x = b`, returning `(x_p, None)` with `x_p = 0` when there
/// are no equalities. [`ProblemFamily::new`] calls this once per family.
pub(crate) fn reduce_equalities(prob: &Problem) -> Result<(Vec<f64>, Option<Matrix>)> {
    let n = prob.num_vars();
    let (rows, rhs) = prob.equalities();
    if rows.is_empty() {
        return Ok((vec![0.0; n], None));
    }
    let k = rows.len();
    if k > n {
        return Err(CvxError::InconsistentEqualities);
    }
    // QR of Aᵀ (n × k): A = RᵀQᵀ, so x_p = Q_thin (Rᵀ)⁻¹ b.
    let at = Matrix::from_fn(n, k, |r, c| rows[c][r]);
    let qr = Qr::factor(&at)?;
    let q = qr.q();
    let q_thin = Matrix::from_fn(n, k, |r, c| q[(r, c)]);
    let r = qr.r();
    // Forward substitution on Rᵀ w = b.
    let mut w = rhs.to_vec();
    let rscale = r.norm_max().max(1.0);
    for i in 0..k {
        for j in 0..i {
            let rji = r[(j, i)];
            w[i] -= rji * w[j];
        }
        let d = r[(i, i)];
        if d.abs() < 1e-12 * rscale {
            return Err(CvxError::InconsistentEqualities);
        }
        w[i] /= d;
    }
    let x_p = q_thin.matvec(&w);
    // Verify consistency.
    for (row, &b) in rows.iter().zip(rhs) {
        if (vecops::dot(row, &x_p) - b).abs() > 1e-7 * (1.0 + b.abs()) {
            return Err(CvxError::InconsistentEqualities);
        }
    }
    Ok((x_p, Some(qr.nullspace_basis())))
}

/// Extracts Farkas certificate material from a failed phase-I run: the
/// barrier's implicit multipliers `λᵢ = 1/(t·sᵢ)` at the final iterate,
/// normalized to sum 1, plus the iterate itself (without the `s` slot) as
/// the linearization anchor. Returns `None` when any slack is non-positive
/// (the iterate left the domain — nothing trustworthy to extract).
fn extract_cert_parts(aug: &Dense<'_>, run: &BarrierRun) -> Option<CertParts> {
    let nz = aug.n - 1;
    let t = run.t;
    if !(t.is_finite() && t > 0.0) {
        return None;
    }
    let mut lambda_lin = Vec::with_capacity(aug.num_lin());
    let mut lambda_quad = Vec::with_capacity(aug.quad.len());
    let mut sum = 0.0;
    for i in 0..aug.num_lin() {
        let slack = aug.b[i] - vecops::dot(aug.lin_row(i), &run.x);
        if !(slack.is_finite() && slack > 0.0) {
            return None;
        }
        let l = 1.0 / (t * slack);
        sum += l;
        lambda_lin.push(l);
    }
    for q in aug.quad {
        let slack = -q.eval(&run.x);
        if !(slack.is_finite() && slack > 0.0) {
            return None;
        }
        let l = 1.0 / (t * slack);
        sum += l;
        lambda_quad.push(l);
    }
    if !(sum.is_finite() && sum > 0.0) {
        return None;
    }
    for l in lambda_lin.iter_mut().chain(lambda_quad.iter_mut()) {
        *l /= sum;
    }
    Some(CertParts {
        lambda_lin,
        lambda_quad,
        anchor_z: run.x[..nz].to_vec(),
    })
}

/// Decides whether the phase-I iterate `pt = (z, s)` already proves the
/// underlying problem infeasible, using the Farkas candidate
/// `λᵢ ∝ 1/(s − fᵢ(z))` (the barrier multipliers up to the scale `1/t`,
/// which cancels out of the verdict) and the same box-grounded convexity
/// bound as [`Certificate::certifies`], evaluated directly on the reduced
/// problem:
///
/// ```text
/// g(x) = Σλᵢfᵢ(x) ≥ g(z) + ∇g(z)ᵀ(x − z) ≥ lower > 0  ⇒  infeasible
/// ```
///
/// Sound at *any* strictly feasible phase-I iterate — no centering
/// required — which is exactly what terminates the deeply infeasible runs
/// whose centerings stall. One pass over the constraint data per outer
/// iteration. (After equality elimination the projected rows are dense, so
/// no variable bounds can be harvested and the check simply never fires —
/// the centered duality-gap exit still covers that case, and `phase1`
/// skips this check entirely for reduced problems.)
///
/// NOTE: the aggregation mirrors [`Certificate::certifies`] over the
/// packed row storage with inline multipliers — keep the two in sync; the
/// acceptance verdict is shared via `boxed_bound_accepts`.
fn phase1_infeas_check(dense: &Dense<'_>, pt: &[f64], ws: &mut CertScratch) -> bool {
    let nz = dense.n;
    let z = &pt[..nz];
    let s = pt[nz];
    ws.ensure(nz);
    ws.rho.fill(0.0);
    ws.lo.fill(f64::NEG_INFINITY);
    ws.hi.fill(f64::INFINITY);
    let mut value = 0.0;
    let mut mag = 0.0;
    for i in 0..dense.num_lin() {
        let row = dense.lin_row(i);
        let f = vecops::dot(row, z) - dense.b[i];
        let slack = s - f;
        if !(slack.is_finite() && slack > 0.0) {
            return false;
        }
        if let Some((j, c)) = crate::certificate::single_entry(row) {
            let bound = dense.b[i] / c;
            if c > 0.0 {
                ws.hi[j] = ws.hi[j].min(bound);
            } else {
                ws.lo[j] = ws.lo[j].max(bound);
            }
        }
        let l = 1.0 / slack;
        value += l * f;
        mag += l * f.abs();
        vecops::axpy(l, row, &mut ws.rho);
    }
    for q in dense.quad {
        let f = q.eval(z);
        let slack = s - f;
        if !(slack.is_finite() && slack > 0.0) {
            return false;
        }
        let l = 1.0 / slack;
        value += l * f;
        mag += l * f.abs();
        q.gradient_into(z, &mut ws.qgrad);
        vecops::axpy(l, &ws.qgrad, &mut ws.rho);
    }
    crate::certificate::boxed_bound_accepts(
        value,
        mag,
        &ws.rho[..nz],
        &ws.lo[..nz],
        &ws.hi[..nz],
        z,
    )
}

/// Maps a reduced point back to the original variables: `x = x_p + F z`.
pub(crate) fn lift(x_p: &[f64], f_basis: Option<&Matrix>, z: &[f64]) -> Vec<f64> {
    match f_basis {
        Some(f) => vecops::add(x_p, &f.matvec(z)),
        None => z.to_vec(),
    }
}

/// Allocation-free [`lift`]: `out` is resized (capacity permitting) and
/// overwritten with `x_p + F z`.
pub(crate) fn lift_into(x_p: &[f64], f_basis: Option<&Matrix>, z: &[f64], out: &mut Vec<f64>) {
    match f_basis {
        Some(f) => {
            out.clear();
            out.resize(x_p.len(), 0.0);
            f.matvec_into(z, out);
            for (o, &p) in out.iter_mut().zip(x_p) {
                *o += p;
            }
        }
        None => {
            out.clear();
            out.extend_from_slice(z);
        }
    }
}

/// Solves the Newton system `H dx = −grad` entirely inside the scratch
/// buffers: reads `s.grad` and the lower triangle of `s.hess`, writes
/// `s.dx`; `s.jacobi`, `s.hs`, `s.bs` and `s.chol` are clobbered.
/// Allocation-free.
///
/// Barrier Hessians mix enormous curvatures (active constraints with tiny
/// slacks contribute `1/s²` terms) with nearly flat directions, so the raw
/// system can span 15+ orders of magnitude. Jacobi scaling `D H D` (unit
/// diagonal) restores a workable condition number; an escalating ridge on
/// the scaled system covers the remaining degenerate cases. Both the
/// scaling and the Cholesky factorization touch the lower triangle only —
/// the upper halves of `s.hess`/`s.hs` are never read.
fn solve_spd_in_place(s: &mut DimScratch) -> Result<()> {
    let DimScratch {
        hess,
        jacobi,
        hs,
        bs,
        grad,
        dx,
        chol,
        ..
    } = s;
    let n = jacobi.len();
    for (i, d) in jacobi.iter_mut().enumerate() {
        let v = hess[(i, i)];
        *d = if v > 0.0 && v.is_finite() {
            1.0 / v.sqrt()
        } else {
            1.0
        };
    }
    for r in 0..n {
        let dr = jacobi[r];
        let src = &hess.as_slice()[r * n..r * n + r + 1];
        let dst = &mut hs.as_mut_slice()[r * n..r * n + r + 1];
        for ((h, &a), &dc) in dst.iter_mut().zip(src).zip(jacobi.iter()) {
            *h = a * dr * dc;
        }
    }
    for ((b, &g), &d) in bs.iter_mut().zip(grad.iter()).zip(jacobi.iter()) {
        *b = -g * d;
    }
    let mut ridge = 0.0;
    for _ in 0..10 {
        match chol.factor_in_place(hs, ridge) {
            Ok(()) => {
                dx.copy_from_slice(bs);
                chol.solve_in_place(dx);
                for (dxi, &d) in dx.iter_mut().zip(jacobi.iter()) {
                    *dxi *= d;
                }
                return Ok(());
            }
            Err(_) => {
                ridge = if ridge == 0.0 { 1e-12 } else { ridge * 100.0 };
            }
        }
    }
    Err(CvxError::NumericalTrouble {
        phase: "hessian factorization",
    })
}

/// Projects the problem into the reduced space `x = x_p + F z`, packing the
/// linear inequality rows into one contiguous matrix for the blocked
/// Newton assembly and recording each packed row's nonzero span once.
/// Right-hand sides are left out: they vary per cell.
pub(crate) fn project_problem(prob: &Problem, x_p: &[f64], f: Option<&Matrix>) -> ProjStorage {
    let (p0, q0, _) = prob.objective();
    let m_lin = prob.lin_rows().len();
    match f {
        None => {
            let n = prob.num_vars();
            let mut a = Matrix::zeros(m_lin, n);
            for (i, row) in prob.lin_rows().iter().enumerate() {
                a.row_mut(i).copy_from_slice(row);
            }
            ProjStorage {
                n,
                p0: p0.cloned(),
                q0: q0.to_vec(),
                spans: a.row_spans(),
                a,
                quad: prob.quad_constraints().to_vec(),
            }
        }
        Some(f) => {
            let nz = f.cols();
            // Objective.
            let q0_z = match p0 {
                Some(p) => {
                    let px = p.matvec(x_p);
                    f.matvec_t(&vecops::add(&px, q0))
                }
                None => f.matvec_t(q0),
            };
            let p0_z = p0.map(|p| {
                let pf = p.matmul(f).expect("shape");
                f.transpose().matmul(&pf).expect("shape")
            });
            // Linear rows (their right-hand sides are projected per cell).
            let mut a = Matrix::zeros(m_lin, nz);
            for (i, row) in prob.lin_rows().iter().enumerate() {
                a.row_mut(i).copy_from_slice(&f.matvec_t(row));
            }
            // Quadratic constraints.
            let quad = prob
                .quad_constraints()
                .iter()
                .map(|qc| {
                    let pf = qc.p.matmul(f).expect("shape");
                    let p_z = f.transpose().matmul(&pf).expect("shape");
                    let px = qc.p.matvec(x_p);
                    let q_z = f.matvec_t(&vecops::add(&px, &qc.q));
                    let r_z = qc.r - 0.5 * vecops::dot(&px, x_p) - vecops::dot(&qc.q, x_p);
                    QuadConstraint {
                        p: p_z,
                        q: q_z,
                        r: r_z,
                    }
                })
                .collect();
            ProjStorage {
                n: nz,
                p0: p0_z,
                q0: q0_z,
                spans: a.row_spans(),
                a,
                quad,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveStatus;

    fn solve(p: &Problem) -> Solution {
        BarrierSolver::new(SolverOptions::default())
            .solve(p)
            .unwrap()
    }

    #[test]
    fn simple_lp() {
        // minimize -x-2y s.t. x+y<=4, x<=2, x,y>=0. Optimum at (0,4): -8.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![-1.0, -2.0]);
        p.add_linear_le(vec![1.0, 1.0], 4.0);
        p.add_box(0, 0.0, 2.0);
        p.add_box(1, 0.0, f64::INFINITY);
        let s = solve(&p);
        assert!(s.status.is_optimal());
        assert!((s.objective + 8.0).abs() < 1e-4, "got {}", s.objective);
        assert!(s.x[0].abs() < 1e-3 && (s.x[1] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn qp_projection_onto_halfspace() {
        // minimize ‖x − (2,2)‖² s.t. x1 + x2 ≤ 2 → optimum (1,1).
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![-4.0, -4.0]);
        p.add_linear_le(vec![1.0, 1.0], 2.0);
        let s = solve(&p);
        assert!(s.status.is_optimal());
        assert!((s.x[0] - 1.0).abs() < 1e-4 && (s.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn quadratic_constraint_active() {
        // minimize -x s.t. x² ≤ 4 (as ½·2x² ≤ 4 → r=4) → x = 2.
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![-1.0]);
        p.add_quad_le(Matrix::from_diag(&[2.0]), vec![0.0], 4.0);
        let s = solve(&p);
        assert!((s.x[0] - 2.0).abs() < 1e-4, "got {}", s.x[0]);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 0 and x ≥ 1 simultaneously.
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_linear_le(vec![1.0], 0.0);
        p.add_linear_le(vec![-1.0], -1.0);
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert!(
            s.phase1_steps > 0,
            "infeasibility verdicts come from phase I"
        );
    }

    #[test]
    fn infeasible_solve_attaches_verified_certificate() {
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_linear_le(vec![1.0], 0.0);
        p.add_linear_le(vec![-1.0], -1.0);
        let s = solve(&p);
        assert_eq!(s.status, SolveStatus::Infeasible);
        let cert = s.certificate.expect("certificate extracted");
        assert!(crate::check_certificate(&p, &cert));
        // The same certificate rejects a strictly tighter variant …
        let mut tighter = Problem::new(1);
        tighter.set_linear_objective(vec![1.0]);
        tighter.add_linear_le(vec![1.0], -0.5);
        tighter.add_linear_le(vec![-1.0], -1.0);
        assert!(crate::check_certificate(&tighter, &cert));
        // … and never a feasible relaxation.
        let mut feasible = Problem::new(1);
        feasible.set_linear_objective(vec![1.0]);
        feasible.add_linear_le(vec![1.0], 2.0);
        feasible.add_linear_le(vec![-1.0], -1.0);
        assert!(!crate::check_certificate(&feasible, &cert));
    }

    #[test]
    fn tick_budget_truncates_with_feasible_iterate() {
        // The LP is feasible; a tiny deterministic budget must return a
        // `Budgeted` status whose point is still strictly feasible, with
        // the Newton bill never exceeding the budget.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![-1.0, -2.0]);
        p.add_linear_le(vec![1.0, 1.0], 4.0);
        p.add_box(0, 0.0, 2.0);
        p.add_box(1, 0.0, f64::INFINITY);
        let budget = 5;
        let opts = SolverOptions {
            tick_budget: budget,
            ..SolverOptions::default()
        };
        let s = BarrierSolver::new(opts).solve(&p).unwrap();
        assert!(s.newton_steps <= budget, "bill {} > budget", s.newton_steps);
        if s.status == SolveStatus::Budgeted && !s.x.is_empty() {
            // Truncated mid-centering: the iterate must satisfy every
            // constraint (barrier iterates never leave the interior).
            assert!(s.x[0] + s.x[1] <= 4.0 + 1e-9);
            assert!((0.0..=2.0 + 1e-9).contains(&s.x[0]));
            assert!(s.x[1] >= -1e-9);
            assert!(s.objective.is_finite());
        } else {
            // Phase I could not certify feasibility within the budget.
            assert_eq!(s.status, SolveStatus::Budgeted);
            assert!(s.x.is_empty());
        }
    }

    #[test]
    fn tick_budget_never_fakes_an_infeasibility_verdict() {
        // A feasible problem whose phase I needs real work: with a
        // one-step budget the verdict must be Budgeted (undecided), never
        // a certified Infeasible.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![1.0, 1.0]);
        p.add_linear_le(vec![1.0, 1.0], 4.0);
        p.add_linear_le(vec![-1.0, -1.0], -3.9);
        p.add_box(0, 0.0, 4.0);
        p.add_box(1, 0.0, 4.0);
        let opts = SolverOptions {
            tick_budget: 1,
            ..SolverOptions::default()
        };
        let s = BarrierSolver::new(opts).solve(&p).unwrap();
        assert_ne!(s.status, SolveStatus::Infeasible);
        assert!(s.newton_steps <= 1);
        assert!(s.certificate.is_none());
    }

    #[test]
    fn tick_budget_large_enough_is_bit_identical_to_unbudgeted() {
        // A budget the solve never reaches must not change a single bit
        // of the answer: the budgeted RunCtrl caps are inert until hit.
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![-4.0, -4.0]);
        p.add_linear_le(vec![1.0, 1.0], 2.0);
        p.add_box(0, -5.0, 5.0);
        p.add_box(1, -5.0, 5.0);
        let plain = BarrierSolver::new(SolverOptions::default())
            .solve(&p)
            .unwrap();
        let opts = SolverOptions {
            tick_budget: 1_000_000,
            ..SolverOptions::default()
        };
        let budgeted = BarrierSolver::new(opts).solve(&p).unwrap();
        assert_eq!(plain.status, budgeted.status);
        assert_eq!(plain.x, budgeted.x);
        assert_eq!(plain.newton_steps, budgeted.newton_steps);
        assert_eq!(plain.objective.to_bits(), budgeted.objective.to_bits());
    }

    #[test]
    fn find_feasible_with_reports_certificate_and_seed_shortcut() {
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_linear_le(vec![1.0], 0.0);
        p.add_linear_le(vec![-1.0], -1.0);
        let mut solver = BarrierSolver::new(SolverOptions::default());
        let out = solver.find_feasible_with(&p, None).unwrap();
        assert!(out.point.is_none());
        assert!(out.newton_steps > 0);
        assert!(out.certificate.is_some());

        // A strictly interior seed on a feasible problem is accepted with
        // zero Newton steps.
        let mut q = Problem::new(1);
        q.set_linear_objective(vec![1.0]);
        q.add_box(0, 0.0, 10.0);
        let out = solver.find_feasible_with(&q, Some(&[5.0])).unwrap();
        assert_eq!(out.newton_steps, 0);
        assert!(out.point.is_some());
    }

    #[test]
    fn equality_constraints_respected() {
        // minimize x² + y² s.t. x + y = 2 → (1,1).
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![0.0, 0.0]);
        p.add_eq(vec![1.0, 1.0], 2.0);
        let s = solve(&p);
        assert!(s.status.is_optimal());
        assert!((s.x[0] - 1.0).abs() < 1e-6 && (s.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equality_plus_inequalities() {
        // minimize -y s.t. x = 0.5, x + y ≤ 1, y ≥ 0 → y = 0.5.
        let mut p = Problem::new(2);
        p.set_linear_objective(vec![0.0, -1.0]);
        p.add_eq(vec![1.0, 0.0], 0.5);
        p.add_linear_le(vec![1.0, 1.0], 1.0);
        p.add_box(1, 0.0, f64::INFINITY);
        let s = solve(&p);
        assert!((s.x[0] - 0.5).abs() < 1e-5);
        assert!((s.x[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn equality_reduction_cache_reused_across_rhs() {
        // Same equality rows, different right-hand sides: one solver must
        // re-project correctly for each (an equality rhs change rebuilds
        // the cached one-cell family).
        let mut solver = BarrierSolver::new(SolverOptions::default());
        for target in [1.0, 2.0, 3.0] {
            let mut p = Problem::new(2);
            p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![0.0, 0.0]);
            p.add_eq(vec![1.0, 1.0], target);
            let s = solver.solve(&p).unwrap();
            assert!(
                (s.x[0] - target / 2.0).abs() < 1e-6,
                "target {target}: got {:?}",
                s.x
            );
        }
        // A different equality structure rebuilds it too.
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![0.0, 0.0]);
        p.add_eq(vec![1.0, -1.0], 0.0);
        p.add_linear_le(vec![-1.0, 0.0], -1.0);
        let s = solver.solve(&p).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-4 && (s.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn inconsistent_equalities_error() {
        let mut p = Problem::new(1);
        p.add_eq(vec![1.0], 0.0);
        p.add_eq(vec![1.0], 1.0);
        let err = BarrierSolver::new(SolverOptions::default()).solve(&p);
        assert!(matches!(err, Err(CvxError::InconsistentEqualities)));
    }

    #[test]
    fn warm_start_used_when_feasible() {
        let mut p = Problem::new(1);
        p.set_linear_objective(vec![1.0]);
        p.add_box(0, 0.0, 10.0);
        let mut solver = BarrierSolver::new(SolverOptions::default());
        let s = solver.solve_with_start(&p, Some(&[5.0])).unwrap();
        assert!(s.x[0].abs() < 1e-4);
    }

    #[test]
    fn warm_solve_matches_cold_and_skips_phase1() {
        // A QP whose phase II alone must reproduce the cold optimum when
        // started from a strictly feasible interior point.
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![-2.0, -6.0]);
        p.add_linear_le(vec![1.0, 1.0], 2.0);
        p.add_linear_le(vec![-1.0, 2.0], 2.0);
        p.add_linear_le(vec![2.0, 1.0], 3.0);
        let mut solver = BarrierSolver::new(SolverOptions::default());
        let cold = solver.solve(&p).unwrap();
        let warm = solver.solve_warm(&p, &cold.x).unwrap();
        assert!(warm.status.is_optimal());
        assert_eq!(warm.phase1_steps, 0, "warm path skips phase I");
        assert!((warm.x[0] - cold.x[0]).abs() < 1e-4);
        assert!((warm.x[1] - cold.x[1]).abs() < 1e-4);
        assert!(
            warm.newton_steps < cold.newton_steps,
            "warm start must shorten the Newton path ({} vs {})",
            warm.newton_steps,
            cold.newton_steps
        );
    }

    #[test]
    fn kkt_stationarity_at_optimum() {
        // QP with several constraints; check ∇f + Σ λᵢ∇gᵢ ≈ 0 using the
        // barrier's implicit multipliers λᵢ = 1/(t·sᵢ).
        let mut p = Problem::new(2);
        p.set_quadratic_objective(Matrix::from_diag(&[2.0, 2.0]), vec![-2.0, -6.0]);
        p.add_linear_le(vec![1.0, 1.0], 2.0);
        p.add_linear_le(vec![-1.0, 2.0], 2.0);
        p.add_linear_le(vec![2.0, 1.0], 3.0);
        let s = solve(&p);
        assert!(s.status.is_optimal());
        // Known optimum of this classic QP: (2/3, 4/3).
        assert!((s.x[0] - 2.0 / 3.0).abs() < 1e-3, "x0={}", s.x[0]);
        assert!((s.x[1] - 4.0 / 3.0).abs() < 1e-3, "x1={}", s.x[1]);
    }
}
